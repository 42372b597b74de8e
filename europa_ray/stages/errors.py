"""Per-row content error routing: corrupt rows become DATA, not exceptions.

The reference surfaces per-file read/decode failures as notifications and
keeps going (``/root/reference/Api/Implementations/Commons/
DirectoryReader.cs:42-65``, ``SimilarImageFinder.cs:206-210``). This
stage applies the same convention to text/content rows:

- ``null_content``  — content is null (unreadable row)
- ``empty_content`` — content is present but zero-length
- ``invalid_utf8``  — binary content that does not decode as UTF-8

Validation is vectorized: string-typed columns are valid UTF-8 by Arrow's
invariant (null/empty checks only); binary columns are validated by one
whole-column cast — only a batch that actually contains a bad row pays a
per-row fallback (errors are rare by construction).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def tag_content_errors(batch: pa.Table, *, content_col: str = "content") -> pa.Table:
    """Append an ``error`` column (string, null ⇔ row is clean)."""
    col = batch[content_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = batch.num_rows
    errors = np.full(n, None, dtype=object)

    null_mask = pc.is_null(col).to_numpy(zero_copy_only=False)
    errors[null_mask] = "null_content"

    empty_mask = np.zeros(n, dtype=bool)
    if n:
        lengths = pc.binary_length(pc.fill_null(col, "")).to_numpy(zero_copy_only=False)
        empty_mask = (lengths == 0) & ~null_mask
        errors[empty_mask] = "empty_content"

    if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
        try:
            pc.cast(col, pa.large_string() if pa.types.is_large_binary(col.type) else pa.string())
        except pa.ArrowInvalid:
            # rare path: only a batch with a genuinely bad row decodes per-row
            for i, v in enumerate(col):
                if errors[i] is not None:
                    continue
                try:
                    v.as_py().decode("utf-8")
                except (UnicodeDecodeError, AttributeError):
                    errors[i] = "invalid_utf8"

    return batch.append_column("error", pa.array(errors, pa.string()))


def split_content_errors(ds, *, content_col: str = "content"):
    """Dataset → (clean_rows, error_rows) lazy branches.

    Each branch re-runs the (cheap) tagging pass — two streaming reads
    instead of one materialization of the content-bearing corpus, which is
    the right trade at scale. Error rows keep the ``error`` column and drop
    the content payload; clean rows come back unchanged.
    """

    def clean(batch: pa.Table) -> pa.Table:
        t = tag_content_errors(batch, content_col=content_col)
        mask = pc.is_null(t["error"])
        return t.filter(mask).drop_columns(["error"])

    def errs(batch: pa.Table) -> pa.Table:
        t = tag_content_errors(batch, content_col=content_col)
        mask = pc.is_valid(t["error"])
        return t.filter(mask).drop_columns([content_col])

    return (
        ds.map_batches(clean, batch_format="pyarrow"),
        ds.map_batches(errs, batch_format="pyarrow"),
    )
