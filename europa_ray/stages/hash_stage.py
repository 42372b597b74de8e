"""Content-hash stage: per-row sha256 (the driver invariant, standing in for
Europa's Blake3 — ``/root/reference/Api/Implementations/DuplicatesByHash/
HashGenerator.cs:14-47``) plus size, as ``map_batches`` over Arrow batches.

Empty content yields a null hash and the row is dropped, mirroring
``HashGenerator.cs:18-19`` (null hash ⇒ file skipped).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from europa_ray.util import sha256_hex_arrow, sha256_prefix_hex_arrow


def add_sha256(batch: pa.Table, *, drop_content: bool = True, keep_cols=None) -> pa.Table:
    """Append ``sha256`` (lowercase hex) + ``size`` columns; drop empty rows.

    ``drop_content=True`` projects the heavy column away immediately so no
    downstream shuffle ever moves file bodies (SURVEY.md §4 memory row).
    """
    hashes = sha256_hex_arrow(batch["content"])
    size = pc.utf8_length(batch["content"]).cast(pa.int64())
    out = batch.append_column("sha256", pa.array(hashes, type=pa.string()))
    out = out.append_column("size", size)
    if drop_content:
        # project before filtering: the filter then never copies file bodies
        cols = [c for c in out.column_names if c != "content"]
        if keep_cols is not None:
            cols = [c for c in cols if c in set(keep_cols) | {"sha256", "size"}]
        out = out.select(cols)
    return out.filter(pc.is_valid(out["sha256"])) if out["sha256"].null_count else out


def add_prefix_key(batch: pa.Table) -> pa.Table:
    """Pass-1 cheap key for the two-pass trick (A2,
    ``DuplicateByHashFinder.cs:42-76``): ``(size, sha256-of-10%-prefix)``
    folded into one string key. Content is dropped — pass 1 is metadata-only.
    """
    pref = sha256_prefix_hex_arrow(batch["content"], 0.1)
    size = pc.utf8_length(batch["content"]).cast(pa.int64())
    keys = [
        None if p is None else f"{s}:{p}"
        for p, s in zip(pref, size.to_numpy(zero_copy_only=False))
    ]
    out = batch.append_column("prefix_key", pa.array(keys, type=pa.string()))
    out = out.filter(pc.is_valid(out["prefix_key"]))
    return out.select([c for c in out.column_names if c != "content"])
