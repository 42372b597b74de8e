"""Sources: the ``files`` corpus table and adapters.

The corpus *is* the listing — ``ray.data.read_parquet`` plays the role of
Europa's ``DirectoryReader.GetAllFilesFromFolderAsync``
(``/root/reference/Api/Implementations/Commons/DirectoryReader.cs:25-68``).
Column pruning at the read (``columns=[...]``) is the engine's version of
"only open what you need".
"""

from __future__ import annotations

import logging
import os

import pyarrow.compute as pc
import ray.data

from europa_ray.util import default_read_blocks

FILES_COLUMNS = ["repo", "path", "commit", "lang", "content"]

_log = logging.getLogger(__name__)


def input_bytes(paths: str | list[str]) -> int | None:
    """Summed size of the files a reader of ``paths`` reads, listed through
    ``pyarrow.fs``: every file below a directory (sidecar files such as
    ``_SUCCESS`` or ``.crc`` count too; they only nudge an estimate), a
    single file or a list of either. ``None``, with a warning that gives the reason, when the listing
    fails (a missing path, an unknown or unreachable filesystem)."""
    import pyarrow as pa
    import pyarrow.fs as pafs

    try:
        total = 0
        for path in [paths] if isinstance(paths, str) else paths:
            if "://" in path:
                fs, path = pafs.FileSystem.from_uri(path)
            else:
                fs, path = pafs.LocalFileSystem(), os.path.abspath(path)
            info = fs.get_file_info(path)
            if info.type == pafs.FileType.File:
                total += info.size
            elif info.type == pafs.FileType.Directory:
                found = fs.get_file_info(pafs.FileSelector(path, recursive=True))
                total += sum(f.size for f in found if f.type == pafs.FileType.File)
            else:
                raise FileNotFoundError(f"no file or directory at {path!r}")
        return total
    except (OSError, pa.ArrowException) as exc:
        _log.warning("input listing failed, read blocks fall back to the cap: %r", exc)
        return None


def read_files(path: str | list[str], columns: list[str] | None = None) -> ray.data.Dataset:
    """Read a ``files(repo,path,commit,lang,content)`` parquet table/dir.

    The block count comes from ``util.default_read_blocks``: 8 per CPU on
    a multi-CPU cluster (the measured knee that leaves the signature stage
    no straggler tail); on one CPU one block per 4 MiB of input, at most 8,
    so a small corpus pays few per-block tasks.
    """
    return ray.data.read_parquet(
        path, columns=columns, override_num_blocks=default_read_blocks(input_bytes(path))
    )


def _normalize_files_schema(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Coerce an ingested table to the canonical ``files`` schema: required
    columns present (missing ones raise — a corpus without content is a
    config error, matching F4's fail-fast validation), ``content`` cast to
    string (CSV/JSON readers may infer null-typed or binary columns on
    sparse shards)."""
    import pyarrow as pa

    def coerce(batch: pa.Table) -> pa.Table:
        missing = [c for c in FILES_COLUMNS if c not in batch.column_names]
        if missing:
            raise ValueError(f"files corpus missing required columns: {missing}")
        out = batch.select(FILES_COLUMNS)
        for c in FILES_COLUMNS:
            col = out[c]
            typ = col.type if not isinstance(col, pa.ChunkedArray) else col.type
            if not (pa.types.is_string(typ) or pa.types.is_large_string(typ)):
                out = out.set_column(
                    out.column_names.index(c), c, col.cast(pa.string())
                )
        return out

    return ds.map_batches(coerce, batch_format="pyarrow")


def read_files_jsonl(path: str) -> ray.data.Dataset:
    """Read a ``files`` corpus from JSON-Lines shards (one object per line,
    keys = the files columns) — same discovery/parallelism semantics as the
    Parquet reader; schema normalized to the canonical shape."""
    ds = ray.data.read_json(
        path, override_num_blocks=default_read_blocks(input_bytes(path))
    )
    return _normalize_files_schema(ds)


def read_files_csv(path: str) -> ray.data.Dataset:
    """Read a ``files`` corpus from CSV shards (header row, the files
    columns). Note CSV cannot represent embedded newlines portably across
    writers — prefer Parquet/JSONL for real corpora; this exists so a user
    ingesting legacy CSV listings gets the same pipeline surface."""
    ds = ray.data.read_csv(
        path, override_num_blocks=default_read_blocks(input_bytes(path))
    )
    return _normalize_files_schema(ds)


# deterministic per-doc path extension (doc_id % 8) so the file-type
# identification chain (stages/classify.py) is exercised over real variety;
# index i maps to the kind the classifier assigns that extension
DOC_EXTS = ("py", "rs", "go", "java", "js", "c", "md", "txt")


def _docs_to_files(batch):
    """documents(doc_id,text,lang,source,n_chars) → files shape.

    Mapping per FIXTURES.md §3: text→content, source→repo, doc_id→path,
    lang→lang; ``commit`` synthesized deterministically from doc_id; the
    path extension cycles ``DOC_EXTS[doc_id % 8]`` (SQL-expressible, so the
    ``file_kind_counts`` DuckDB oracle can verify the classifier). doc_id
    is retained so driver queries can emit doc-level results.
    """
    import numpy as np
    import pyarrow as pa

    doc_id = batch["doc_id"]
    ids = doc_id.to_numpy() if not isinstance(doc_id, pa.ChunkedArray) else doc_id.combine_chunks().to_numpy()
    exts = np.asarray(DOC_EXTS, dtype=object)[ids % 8]
    commit = pc.utf8_lpad(pc.cast(doc_id, pa.string()), 40, "0")
    return pa.table(
        {
            "doc_id": doc_id,
            "repo": batch["source"],
            "path": pc.binary_join_element_wise(
                pc.cast(doc_id, pa.string()),
                pa.scalar("."),
                pa.array(exts, pa.string()),
                "",
            ),
            "commit": commit,
            "lang": batch["lang"],
            "content": batch["text"],
        }
    )


def read_documents_as_files(sf_dir: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Adapter: the driver's ``documents`` table in ``files`` shape
    (keeps ``doc_id`` as an identity column)."""
    path = os.path.join(sf_dir, "documents.parquet")
    ds = ray.data.read_parquet(
        path, override_num_blocks=default_read_blocks(input_bytes(path))
    )
    ds = ds.map_batches(_docs_to_files, batch_format="pyarrow")
    if columns:
        ds = ds.select_columns(columns)
    return ds
