"""Sources: the ``files`` corpus table and adapters.

The corpus *is* the listing — :func:`read_files` lists the input once and
reads it as runs of files, the role of Europa's
``DirectoryReader.GetAllFilesFromFolderAsync``
(``/root/reference/Api/Implementations/Commons/DirectoryReader.cs:25-68``).
Column pruning at the read (``columns=[...]``) is the engine's version of
"only open what you need".
"""

from __future__ import annotations

import functools
import logging
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import ReadTask

from europa_ray.util import default_read_blocks

FILES_COLUMNS = ["repo", "path", "commit", "lang", "content"]

_log = logging.getLogger(__name__)


def _resolve(path: str) -> tuple[pafs.FileSystem, str]:
    """(filesystem, path on it) of a local path or a URI."""
    if "://" in path:
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), os.path.abspath(path)


def _data_files(path: str) -> tuple[str | list[str], pafs.FileSystem | None]:
    """``(paths, filesystem)`` for a JSONL/CSV read of ``path``. A directory
    becomes its files minus sidecars: every file whose path below the
    directory has a component starting with ``_`` or ``.`` (``_SUCCESS``,
    ``.crc``, ``_temporary/`` shards) is skipped, as Parquet discovery
    skips it. Ray 2.49's own listing skips those only when the path ends in
    ``/``, and then only at the top level. Any other path, or one whose
    listing fails, is returned as given for the reader to open or report."""
    try:
        fs, root = _resolve(path)
        if fs.get_file_info(root).type != pafs.FileType.Directory:
            return path, None
        found = fs.get_file_info(pafs.FileSelector(root, recursive=True))
    except (OSError, pa.ArrowException):
        return path, None
    cut = len(root.rstrip("/")) + 1
    return sorted(
        f.path
        for f in found
        if f.type == pafs.FileType.File
        and not any(part.startswith(("_", ".")) for part in f.path[cut:].split("/"))
    ), fs


def input_bytes(paths: str | list[str]) -> int | None:
    """Summed size of the files a reader of ``paths`` reads, listed through
    ``pyarrow.fs``: every file below a directory (sidecar files such as
    ``_SUCCESS`` or ``.crc`` count too; they only nudge an estimate), a
    single file or a list of either. ``None``, with a warning that gives the reason, when the listing
    fails (a missing path, an unknown or unreachable filesystem)."""
    try:
        total = 0
        for path in [paths] if isinstance(paths, str) else paths:
            fs, path = _resolve(path)
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


class _ParquetFiles(ray.data.Datasource):
    """A Parquet corpus read as contiguous runs of its files, one read task
    per run, planned from one listing on the driver.

    ``pyarrow.dataset.dataset`` lists the input once (Parquet discovery:
    sidecar files and directories starting with ``_`` or ``.`` skipped,
    hive ``key=value`` directories as string columns) and reads one footer
    for the schema; ``get_file_info`` gives every file's size in one call.
    ``ray.data.read_parquet`` gives the same rows in the same order, but
    also runs sampling tasks and reads footers on the driver to estimate
    the decoded size, which the block count here does not use."""

    def __init__(self, path: str | list[str], columns: list[str] | None):
        fs, paths = _resolve_paths(path)
        found = pads.dataset(
            paths[0] if isinstance(path, str) else paths,
            filesystem=fs,
            format="parquet",
            partitioning="hive",
            ignore_prefixes=["_", "."],
        )
        fragments = list(found.get_fragments())
        # hive columns: the keys of the fragments' partition expressions
        named = {k for f in fragments for k in pads.get_partition_keys(f.partition_expression)}
        keys = pa.schema([f for f in found.schema if f.name in named])
        if any(not pa.types.is_string(t) for t in keys.types):
            # hive values stay strings, as ray.data.read_parquet reads them
            found = pads.dataset(
                found.files,
                filesystem=fs,
                format="parquet",
                partitioning=pads.HivePartitioning(
                    pa.schema([(name, pa.string()) for name in keys.names])
                ),
                partition_base_dir=paths[0] if isinstance(path, str) else "",
            )
            fragments = list(found.get_fragments())
        self._schema = found.schema
        self._keys = keys.names
        self._fragments = fragments
        self.sizes = [f.size for f in fs.get_file_info(found.files)]
        self._columns = columns

    @property
    def schema(self) -> pa.Schema:
        """The dataset schema, projected to the read's columns."""
        if self._columns is None:
            return self._schema
        return pa.schema(
            [self._schema.field(c) for c in self._columns], self._schema.metadata
        )

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        """The files' bytes on disk (no sampling: a lower bound of the
        decoded size)."""
        return sum(self.sizes)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        read_schema = self.schema
        tasks = []
        for lo, hi in _byte_runs(self.sizes, parallelism):
            frags = self._fragments[lo:hi]
            meta = BlockMetadata(
                num_rows=None,
                size_bytes=sum(self.sizes[lo:hi]),
                input_files=[f.path for f in frags],
                exec_stats=None,
            )
            read = functools.partial(
                _read_run, frags, self._schema, self._columns, self._keys
            )
            tasks.append(ReadTask(read, meta, schema=read_schema))
        return tasks


def _read_run(
    frags: list, schema: pa.Schema, columns: list[str] | None, keys: list[str]
) -> list[pa.Table]:
    """One read task: its files in order, as one table of the dataset
    ``schema`` projected to ``columns``. A file that lacks a column of the
    read raises instead of reading as nulls (``keys`` are the hive columns,
    which come from the path)."""
    want = [c for c in (columns or schema.names) if c not in keys]
    tables = []
    for frag in frags:
        missing = [c for c in want if c not in frag.physical_schema.names]
        if missing:
            raise ValueError(f"{frag.path} has no column(s) {missing}")
        tables.append(frag.to_table(schema=schema, columns=columns, use_threads=False))
    return [pa.concat_tables(tables)]


def _resolve_paths(path: str | list[str]) -> tuple[pafs.FileSystem, list[str]]:
    """One filesystem and the paths on it of a path, URI or list of them."""
    resolved = [_resolve(p) for p in ([path] if isinstance(path, str) else path)]
    if not resolved:
        raise ValueError("no input paths given")
    return resolved[0][0], [p for _, p in resolved]


def _byte_runs(sizes: list[int], n: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` bounds of ``min(n, len(sizes))`` non-empty contiguous
    runs of files of about equal bytes: run ``k`` starts at the first file
    whose midpoint lies past ``k/n`` of the total."""
    count = len(sizes)
    n = min(n, count)
    if n <= 1:
        return [(0, count)] if count else []
    size = np.asarray(sizes, np.float64)
    cum = np.cumsum(size)
    k = np.arange(1, n)
    starts = np.searchsorted(cum - size / 2, cum[-1] * k / n, side="right")
    # strictly increasing and leaving each later run at least one file
    starts = np.maximum.accumulate(np.clip(starts, k, count - n + k) - k) + k
    bounds = [0, *starts.tolist(), count]
    return list(zip(bounds, bounds[1:]))


def read_files(path: str | list[str], columns: list[str] | None = None) -> ray.data.Dataset:
    """Read any Parquet table: a file, a directory of files or a list of
    them. The engine reads all its Parquet through here: the ``files(repo,
    path, commit, lang, content)`` corpora, and its caches, checkpoints
    and embeddings.

    The read is planned from one listing (:class:`_ParquetFiles`): no Ray
    task runs before the read tasks themselves, and building the Dataset
    knows its schema. At 1 CPU, building the read and asking its schema
    takes ~2 ms on either perfbench corpus (median of 10), against 32 ms
    (planted) and 21 ms (hot-families) for ``ray.data.read_parquet``,
    whose sampling tasks run before its first read task. The block count comes from
    ``util.default_read_blocks``: 8 per CPU on a multi-CPU cluster (the
    measured knee that leaves the signature stage no straggler tail); on
    one CPU one block per ``READ_BLOCK_BYTES`` of input, at most 8, so a
    small corpus pays few per-block tasks. With fewer files than blocks,
    Ray splits each read task's output to reach the count.
    """
    source = _ParquetFiles(path, columns)
    return ray.data.read_datasource(
        source, override_num_blocks=default_read_blocks(sum(source.sizes))
    )


def _normalize_files_schema(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Coerce an ingested table to the canonical ``files`` schema: required
    columns present (missing ones raise — a corpus without content is a
    config error, matching F4's fail-fast validation), ``content`` cast to
    string (CSV/JSON readers may infer null-typed or binary columns on
    sparse shards)."""

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
    keys = the files columns) — same discovery (sidecar files skipped, see
    ``_data_files``) and parallelism as the Parquet reader; schema
    normalized to the canonical shape."""
    paths, fs = _data_files(path)
    ds = ray.data.read_json(
        paths, filesystem=fs, override_num_blocks=default_read_blocks(input_bytes(path))
    )
    return _normalize_files_schema(ds)


def read_files_csv(path: str) -> ray.data.Dataset:
    """Read a ``files`` corpus from CSV shards (header row, the files
    columns). Note CSV cannot represent embedded newlines portably across
    writers — prefer Parquet/JSONL for real corpora; this exists so a user
    ingesting legacy CSV listings gets the same pipeline surface. A
    directory is read without its sidecar files (``_data_files``)."""
    paths, fs = _data_files(path)
    ds = ray.data.read_csv(
        paths, filesystem=fs, override_num_blocks=default_read_blocks(input_bytes(path))
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
    ds = read_files(path, columns=["doc_id", "text", "lang", "source"])
    ds = ds.map_batches(_docs_to_files, batch_format="pyarrow")
    if columns:
        ds = ds.select_columns(columns)
    return ds
