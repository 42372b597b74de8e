"""Line-level (paragraph) exact dedup across the corpus — the C4 / CCNet
training-data operator family: find lines duplicated across documents and
compute, per document, how many lines survive "keep only the first
occurrence" dedup.

Semantics (chosen to be exactly SQL-expressible so the DuckDB oracle can
verify value-for-value):

- a document's lines are its ``'\\n'``-split segments (no trimming; an
  empty text yields one empty line, matching ``string_split``);
- a line is *dedupable* iff its character length ≥ ``min_line_chars``
  (shorter lines — blank lines, braces, separators — are never dropped);
- a dedupable line occurring in more than one document is kept only in the
  document with the MINIMUM doc_id (the "keeper"); every occurrence in any
  other document is dropped. Within the keeper document all occurrences
  are kept (within-doc repetition is a quality signal, not dedup —
  see ``repetition`` stats in :mod:`europa_ray.pipelines.textstats`).

100-TB shape: ONE corpus scan explodes each document into per-(doc, line)
partial counts — pre-aggregated inside ``map_batches`` (a document lives in
one row, so per-doc counts are complete per batch: the combiner pattern
with zero shuffle) — and content never enters a shuffle: only 64-hex line
digests + counts (~90 B/row) move. The global line-frequency table is an
aggregate over that stream; the drop set (lines seen in >1 doc) is ≪ the
distinct-line table and is broadcast back when small, joined when not.
Size-dispatched like every sibling pipeline: a driver fast path under
``driver_max_rows`` (vectorized np.lexsort group-count), a distributed
groupby/join fallback above it, equivalence-tested at forced budget 0.

Reference parity: the reference dedups whole files by content hash
(``/root/reference/Api/Implementations/DuplicatesByHash/
DuplicateByHashFinder.cs:29-77``); this operator applies the same
hash-group-keep-first semantics at line granularity, the unit used by C4
(Raffel et al., JMLR 2020, §2.2 "we discarded all but one of any
three-sentence span occurring more than once") and CCNet (Wenzek et al.,
LREC 2020, paragraph-hash dedup).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from europa_ray.util import hash_join, sha256_hex_arrow

DEFAULT_MIN_LINE_CHARS = 30

_ROWS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("line_sha", pa.string()),
        pa.field("occ", pa.int64()),
        pa.field("n_lines", pa.int64()),
    ]
)


def _explode_lines(
    batch: pa.Table,
    *,
    min_line_chars: int = DEFAULT_MIN_LINE_CHARS,
    text_col: str = "content",
    id_col: str = "doc_id",
) -> pa.Table:
    """One row per (doc, distinct dedupable line): ``occ`` = occurrences of
    that line within the doc; plus one marker row (``line_sha=""``,
    ``occ=0``) per doc with zero dedupable lines, so every document reaches
    the per-doc aggregation. ``n_lines`` (ALL lines, dedupable or not) rides
    along on every row of its doc. Null-content rows are excluded (oracle
    ``WHERE text IS NOT NULL``)."""
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    valid = pc.is_valid(col)
    col = col.filter(valid)
    ids_np = ids.filter(valid).to_numpy().astype(np.int64)

    split = pc.split_pattern(col, "\n")
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    n_lines = pc.list_value_length(split).cast(pa.int64()).to_numpy()
    flat = split.flatten()
    lens = pc.utf8_length(flat).to_numpy() if len(flat) else np.empty(0, np.int64)
    row_of = np.repeat(np.arange(ids_np.shape[0], dtype=np.int64), n_lines)

    dedupable = lens >= min_line_chars
    drow = row_of[dedupable]
    dlines = flat.filter(pa.array(dedupable))
    shas = (
        np.asarray(sha256_hex_arrow(dlines), dtype="S64")
        if len(dlines)
        else np.empty(0, dtype="S64")
    )
    # occurrence counts per (row, sha): one lexsort over the flat line
    # stream + run-length boundaries — no per-row Python
    order = np.lexsort((shas, drow))
    rs, rr = shas[order], drow[order]
    new = np.ones(rs.shape[0], dtype=bool)
    new[1:] = (rr[1:] != rr[:-1]) | (rs[1:] != rs[:-1])
    starts = np.nonzero(new)[0]
    occ = np.diff(np.concatenate([starts, [rs.shape[0]]]))

    has_dedupable = np.zeros(ids_np.shape[0], dtype=bool)
    has_dedupable[drow] = True
    marker_rows = np.nonzero(~has_dedupable)[0]

    out_doc = np.concatenate([ids_np[rr[starts]], ids_np[marker_rows]])
    out_sha = np.concatenate(
        [rs[starts].astype("U64"), np.full(marker_rows.shape[0], "", dtype=object)]
    ).astype(object)
    out_occ = np.concatenate(
        [occ.astype(np.int64), np.zeros(marker_rows.shape[0], dtype=np.int64)]
    )
    out_nl = np.concatenate([n_lines[rr[starts]], n_lines[marker_rows]])
    return pa.table(
        {
            "doc_id": pa.array(out_doc, pa.int64()),
            "line_sha": pa.array(out_sha, pa.string()),
            "occ": pa.array(out_occ, pa.int64()),
            "n_lines": pa.array(out_nl, pa.int64()),
        }
    )


def _line_rows(
    files: ray.data.Dataset, *, min_line_chars: int, text_col: str, id_col: str
) -> ray.data.Dataset:
    return files.map_batches(
        _explode_lines,
        fn_kwargs={
            "min_line_chars": min_line_chars,
            "text_col": text_col,
            "id_col": id_col,
        },
        batch_format="pyarrow",
    )


def _gather_rows(
    rows: ray.data.Dataset, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Driver gather of the (doc, sha, occ, n_lines) stream, or None above
    ``budget`` rows (→ caller takes the distributed path)."""
    doc_p: list[np.ndarray] = []
    sha_p: list[np.ndarray] = []
    occ_p: list[np.ndarray] = []
    nl_p: list[np.ndarray] = []
    total = 0
    for b in rows.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        total += b.num_rows
        if total > budget:
            return None
        doc_p.append(b["doc_id"].to_numpy())
        sha_p.append(b["line_sha"].to_numpy(zero_copy_only=False).astype("S64"))
        occ_p.append(b["occ"].to_numpy())
        nl_p.append(b["n_lines"].to_numpy())
    if not doc_p:
        return (
            np.empty(0, np.int64),
            np.empty(0, dtype="S64"),
            np.empty(0, np.int64),
            np.empty(0, np.int64),
        )
    return (
        np.concatenate(doc_p),
        np.concatenate(sha_p),
        np.concatenate(occ_p),
        np.concatenate(nl_p),
    )


def _sha_groups(
    doc: np.ndarray, sha: np.ndarray, occ: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the real (occ>0) rows by sha. Returns (rd, rs, ro) sorted by
    (sha, doc) plus per-group (starts, n_docs, n_occ). min_doc per group is
    ``rd[starts]`` (doc is the secondary sort key)."""
    real = occ > 0
    rd, rs, ro = doc[real], sha[real], occ[real]
    order = np.lexsort((rd, rs))
    rd, rs, ro = rd[order], rs[order], ro[order]
    new = np.ones(rs.shape[0], dtype=bool)
    if rs.shape[0]:
        new[1:] = rs[1:] != rs[:-1]
    starts = np.nonzero(new)[0]
    n_docs = np.diff(np.concatenate([starts, [rs.shape[0]]]))
    n_occ = (
        np.add.reduceat(ro, starts) if rs.shape[0] else np.empty(0, np.int64)
    )
    return rd, rs, ro, starts, n_docs, n_occ


def line_dup_stats(
    files: ray.data.Dataset,
    *,
    min_line_chars: int = DEFAULT_MIN_LINE_CHARS,
    text_col: str = "content",
    id_col: str = "doc_id",
    driver_max_rows: int = 50_000_000,
    num_partitions: int | None = None,
):
    """Global duplicate-line table: (line_sha, n_occ, n_docs) for every
    dedupable line occurring more than once in the corpus (across OR within
    documents), sorted by line_sha."""
    rows = _line_rows(
        files, min_line_chars=min_line_chars, text_col=text_col, id_col=id_col
    )
    gathered = _gather_rows(rows, driver_max_rows)
    if gathered is not None:
        doc, sha, occ, _nl = gathered
        _rd, rs, _ro, starts, n_docs, n_occ = _sha_groups(doc, sha, occ)
        dup = n_occ > 1
        return pa.table(
            {
                "line_sha": pa.array(rs[starts][dup].astype("U64").astype(object), pa.string()),
                "n_occ": pa.array(n_occ[dup], pa.int64()),
                "n_docs": pa.array(n_docs[dup], pa.int64()),
            }
        )  # starts are sha-sorted → output already line_sha-ordered

    agg = _sha_agg(rows)
    return (
        agg.filter(expr="n_occ > 1")
        .select_columns(["line_sha", "n_occ", "n_docs"])
        .sort("line_sha")
    )


def _sha_agg(rows: ray.data.Dataset) -> ray.data.Dataset:
    """Distributed per-line aggregate over the real rows: (line_sha, n_docs,
    n_occ, min_doc), materialized (one row per distinct dedupable line —
    aggregate-sized relative to the corpus, lives in the object store)."""
    from ray.data.aggregate import Count, Min, Sum

    real = rows.filter(expr="occ > 0")
    return (
        real.groupby("line_sha")
        .aggregate(Count(), Sum("occ"), Min("doc_id"))
        .rename_columns(
            {"count()": "n_docs", "sum(occ)": "n_occ", "min(doc_id)": "min_doc"}
        )
        .map_batches(_cast_agg_int64, batch_format="pyarrow")
        .materialize()
    )


def _cast_agg_int64(b: pa.Table) -> pa.Table:
    for c in ("n_docs", "n_occ", "min_doc"):
        b = b.set_column(b.column_names.index(c), c, b[c].cast(pa.int64()))
    return b


def line_dedup_stats(
    files: ray.data.Dataset,
    *,
    min_line_chars: int = DEFAULT_MIN_LINE_CHARS,
    text_col: str = "content",
    id_col: str = "doc_id",
    driver_max_rows: int = 50_000_000,
    num_partitions: int | None = None,
):
    """Per-document keep/drop accounting under first-doc-wins line dedup:
    (doc_id, n_lines, n_kept, n_dropped), sorted by doc_id. ``n_lines``
    counts ALL lines; only dedupable lines whose keeper is a smaller doc_id
    are dropped."""
    rows = _line_rows(
        files, min_line_chars=min_line_chars, text_col=text_col, id_col=id_col
    )
    gathered = _gather_rows(rows, driver_max_rows)
    if gathered is not None:
        doc, sha, occ, nl = gathered
        rd, rs, ro, starts, n_docs, _n_occ = _sha_groups(doc, sha, occ)
        gid = (np.cumsum(np.concatenate([[True], rs[1:] != rs[:-1]])) - 1) if rs.shape[0] else np.empty(0, np.int64)
        min_doc = rd[starts] if starts.shape[0] else np.empty(0, np.int64)
        dropped = (n_docs[gid] > 1) & (rd != min_doc[gid]) if rs.shape[0] else np.empty(0, bool)
        drop_occ = np.where(dropped, ro, 0)
        udoc, uidx = np.unique(doc, return_index=True)
        n_lines = nl[uidx]
        nd = np.zeros(udoc.shape[0], dtype=np.int64)
        if rd.shape[0]:
            np.add.at(nd, np.searchsorted(udoc, rd), drop_occ)
        return pa.table(
            {
                "doc_id": pa.array(udoc, pa.int64()),
                "n_lines": pa.array(n_lines, pa.int64()),
                "n_kept": pa.array(n_lines - nd, pa.int64()),
                "n_dropped": pa.array(nd, pa.int64()),
            }
        )  # np.unique → doc_id-sorted

    # --- distributed fallback ---
    from europa_ray.util import scrub_empty_blocks

    rows = rows.materialize()  # two consumers: doc-line counts + drop join
    # hash-shuffle groupby outputs can carry Ray 2.49 zero-column empty
    # blocks (tiny/skewed partitions) that poison downstream joins on
    # either side — scrub every groupby-descended join input
    doclines = scrub_empty_blocks(
        rows.groupby("doc_id")
        .max("n_lines")
        .rename_columns({"max(n_lines)": "n_lines"})
        .materialize(),
        pa.schema(
            [pa.field("doc_id", pa.int64()), pa.field("n_lines", pa.int64())]
        ),
    )
    agg = _sha_agg(rows)
    dropmap = scrub_empty_blocks(
        agg.filter(expr="n_docs > 1")
        .select_columns(["line_sha", "min_doc"])
        .materialize(),
        pa.schema(
            [pa.field("line_sha", pa.string()), pa.field("min_doc", pa.int64())]
        ),
    )
    if dropmap.count() == 0:
        return doclines.map_batches(_zero_drop_final, batch_format="pyarrow").sort("doc_id")
    real = rows.filter(expr="occ > 0")
    cand = hash_join(real, dropmap, "inner", ("line_sha",), num_partitions=num_partitions)
    dropped = cand.map_batches(
        lambda b: b.filter(pc.not_equal(b["doc_id"], b["min_doc"])),
        batch_format="pyarrow",
    )
    dsum = (
        dropped.groupby("doc_id")
        .sum("occ")
        .rename_columns({"sum(occ)": "n_dropped"})
    )
    zeros = doclines.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"],
                "n_dropped": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
            }
        ),
        batch_format="pyarrow",
    )
    alldrop = scrub_empty_blocks(
        dsum.union(zeros)
        .groupby("doc_id")
        .sum("n_dropped")
        .rename_columns({"sum(n_dropped)": "n_dropped"})
        .materialize(),
        pa.schema(
            [pa.field("doc_id", pa.int64()), pa.field("n_dropped", pa.int64())]
        ),
    )
    final = hash_join(doclines, alldrop, "inner", ("doc_id",), num_partitions=num_partitions)
    return final.map_batches(_finalize_dedup_stats, batch_format="pyarrow").sort("doc_id")


def _zero_drop_final(b: pa.Table) -> pa.Table:
    nl = b["n_lines"].cast(pa.int64())
    z = pa.array(np.zeros(b.num_rows, dtype=np.int64))
    return pa.table(
        {"doc_id": b["doc_id"], "n_lines": nl, "n_kept": nl, "n_dropped": z}
    )


def _finalize_dedup_stats(b: pa.Table) -> pa.Table:
    nl = b["n_lines"].cast(pa.int64())
    nd = b["n_dropped"].cast(pa.int64())
    return pa.table(
        {
            "doc_id": b["doc_id"],
            "n_lines": nl,
            "n_kept": pc.subtract(nl, nd),
            "n_dropped": nd,
        }
    )
