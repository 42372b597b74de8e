"""Exact duplicate detection — SURVEY.md §3.1 re-expressed Ray-Data-first.

Reference pipeline (``/root/reference/Api/Implementations/DuplicatesByHash/
DuplicateByHashFinder.cs:29-77``): hash every file, group by digest, keep
groups with >1 member, order members within group, emit clusters.

Engine shape::

    read_files → filters → map_batches(sha256, drop content) → materialize
        → count digests (block refs gathered, one driver sort of 32-byte
          keys; groupby(sha256).count above DRIVER_MAX_KEYS) → keep n>1
        → attach n_members to members (one raw task per block)
        → sort(cluster_id, *id_cols) → clusters

So below ``DRIVER_MAX_KEYS`` the job is ONE Ray Data run (the fused read +
filter + hash) plus one raw task per block, and nothing else whose cost
grows with the number of calls: at 1 CPU the 12k-file planted benchmark
corpus reads as one block, its read plans no sampling task, and the
attach starts no second executor run.

The final sort is size-dispatched (``util.sort_block_results`` /
``util.sort_result``): a small result is sorted on the driver into one
block, a large one by ``Dataset.sort``; both give the same row order.

Only *metadata + digest* rows ever enter the shuffle — content is projected
away in the hash stage, so the groupby moves ~100 bytes/row regardless of
file size (the 100 TB design constraint). The "keep groups >1" step is a
count-aggregate + hash join rather than ``map_groups`` so no per-group Python
function runs over millions of singleton groups.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from europa_ray.config import DEFAULT_CONFIG, EngineConfig
from europa_ray.stages.filters import apply_filters
from europa_ray.stages.hash_stage import add_prefix_key, add_sha256
from europa_ray.util import (
    block_tasks,
    dataset_block_refs,
    hash_join,
    hex_to_u256_arrow,
    sort_block_results,
    sort_result,
)

# Digest rows gathered to the driver for counting; above it the counts run
# as a distributed groupby.
DRIVER_MAX_KEYS = 100_000_000


def _empty_like(
    ds: ray.data.Dataset,
    extra: dict[str, pa.DataType] | None = None,
    fallback: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Zero-row Dataset with ``ds``'s schema plus ``extra`` columns.

    ``fallback`` covers the schema-less case: a materialized Dataset whose
    upstream stages dropped EVERY row reports ``schema() is None`` (Ray
    2.49), e.g. a corpus whose files are all filtered/empty."""
    got = ds.schema()
    schema = got.base_schema if got is not None else fallback
    if schema is None:
        schema = pa.schema([])
    for name, typ in (extra or {}).items():
        schema = schema.append(pa.field(name, typ))
    return ray.data.from_arrow(schema.empty_table())


def _hashed_fallback_schema(
    files: ray.data.Dataset, id_cols: tuple[str, ...]
) -> pa.Schema | None:
    """Schema the hash stage WOULD have produced, derived from the input
    dataset (used only when zero rows survive to the hash stage)."""
    got = files.schema()
    if got is None:
        return None
    base = got.base_schema
    fields = [base.field(c) for c in id_cols if c in base.names]
    fields += [pa.field("sha256", pa.string()), pa.field("size", pa.int64())]
    return pa.schema(fields)


def _dup_sha_counts(hashed: ray.data.Dataset) -> ray.data.Dataset:
    """(sha256, n_members) for digests appearing more than once (A1/A7:
    singleton suppression, ``DuplicateByHashFinder.cs:52,73``).

    The result is materialized: it is aggregate-sized (one row per *duplicated*
    digest, ≪ corpus), lives in the object store (not the driver), and
    materializing sidesteps a Ray 2.49 hash-shuffle planning bug where a
    pipelined groupby→filter→join diamond loses the right side's schema in
    empty aggregator partitions.
    """
    counts = hashed.groupby("sha256").count().rename_columns({"count()": "n_members"})
    return counts.filter(expr="n_members > 1").materialize()


def exact_dup_clusters(
    files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    id_cols: tuple[str, ...] = ("repo", "path", "commit"),
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Cluster table: one row per member of each exact-duplicate group.

    Columns: ``cluster_id`` (= sha256 hex, canonical), ``sha256``,
    ``n_members``, plus ``id_cols``. Deterministically sorted — the reference
    emits groups in nondeterministic channel order (SURVEY.md K3); we sort for
    reproducible golden tests.
    """
    import ray

    ds = apply_filters(files, cfg)
    hashed = ds.map_batches(
        add_sha256, fn_kwargs={"keep_cols": id_cols}, batch_format="pyarrow"
    )
    if cfg.two_pass:
        hashed = _two_pass_filter(files, hashed, cfg, id_cols)
    # content is dropped in the hash stage, so this is the ~100 B/row
    # metadata+digest table: materialize once instead of re-reading and
    # re-hashing the corpus for the attach pass (2 consumers)
    hashed = hashed.materialize()

    # --- duplicate detection, size-dispatched like duplicated_keys ---
    # Driver path (≤ DRIVER_MAX_KEYS digests): gather the FULL 256-bit
    # digest as a 32-byte key (_digest_keys; vectorized nibble decode, no
    # Python strings), one np.sort for counts — replaces a
    # string-keyed hash-shuffle groupby whose fixed aggregator startup
    # dominates small/medium corpora. Full-digest keys make this path
    # digest-exact like the distributed fallback: a 64-bit prefix collision
    # between distinct contents can never fabricate a false cluster.
    # The gather reads the materialized blocks one at a time by ref: an
    # iter_batches over them would start a full executor run (one
    # projection task per block, ~15 ms each at 1 CPU). The members are
    # attached by one raw task per block (_attach), not a second executor
    # run, and sorted from their byte sizes (util.sort_block_results).
    node_parts: list[np.ndarray] = []
    total = 0
    over = False
    empty = None
    for ref in dataset_block_refs(hashed):
        block = ray.get(ref)
        total += block.num_rows
        if total > DRIVER_MAX_KEYS:
            over = True
            break
        if block.num_rows:  # zero-row join blocks may carry no columns
            node_parts.append(_digest_keys(block["sha256"]))
            empty = block.schema.empty_table()
        del block

    if not over:
        if not node_parts:
            return _empty_like(
                hashed,
                extra={"n_members": pa.int64(), "cluster_id": pa.string()},
                fallback=_hashed_fallback_schema(files, id_cols),
            )
        nodes = np.sort(np.concatenate(node_parts))
        dup_mask = np.zeros(nodes.shape[0], dtype=bool)
        dup_mask[1:] = nodes[1:] == nodes[:-1]
        dup_sorted, dup_counts = np.unique(nodes[dup_mask], return_counts=True)
        if dup_sorted.shape[0] == 0:
            return _empty_like(
                hashed,
                extra={"n_members": pa.int64(), "cluster_id": pa.string()},
                fallback=_hashed_fallback_schema(files, id_cols),
            )
        dup_counts = dup_counts + 1  # unique() over the dup stream drops 1st occurrence
        outs = block_tasks(
            hashed, _attach, dup_sorted, dup_counts, empty, num_returns=2
        )
        return sort_block_results(outs, ["cluster_id", *id_cols])

    # --- distributed fallback: string-keyed count-aggregate + join ---
    dups = _dup_sha_counts(hashed)
    n_dups = dups.count()
    if n_dups == 0:
        # Zero duplicate groups: short-circuit (a zero-row join side crashes
        # Ray 2.49's hash-shuffle with schema-less empty partitions, and the
        # answer is known anyway).
        return _empty_like(
            hashed,
            extra={"n_members": pa.int64(), "cluster_id": pa.string()},
            fallback=_hashed_fallback_schema(files, id_cols),
        )
    members = hash_join(
        hashed, dups, "inner", ("sha256",), num_partitions=num_partitions
    ).map_batches(
        lambda b: b.append_column("cluster_id", b["sha256"]), batch_format="pyarrow"
    )
    return sort_result(members, ["cluster_id", *id_cols])


def _digest_keys(col) -> np.ndarray:
    """Full sha256 digests of a hex column as 32-byte ``V32`` keys: byte
    equality is digest equality, and NumPy sorts the opaque 32 bytes about
    4× faster than the 4-field ``U256_DTYPE``, which it compares field by
    field (12k random digests: 3.3 ms against 13.6 ms). The byte order is
    not the numeric order, so the keys stay internal to the digest count
    and :func:`_attach`."""
    return hex_to_u256_arrow(col).view("V32")


def _attach(
    block: pa.Table, dup_keys: np.ndarray, dup_counts: np.ndarray, empty: pa.Table
) -> tuple[pa.Table, int]:
    """One hashed block's rows whose digest is duplicated, with
    ``n_members`` and ``cluster_id`` appended, and their byte size. Every
    block gives the member schema: a zero-row join block without columns
    is read as ``empty`` (the hashed schema)."""
    if "sha256" not in block.column_names:
        block = empty
    keys = _digest_keys(block["sha256"])
    idx = np.searchsorted(dup_keys, keys)
    idx[idx >= dup_keys.shape[0]] = 0
    hit = dup_keys[idx] == keys
    out = block.append_column(
        "n_members", pa.array(np.where(hit, dup_counts[idx], 0), pa.int64())
    ).append_column("cluster_id", block["sha256"])
    out = out.filter(pa.array(hit))
    return out, out.nbytes


def _two_pass_filter(files, hashed, cfg: EngineConfig, id_cols):
    """Two-pass pruning (A2, ``DuplicateByHashFinder.cs:42-76``).

    Pass 1 groups on the cheap ``(size, 10%-prefix-sha)`` key; only members of
    pass-1 groups with >1 member proceed to the full-hash grouping. In the
    reference this saves IO (90% of bytes unhashed for unique files); here it
    is correctness-neutral (tested) and kept for semantic parity. The
    surviving-key set is an aggregate (one row per *duplicate-candidate* key,
    ≪ corpus), joined back — not broadcast — so it scales.
    """
    pass1 = files.map_batches(add_prefix_key, batch_format="pyarrow")
    survivors = (
        pass1.groupby("prefix_key")
        .count()
        .rename_columns({"count()": "pk_n"})
        .filter(expr="pk_n > 1")
        .materialize()  # aggregate-sized; see _dup_sha_counts note
    )
    if survivors.count() == 0:
        return _empty_like(hashed, fallback=_hashed_fallback_schema(files, id_cols))
    keyed = (
        hash_join(pass1, survivors, "inner", ("prefix_key",))
        .select_columns(list(id_cols))
        .materialize()  # duplicate-candidate members only; see _dup_sha_counts note
    )
    # Semi-join the fully-hashed rows down to pass-1 survivors on identity.
    return hash_join(hashed, keyed, "inner", tuple(id_cols))


def dedup_representatives(
    files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    id_col: str = "path",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """The training-data 'exact dedup' op: one representative row per distinct
    content (minimum ``id_col``), i.e. the deduplicated dataset manifest.
    Output: (sha256, id_col) sorted by sha256."""
    ds = apply_filters(files, cfg)
    hashed = ds.map_batches(
        add_sha256, fn_kwargs={"keep_cols": (id_col,)}, batch_format="pyarrow"
    )
    agg = hashed.groupby("sha256").min(id_col)
    return sort_result(agg.rename_columns({f"min({id_col})": id_col}), ["sha256"])


def dedup_report(
    files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    group_col: str = "repo",
    driver_max_rows: int = 100_000_000,
    num_partitions: int | None = None,
) -> ray.data.Dataset | pa.Table:
    """Per-``group_col`` exact-dedup report card: how much of each group is
    duplicate mass — the accounting a corpus ingest publishes before/after
    dedup. Columns: ``(group_col, n_files, n_distinct, dup_rows,
    dup_rate_ppm)`` where counts are WITHIN-group (a file duplicated across
    two repos is distinct in each) and ``dup_rate_ppm`` is integer
    ``floor(dup_rows * 1e6 / n_files)``. Rows are ordered by group; a null
    group is kept and ordered last, as DuckDB's ``GROUP BY``/``ORDER BY``.

    Driver path (raw metadata rows ≤ ``driver_max_rows``): one streamed
    gather + structured numpy sort (a cold hash-shuffle groupby pays tens
    of seconds of aggregator startup a small corpus never amortizes — the
    same dispatch as ``exact_dup_clusters``). Above the budget: two
    metadata-only shuffles (``groupby(group, sha256)`` distinct then the
    group roll-up) — content never moves on either path.
    """
    ds = apply_filters(files, cfg)
    hashed = ds.map_batches(
        add_sha256, fn_kwargs={"keep_cols": (group_col,)}, batch_format="pyarrow"
    ).select_columns([group_col, "sha256"])

    group_p: list[pa.Array] = []
    sha_p: list[np.ndarray] = []
    total = 0
    over = False
    for b in hashed.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        total += b.num_rows
        if total > driver_max_rows:
            over = True
            break
        group_p.extend(b[group_col].cast(pa.string()).chunks)
        sha_p.append(hex_to_u256_arrow(b["sha256"]))

    if not over:
        if not sha_p:
            return pa.table(
                {
                    group_col: pa.array([], pa.string()),
                    "n_files": pa.array([], pa.int64()),
                    "n_distinct": pa.array([], pa.int64()),
                    "dup_rows": pa.array([], pa.int64()),
                    "dup_rate_ppm": pa.array([], pa.int64()),
                }
            )
        shas = np.concatenate(sha_p)
        names, codes = _string_codes(pa.chunked_array(group_p, pa.string()))
        nf = np.bincount(codes, minlength=len(names)).astype(np.int64)
        rec = np.empty(codes.shape[0], dtype=[("c", np.int64), ("s", shas.dtype)])
        rec["c"] = codes
        rec["s"] = shas
        rec = np.unique(rec)
        ndist = np.bincount(rec["c"], minlength=len(names)).astype(np.int64)
        dup = nf - ndist
        ppm = np.zeros(nf.shape[0], np.int64)
        nz = nf > 0
        ppm[nz] = (dup[nz] * 1_000_000) // nf[nz]
        return pa.table(
            {
                group_col: names,
                "n_files": pa.array(nf, pa.int64()),
                "n_distinct": pa.array(ndist, pa.int64()),
                "dup_rows": pa.array(dup, pa.int64()),
                "dup_rate_ppm": pa.array(ppm, pa.int64()),
            }
        )

    import ray.data.aggregate as agg

    # a null group is keyed as ("", <group_col>_null=True), see _flag_null
    flag = f"{group_col}_null"
    per_digest = (
        hashed.map_batches(_flag_null, fn_kwargs={"col": group_col}, batch_format="pyarrow")
        .groupby([flag, group_col, "sha256"])
        .count()
        .rename_columns({"count()": "n_rows"})
    )
    rolled = (
        per_digest.groupby([flag, group_col])
        .aggregate(agg.Sum("n_rows"), agg.Count())
        .rename_columns({"sum(n_rows)": "n_files", "count()": "n_distinct"})
    )

    def finish(batch: pa.Table) -> pa.Table:
        nf = batch["n_files"].to_numpy().astype(np.int64)
        ndist = batch["n_distinct"].to_numpy().astype(np.int64)
        dup = nf - ndist
        ppm = np.zeros(nf.shape[0], np.int64)
        nz = nf > 0
        ppm[nz] = (dup[nz] * 1_000_000) // nf[nz]
        return pa.table(
            {
                group_col: _unflag_null(batch, group_col),
                "n_files": pa.array(nf, pa.int64()),
                "n_distinct": pa.array(ndist, pa.int64()),
                "dup_rows": pa.array(dup, pa.int64()),
                "dup_rate_ppm": pa.array(ppm, pa.int64()),
            }
        )

    return sort_result(rolled.map_batches(finish, batch_format="pyarrow"), [group_col])


def cross_corpus_new_docs(
    new_files: ray.data.Dataset,
    reference_files: ray.data.Dataset,
    *,
    id_col: str = "path",
    broadcast_max_digests: int = 20_000_000,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Cross-corpus exact dedup: rows of ``new_files`` whose content sha256
    does NOT appear in ``reference_files`` — the "don't re-ingest what the
    training set already has" pass (the corpus-level form of the
    reference's cached-signature skip, ``QdrantRepository.cs:82-103``).

    The reference side is reduced to its DISTINCT digest set first (one
    groupby — at 100 TB the digest set is 32 B per distinct content as a
    sorted structured-u256 key array, ≪ corpus). Below
    ``broadcast_max_digests`` that array is broadcast (one zero-copy plasma
    object per node) and applied as a vectorized searchsorted anti-join
    filter; above it, a distributed left-outer marker join takes over
    (forced-budget-0 equivalence tested). Output: (id_col, sha256).
    """
    import pyarrow.compute as pc

    ref_digests = (
        reference_files.map_batches(
            add_sha256, fn_kwargs={"keep_cols": ()}, batch_format="pyarrow"
        )
        .groupby("sha256")
        .count()
        .select_columns(["sha256"])
        .materialize()
    )
    new_hashed = new_files.map_batches(
        add_sha256, fn_kwargs={"keep_cols": (id_col,)}, batch_format="pyarrow"
    )

    n_ref = ref_digests.count()
    if n_ref <= broadcast_max_digests:
        # broadcast the digest set as the 32 B/entry structured u256 key
        # (exact full-digest equality), not hex strings — a '<U64' numpy
        # array costs 256 B/entry plus transient pylist overhead, ~8× the
        # memory for the same information. The plasma copy is shared
        # per-node (zero-copy ray.get), so worst case at the default cap is
        # 20M × 32 B = 640 MB per node, not per worker.
        parts = [
            hex_to_u256_arrow(b["sha256"])
            for b in ref_digests.iter_batches(batch_format="pyarrow", batch_size=1 << 20)
        ]
        ref_keys = np.sort(np.concatenate(parts)) if parts else hex_to_u256_arrow(
            pa.array([], pa.string())
        )
        ref_arr = ray.put(ref_keys)

        def anti(batch: pa.Table) -> pa.Table:
            ref = ray.get(ref_arr)
            vals = hex_to_u256_arrow(batch["sha256"])
            if ref.shape[0] == 0:
                return batch.select([id_col, "sha256"])
            idx = np.minimum(np.searchsorted(ref, vals), ref.shape[0] - 1)
            keep = ref[idx] != vals
            return batch.select([id_col, "sha256"]).filter(pa.array(keep))

        return new_hashed.map_batches(anti, batch_format="pyarrow")

    marked = ref_digests.rename_columns({"sha256": "__ref_sha"}).add_column(
        "__seen", lambda df: np.ones(len(df), dtype=np.int8)
    ).materialize()
    # ref_digests descends from a shuffle: scrub Ray 2.49 zero-column
    # empty blocks before using as a join side (see util.scrub_empty_blocks)
    from europa_ray.util import scrub_empty_blocks as _scrub

    marked = _scrub(
        marked,
        pa.schema(
            [pa.field("__ref_sha", pa.string()), pa.field("__seen", pa.int8())]
        ),
    )
    joined = hash_join(
        new_hashed.select_columns([id_col, "sha256"]), marked, "left_outer", ("sha256",),
        right_on=("__ref_sha",), num_partitions=num_partitions,
    )

    def keep_unseen(batch: pa.Table) -> pa.Table:
        mask = pc.is_null(batch["__seen"])
        return batch.filter(mask).select([id_col, "sha256"])

    return joined.map_batches(keep_unseen, batch_format="pyarrow")


def cross_corpus_new_docs_bloom(
    new_files: ray.data.Dataset,
    reference_files: ray.data.Dataset,
    *,
    id_col: str = "path",
    bits_per_key: int = 12,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Bloom-prefiltered cross-corpus exact dedup — the 100-TB scale path of
    :func:`cross_corpus_new_docs`, EXACT output at any filter size.

    Above ``broadcast_max_digests`` the plain operator's only option is a
    distributed left-outer join that shuffles the ENTIRE new corpus's digest
    rows, even though almost every new row is typically new. Here a bloom
    filter over the reference digest set (``bits_per_key`` → 12 bits/key ≈
    0.31% FP at k=8; 1 B digests fit in 1.5 GB, 21× below the 32 B/key exact
    broadcast) is built distributed (tree OR-reduce) and probed per batch:
    rows the filter rejects are DEFINITELY new (no false negatives) and
    stream straight through with zero shuffle; only the maybe-dup survivors
    (true dups + FP rate of the rest) enter the exact anti-join. Equivalence
    with the exact path is forced-tiny-filter tested (a 1-bit/key bloom just
    sends more rows to the verify join — never a wrong answer).

    Design notes for the join stage: its LEFT side is the shrunken survivor
    set; its right side is still the full distinct-digest table (sharded by
    the groupby — never collected). See :mod:`europa_ray.stages.bloom`.
    """
    import pyarrow.compute as pc

    from europa_ray.stages.bloom import build_bloom, probe_batch

    ref_digests = (
        reference_files.map_batches(
            add_sha256, fn_kwargs={"keep_cols": ()}, batch_format="pyarrow"
        )
        .groupby("sha256")
        .count()
        .select_columns(["sha256"])
        .materialize()
    )
    n_ref = ref_digests.count()
    new_hashed = new_files.map_batches(
        add_sha256, fn_kwargs={"keep_cols": (id_col,)}, batch_format="pyarrow"
    )
    if n_ref == 0:
        return new_hashed.select_columns([id_col, "sha256"])

    bitmap, m_bits, n_hashes = build_bloom(
        ref_digests, n_ref, bits_per_key=bits_per_key
    )
    bitmap_ref = ray.put(bitmap)

    def split_definite(batch: pa.Table) -> pa.Table:
        maybe = probe_batch(batch, bitmap_ref, m_bits, n_hashes)
        return batch.select([id_col, "sha256"]).append_column(
            "__maybe", pa.array(maybe)
        )

    probed = new_hashed.map_batches(split_definite, batch_format="pyarrow").materialize()
    definite_new = probed.filter(expr="__maybe == False").select_columns(
        [id_col, "sha256"]
    )
    survivors = probed.filter(expr="__maybe == True").select_columns(
        [id_col, "sha256"]
    )
    if survivors.count() == 0:
        return definite_new

    marked = ref_digests.rename_columns({"sha256": "__ref_sha"}).add_column(
        "__seen", lambda df: np.ones(len(df), dtype=np.int8)
    ).materialize()
    # ref_digests descends from a shuffle: scrub Ray 2.49 zero-column
    # empty blocks before using as a join side (see util.scrub_empty_blocks)
    from europa_ray.util import scrub_empty_blocks as _scrub

    marked = _scrub(
        marked,
        pa.schema(
            [pa.field("__ref_sha", pa.string()), pa.field("__seen", pa.int8())]
        ),
    )
    joined = hash_join(
        survivors, marked, "left_outer", ("sha256",), right_on=("__ref_sha",),
        num_partitions=num_partitions,
    )

    def keep_unseen(batch: pa.Table) -> pa.Table:
        mask = pc.is_null(batch["__seen"])
        return batch.filter(mask).select([id_col, "sha256"])

    return definite_new.union(joined.map_batches(keep_unseen, batch_format="pyarrow"))


DUP_RATE_SCHEMA = pa.schema(
    [
        pa.field("lang", pa.string()),
        pa.field("n_docs", pa.int64()),
        pa.field("n_dup_docs", pa.int64()),
        pa.field("n_dup_groups", pa.int64()),
    ]
)


def _string_codes(values) -> tuple[pa.Array, np.ndarray]:
    """Distinct values of a string column, sorted with null LAST (DuckDB's
    ``GROUP BY g ORDER BY g`` keeps a null group and puts it there), and
    each row's index into them. ``np.unique`` cannot order None against
    strings."""
    import pyarrow.compute as pc

    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if not isinstance(values, pa.Array):
        values = pa.array(values, pa.string())
    enc = values.cast(pa.string()).dictionary_encode(null_encoding="encode")
    order = pc.sort_indices(enc.dictionary, null_placement="at_end").to_numpy()
    rank = np.empty(order.shape[0], np.int64)
    rank[order] = np.arange(order.shape[0])
    return enc.dictionary.take(order), rank[enc.indices.to_numpy()]


def _flag_null(b: pa.Table, col: str) -> pa.Table:
    """String column ``col`` as a key Ray 2.49's sort-based groupby accepts:
    its partition search cannot order a null string against strings, so a
    null is stored as ``""`` and told apart by the extra key ``<col>_null``
    (:func:`_unflag_null` reverses it)."""
    import pyarrow.compute as pc

    v = b[col]
    return b.set_column(
        b.column_names.index(col), col, pc.fill_null(v, "")
    ).append_column(f"{col}_null", pc.is_null(v))


def _unflag_null(b: pa.Table, col: str):
    """Column ``col`` of a :func:`_flag_null`-keyed table, nulls restored."""
    import pyarrow.compute as pc

    return pc.if_else(b[f"{col}_null"], pa.scalar(None, pa.string()), b[col])


def _lang_sha_partials(
    batch: pa.Table, *, text_col: str, lang_col: str
) -> pa.Table:
    """Per-batch (sha, lang, c) partial counts over nonempty content — the
    combiner that keeps the digest shuffle at distinct-(sha, lang) volume."""
    import pyarrow.compute as pc

    from europa_ray.util import sha256_hex_arrow

    empty = pa.table(
        {
            "sha": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "c": pa.array([], pa.int64()),
        }
    )
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    valid = pc.and_(pc.is_valid(col), pc.greater(pc.utf8_length(col), 0))
    col = col.filter(valid)
    if len(col) == 0:
        return empty
    lvals, lcode = _string_codes(batch[lang_col].filter(valid))
    shas = np.asarray(sha256_hex_arrow(col), dtype="S64")
    scodes_all, scode = np.unique(shas, return_inverse=True)
    key = scode.astype(np.int64) * len(lvals) + lcode
    uk, counts = np.unique(key, return_counts=True)
    return pa.table(
        {
            "sha": pa.array(
                scodes_all[uk // len(lvals)].astype("U64").astype(object),
                pa.string(),
            ),
            "lang": lvals.take(uk % len(lvals)),
            "c": pa.array(counts.astype(np.int64), pa.int64()),
        }
    )


def _dup_rate_table(
    shas: np.ndarray, langs: np.ndarray, cs: np.ndarray
) -> pa.Table:
    """Driver-path per-lang rollup over gathered (sha, lang, c) partials
    (may repeat (sha, lang) across batches)."""
    if shas.shape[0] == 0:
        return DUP_RATE_SCHEMA.empty_table()
    lvals, lcode = _string_codes(langs)
    n_langs = len(lvals)
    scodes_all, scode = np.unique(shas, return_inverse=True)
    key = scode.astype(np.int64) * n_langs + lcode
    order = np.argsort(key, kind="stable")
    k, c = key[order], cs[order]
    new = np.ones(k.shape[0], dtype=bool)
    new[1:] = k[1:] != k[:-1]
    starts = np.nonzero(new)[0]
    gk = k[starts]
    gc = np.add.reduceat(c, starts)
    gs, gl = gk // n_langs, gk % n_langs
    total = np.zeros(scodes_all.shape[0], np.int64)
    np.add.at(total, gs, gc)
    dup = total[gs] > 1
    n_docs = np.zeros(n_langs, np.int64)
    n_dup_docs = np.zeros(n_langs, np.int64)
    n_dup_groups = np.zeros(n_langs, np.int64)
    np.add.at(n_docs, gl, gc)
    np.add.at(n_dup_docs, gl[dup], gc[dup])
    np.add.at(n_dup_groups, gl[dup], 1)
    return pa.table(
        {
            "lang": lvals,
            "n_docs": pa.array(n_docs, pa.int64()),
            "n_dup_docs": pa.array(n_dup_docs, pa.int64()),
            "n_dup_groups": pa.array(n_dup_groups, pa.int64()),
        }
    )  # _string_codes → lang-sorted, null last


def dup_rate_by_lang(
    files: ray.data.Dataset,
    *,
    text_col: str = "content",
    lang_col: str = "lang",
    driver_max_rows: int = 50_000_000,
    num_partitions: int | None = None,
):
    """Per-language exact-duplication profile: (lang, n_docs, n_dup_docs,
    n_dup_groups), lang-sorted. ``n_dup_docs`` counts the lang's documents
    whose content digest occurs more than once CORPUS-WIDE (a digest
    spanning languages duplicates in each); ``n_dup_groups`` the lang's
    distinct duplicated digests. Digest-only shuffle; driver/distributed
    dispatch (forced-budget-0 equivalence-tested)."""
    import pyarrow.compute as pc

    from europa_ray.util import scrub_empty_blocks

    partials = files.map_batches(
        _lang_sha_partials,
        fn_kwargs={"text_col": text_col, "lang_col": lang_col},
        batch_format="pyarrow",
    )

    # --- driver fast path ---
    sha_p: list[np.ndarray] = []
    lang_p: list[pa.Array] = []
    c_p: list[np.ndarray] = []
    total = 0
    for b in partials.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        total += b.num_rows
        if total > driver_max_rows:
            sha_p = []
            break
        sha_p.append(b["sha"].to_numpy(zero_copy_only=False).astype("S64"))
        lang_p.extend(b["lang"].chunks)
        c_p.append(b["c"].to_numpy())
    else:
        if not sha_p:
            return DUP_RATE_SCHEMA.empty_table()
        return _dup_rate_table(
            np.concatenate(sha_p), pa.chunked_array(lang_p, pa.string()), np.concatenate(c_p)
        )

    # --- distributed fallback ---
    grouped = (
        partials.map_batches(_flag_null, fn_kwargs={"col": "lang"}, batch_format="pyarrow")
        .groupby(["sha", "lang_null", "lang"])
        .sum("c")
        .rename_columns({"sum(c)": "c"})
        .materialize()
    )
    # hash-shuffle groupby outputs can carry Ray 2.49 zero-column empty
    # blocks on tiny corpora — scrub before using as a join side
    grouped = scrub_empty_blocks(
        grouped,
        pa.schema(
            [
                pa.field("sha", pa.string()),
                pa.field("lang_null", pa.bool_()),
                pa.field("lang", pa.string()),
                pa.field("c", pa.int64()),
            ]
        ),
    )
    totals = (
        grouped.groupby("sha")
        .sum("c")
        .map_batches(
            lambda b: pa.table(
                {"__s": b["sha"], "total": b["sum(c)"].cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    totals = scrub_empty_blocks(
        totals,
        pa.schema([pa.field("__s", pa.string()), pa.field("total", pa.int64())]),
    )
    joined = hash_join(
        grouped, totals, "inner", ("sha",), right_on=("__s",), num_partitions=num_partitions
    )

    def per_lang_partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        c = b["c"].cast(pa.int64())
        dup = pc.greater(b["total"], 1)
        g = (
            pa.table(
                {
                    "lang_null": b["lang_null"],
                    "lang": b["lang"],
                    "n_docs": c,
                    "n_dup_docs": pc.if_else(dup, c, 0),
                    "n_dup_groups": dup.cast(pa.int64()),
                }
            )
            .group_by(["lang_null", "lang"])
            .aggregate([(k, "sum") for k in ("n_docs", "n_dup_docs", "n_dup_groups")])
        )
        return g.rename_columns([n.removesuffix("_sum") for n in g.column_names])

    rolled = joined.map_batches(per_lang_partial, batch_format="pyarrow")
    agg = (
        rolled.groupby(["lang_null", "lang"])
        .sum(["n_docs", "n_dup_docs", "n_dup_groups"])
        .rename_columns(
            {
                "sum(n_docs)": "n_docs",
                "sum(n_dup_docs)": "n_dup_docs",
                "sum(n_dup_groups)": "n_dup_groups",
            }
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": _unflag_null(b, "lang"),
                "n_docs": b["n_docs"].cast(pa.int64()),
                "n_dup_docs": b["n_dup_docs"].cast(pa.int64()),
                "n_dup_groups": b["n_dup_groups"].cast(pa.int64()),
            }
        )

    return sort_result(agg.map_batches(finish, batch_format="pyarrow"), ["lang"])
