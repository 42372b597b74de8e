"""Exact set-containment join — ordered pairs ``(a, b)`` where
``C(A→B) = |A ∩ B| / |A| ≥ τ`` over per-document unique k-gram shingle
sets. Containment is the asymmetric near-dup relation Jaccard-threshold
dedup misses BY DESIGN: a short document quoted whole inside a long one has
``J ≈ |A|/|B|`` (arbitrarily small) but ``C(A→B) = 1`` — excerpts, quoted
files, README fragments, concatenated bundles. Training pipelines use it to
drop documents subsumed by a longer kept copy.

Candidate generation (COMPLETE, no recall gap) is the asymmetric variant of
the AllPairs/PPJoin prefix filter (Bayardo WWW'07; Chaudhuri et al.
SSJoin ICDE'06 probe-count): if ``|A ∩ B| ≥ τ·|A|`` then at most
``|A| − ⌈τ·|A|⌉`` of A's grams lie outside B, so among ANY
``|A| − ⌈τ·|A|⌉ + 1`` of A's grams at least one is in B. Each doc therefore
emits its first ``prefix_lengths(|A|, τ)`` grams (ascending-hash order) as
PROBE rows and ALL its grams as INDEX rows — one fused explode with a
``probe`` flag — and every qualifying ordered pair collides in some gram
group as (probe-A, any-B). The length filter is one-sided:
``|B| ≥ ⌈τ·|A|⌉`` (since ``|A ∩ B| ≤ |B|``).

Scale shape: the explode is the FULL unique-shingle stream (25 B/row) —
the word-count-class shuffle that is the price of exactness (the Jaccard
PPJoin explode is the ``(1 − τ)`` prefix slice of the same stream; the
index side here cannot be sliced without losing completeness). Dispatch
mirrors ``stages/ppjoin.py:prefix_candidate_pairs``: one driver gather +
vectorized group/pair/dedupe below the row budget; duplicated-gram
semi-join + distinct-group dedup (one representative gram per distinct
(node, probe) set — the boilerplate-clique guard) + ``groupby(gram)``
pairing above it (forced-budget-0 equivalence-tested). Verification
recomputes TRUE shingle sets for candidate nodes only through
:mod:`europa_ray.stages.pairverify` (role order is preserved on both its
paths, so the asymmetric metric is safe).

Output: ``(a, b, containment)`` — ``a`` = the contained doc's node (int64
view of sha256[:16]), ``b`` = the container's, both directions emitted
when both qualify. SQL replica: the ``ngram_jaccard_pairs`` gram CTE with
an ordered (``g1.node <> g2.node``) intersection and ``c / sa.n``.

Reference parity: the reference's similarity search is symmetric
(`Api/Client/QdrantRepository.cs` range search); containment extends the
engine's exact-similarity family to the asymmetric case.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from europa_ray.config import DEFAULT_CONFIG, EngineConfig

CONTAIN_SCHEMA = pa.schema(
    [
        pa.field("a", pa.int64()),
        pa.field("b", pa.int64()),
        pa.field("containment", pa.float64()),
    ]
)

_PAIR_AB = pa.schema([pa.field("a", pa.int64()), pa.field("b", pa.int64())])

_EXPLODE_EMPTY = pa.table(
    {
        "gram": pa.array([], pa.int64()),
        "node": pa.array([], pa.int64()),
        "size": pa.array([], pa.int64()),
        "probe": pa.array([], pa.int8()),
    }
)


def _explode_probe_index(
    batch: pa.Table,
    *,
    tau: float,
    k: int,
    content_col: str = "content",
) -> pa.Table:
    """(gram, node, size, probe) — ALL unique grams of every doc, with
    ``probe=1`` on the first ``prefix_lengths(|A|, τ)`` grams in
    ascending-hash order (any ``(1−τ)|A|+1``-subset works for the
    containment lemma; hash order keeps the explode deterministic)."""
    from europa_ray.functions.text import shingles, tokenize_arrow, unique_per_row
    from europa_ray.stages.hash_stage import add_sha256
    from europa_ray.stages.ppjoin import prefix_lengths
    from europa_ray.util import hex_to_u64_arrow

    if batch.num_rows == 0:
        return _EXPLODE_EMPTY
    hashed = add_sha256(batch, drop_content=False, keep_cols=(content_col,))
    col = hashed[content_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    th, off = tokenize_arrow(col)
    sh, soff = shingles(th, off, k)
    ush, uoff = unique_per_row(sh, soff)
    sizes = np.diff(uoff)
    if not (sizes > 0).any():
        return _EXPLODE_EMPTY
    node = hex_to_u64_arrow(hashed["sha256"]).view(np.int64)
    p = np.where(sizes > 0, prefix_lengths(sizes, tau), 0)
    rowrep = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
    pos = np.arange(ush.shape[0], dtype=np.int64) - np.repeat(uoff[:-1], sizes)
    probe = (pos < p[rowrep]).astype(np.int8)
    return pa.table(
        {
            "gram": pa.array(ush.view(np.int64)),
            "node": pa.array(np.repeat(node, sizes)),
            "size": pa.array(np.repeat(sizes, sizes)),
            "probe": pa.array(probe),
        }
    )


def _size_keep(sa: np.ndarray, sb: np.ndarray, tau: float) -> np.ndarray:
    """One-sided length filter ``|B| ≥ ⌈τ·|A|⌉`` (downward epsilon only —
    a too-loose filter is sound, a too-tight one drops qualifying pairs)."""
    return sb >= np.ceil(tau * sa - 1e-9).astype(np.int64)


def _combined_keys(nd: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """(node, probe) folded into one int64 hash key for the distinct-group
    dedup: pair production depends on probe flags as well as membership, so
    groups are equal only when the full (node, probe) SET matches."""
    with np.errstate(over="ignore"):
        return ((nd.view(np.uint64) << np.uint64(1)) | pb.astype(np.uint64)).view(
            np.int64
        )


def _pair_containment_group(group: pa.Table, *, tau: float) -> pa.Table:
    """Ordered (probe-node → any-node) pairs within one gram bucket,
    size-filtered; (gram, node) deduped keeping the max probe flag (exact-
    duplicate contents collapse to one node)."""
    nd = group["node"].to_numpy()
    sz = group["size"].to_numpy()
    pb = group["probe"].to_numpy()
    order = np.lexsort((pb, nd))
    nd, sz, pb = nd[order], sz[order], pb[order]
    last = np.ones(nd.shape[0], dtype=bool)
    last[:-1] = nd[1:] != nd[:-1]
    nd, sz, pb = nd[last], sz[last], pb[last]
    n = nd.shape[0]
    pi = np.nonzero(pb == 1)[0]
    if n < 2 or pi.shape[0] == 0:
        return _PAIR_AB.empty_table()
    a = np.repeat(nd[pi], n)
    sa = np.repeat(sz[pi], n)
    b = np.tile(nd, pi.shape[0])
    sb = np.tile(sz, pi.shape[0])
    keep = (a != b) & _size_keep(sa, sb, tau)
    return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep])})


def _group_set_hash_probe(group: pa.Table) -> pa.Table:
    """(gram, 128-bit set hash of the group's distinct (node, probe) pairs)
    — the distributed distinct-group key (``ppjoin._group_set_hash`` with
    the probe flag folded into the hashed identity)."""
    from europa_ray.stages.ppjoin import _set_hash_pair

    nd = group["node"].to_numpy()
    pb = group["probe"].to_numpy()
    order = np.lexsort((pb, nd))
    nd, pb = nd[order], pb[order]
    last = np.ones(nd.shape[0], dtype=bool)
    last[:-1] = nd[1:] != nd[:-1]
    comb = np.unique(_combined_keys(nd[last], pb[last]))
    sig1, sig2 = _set_hash_pair(
        comb.view(np.uint64), np.zeros(1, np.int64), np.array([comb.shape[0]], np.int64)
    )
    return pa.table(
        {
            "gram": group["gram"][:1],
            "sethash1": pa.array(sig1.view(np.int64)),
            "sethash2": pa.array(sig2.view(np.int64)),
        }
    )


def containment_candidates(
    ds,
    *,
    tau: float,
    cfg: EngineConfig = DEFAULT_CONFIG,
    content_col: str = "content",
    num_partitions: int | None = None,
    driver_max_explode_rows: int = 100_000_000,
    parallel_pair_work_min: int = 4_000_000,
):
    """Filtered corpus Dataset → COMPLETE ordered candidate (a, b) Dataset
    for ``C(A→B) ≥ τ``. Driver gather below ``driver_max_explode_rows``
    (~2.5 GB), distributed fallback above (budget-0 equivalence-tested).
    Within the driver path, the pairing/dedupe tail fans out to Ray tasks
    when the raw-pair work estimate reaches ``parallel_pair_work_min``
    (0 forces the fan-out — equivalence-tested in tests/test_containment)."""
    from europa_ray.stages.lsh import dedupe_pair_arrays
    from europa_ray.stages.pairverify import _ranges_gather
    from europa_ray.stages.ppjoin import _distinct_group_rows
    from europa_ray.util import default_num_partitions

    if num_partitions is None:
        num_partitions = default_num_partitions()
    kn = ds.map_batches(
        _explode_probe_index,
        fn_kwargs={"tau": tau, "k": cfg.shingle_k, "content_col": content_col},
        batch_size=cfg.batch_size,
        batch_format="pyarrow",
    )

    parts: list[tuple] = []
    total = 0
    over = False
    for bt in kn.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        total += bt.num_rows
        if total > driver_max_explode_rows:
            over = True
            break
        parts.append(
            (
                bt["gram"].to_numpy(),
                bt["node"].to_numpy(),
                bt["size"].to_numpy(),
                bt["probe"].to_numpy(),
            )
        )
    if over:
        return _containment_distributed(kn, tau, num_partitions)
    if not parts:
        return ray.data.from_arrow(_PAIR_AB.empty_table())
    g = np.concatenate([p[0] for p in parts])
    nd = np.concatenate([p[1] for p in parts])
    sz = np.concatenate([p[2] for p in parts])
    pb = np.concatenate([p[3] for p in parts])

    # (gram, node) dedupe keeping max probe (exact-dup contents)
    order = np.lexsort((pb, nd, g))
    g, nd, sz, pb = g[order], nd[order], sz[order], pb[order]
    last = np.ones(g.shape[0], dtype=bool)
    last[:-1] = (g[1:] != g[:-1]) | (nd[1:] != nd[:-1])
    g, nd, sz, pb = g[last], nd[last], sz[last], pb[last]

    newg = np.ones(g.shape[0], dtype=bool)
    newg[1:] = g[1:] != g[:-1]
    gid = np.cumsum(newg) - 1
    # singleton buckets (one doc holds the gram) can never produce a pair —
    # drop them before the distinct-group hash pass (they are typically the
    # majority of distinct grams: unique body content)
    multi = np.bincount(gid)[gid] > 1
    if not multi.all():
        g, nd, sz, pb = g[multi], nd[multi], sz[multi], pb[multi]
        if g.shape[0] == 0:
            return ray.data.from_arrow(_PAIR_AB.empty_table())
        newg = np.ones(g.shape[0], dtype=bool)
        newg[1:] = g[1:] != g[:-1]
        gid = np.cumsum(newg) - 1
    dmask = _distinct_group_rows(gid, _combined_keys(nd, pb))
    g, nd, sz, pb = g[dmask], nd[dmask], sz[dmask], pb[dmask]
    newg = np.ones(g.shape[0], dtype=bool)
    newg[1:] = g[1:] != g[:-1]
    gid = np.cumsum(newg) - 1

    counts = np.bincount(gid) if gid.shape[0] else np.empty(0, np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    pi = np.nonzero(pb == 1)[0]
    if pi.shape[0] == 0:
        return ray.data.from_arrow(_PAIR_AB.empty_table())
    # raw-pair work estimate (Σ per-bucket probe_rows × bucket_size). The
    # pairing/dedupe tail is the driver path's dominant cost at bench scale
    # (profiled round 5: 70M raw pairs → 12.5 s single-threaded of a 29.6 s
    # total), yet its INPUT after the distinct-group collapse is tiny
    # (~286k rows) — so above the threshold the tail fans out to Ray tasks
    # over contiguous bucket ranges with hash-partitioned shard dedupe.
    probe_per_group = np.bincount(gid[pi], minlength=counts.shape[0])
    work = probe_per_group * counts
    if int(work.sum()) >= parallel_pair_work_min:
        return _parallel_bucket_pairs(g, nd, sz, pb, counts, work, tau)
    reps = counts[gid[pi]]
    a = np.repeat(nd[pi], reps)
    sa = np.repeat(sz[pi], reps)
    b_idx = _ranges_gather(starts[gid[pi]], reps)
    b = nd[b_idx]
    sb = sz[b_idx]
    keep = (a != b) & _size_keep(sa, sb, tau)
    a, b = a[keep], b[keep]
    if a.shape[0] == 0:
        return ray.data.from_arrow(_PAIR_AB.empty_table())
    a, b = dedupe_pair_arrays(a, b, canonical=False)  # directed pairs
    return ray.data.from_arrow(pa.table({"a": pa.array(a), "b": pa.array(b)}))


def _pair_chunk_shards(g, nd, sz, pb, lo, hi, tau, num_parts):
    """Ray task: ordered containment pairing over one contiguous bucket
    range ``[lo, hi)`` of the distinct-group explode (rows sorted by gram,
    so bucket boundaries never split), hash-partitioned by pair identity
    into ``num_parts`` shards so the shard reducers can dedupe
    independently (a given (a, b) always lands in the same shard)."""
    from europa_ray.stages.pairverify import _ranges_gather
    from europa_ray.util import splitmix64

    g, nd, sz, pb = g[lo:hi], nd[lo:hi], sz[lo:hi], pb[lo:hi]
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    newg = np.ones(g.shape[0], dtype=bool)
    newg[1:] = g[1:] != g[:-1]
    gid = np.cumsum(newg) - 1
    counts = np.bincount(gid) if gid.shape[0] else np.empty(0, np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    pi = np.nonzero(pb == 1)[0]
    if pi.shape[0] == 0:
        return tuple(empty for _ in range(num_parts))
    reps = counts[gid[pi]]
    a = np.repeat(nd[pi], reps)
    sa = np.repeat(sz[pi], reps)
    b_idx = _ranges_gather(starts[gid[pi]], reps)
    b = nd[b_idx]
    sb = sz[b_idx]
    keep = (a != b) & _size_keep(sa, sb, tau)
    a, b = a[keep], b[keep]
    if a.shape[0] == 0:
        return tuple(empty for _ in range(num_parts))
    part = (
        splitmix64(splitmix64(a.view(np.uint64)) ^ b.view(np.uint64))
        & np.uint64(num_parts - 1)
    ).astype(np.int64)
    order = np.argsort(part, kind="stable")
    a, b, part = a[order], b[order], part[order]
    bounds = np.searchsorted(part, np.arange(num_parts + 1))
    return tuple(
        (a[bounds[p] : bounds[p + 1]], b[bounds[p] : bounds[p + 1]])
        for p in range(num_parts)
    )


def _dedupe_shard_table(*chunks):
    """Ray task: concatenate one shard's per-task pair slices and dedupe
    (cross-shard duplicates are impossible — hash partitioning)."""
    from europa_ray.stages.lsh import dedupe_pair_arrays

    a = np.concatenate([c[0] for c in chunks])
    b = np.concatenate([c[1] for c in chunks])
    a, b = dedupe_pair_arrays(a, b, canonical=False)
    return pa.table({"a": pa.array(a), "b": pa.array(b)})


def _parallel_bucket_pairs(g, nd, sz, pb, counts, work, tau):
    """Driver-path pairing tail, parallelized: the input (distinct-group
    explode rows) is tiny (~2 MB/100k rows) but expands quadratically per
    bucket (profiled 286k rows → 70M raw pairs at bench scale), so the
    expansion runs in Ray tasks over ~equal-work contiguous bucket ranges
    and the dedupe runs in per-shard reducers — the 70M raw pairs never
    exist in one process. Output: distinct (a, b) Dataset built from the
    reducer blocks (no driver gather)."""
    import ray as _ray

    from europa_ray.util import cluster_cpus

    num_parts = 32  # power of 2 (shard mask)
    num_tasks = max(1, min(64, cluster_cpus() * 2))
    ends = np.cumsum(counts)
    cw = np.cumsum(work)
    total_work = int(cw[-1])
    targets = (np.arange(1, num_tasks) * (total_work / num_tasks)).astype(np.int64)
    cut_groups = np.searchsorted(cw, targets)
    row_cuts = np.unique(
        np.concatenate([[0], ends[cut_groups], [g.shape[0]]])
    ).astype(np.int64)
    refs = [_ray.put(x) for x in (g, nd, sz, pb)]
    task = _ray.remote(num_returns=num_parts)(_pair_chunk_shards)
    shard_refs = [
        task.remote(*refs, int(lo), int(hi), tau, num_parts)
        for lo, hi in zip(row_cuts[:-1], row_cuts[1:])
        if hi > lo
    ]
    if not shard_refs:
        return ray.data.from_arrow(_PAIR_AB.empty_table())
    reduce_task = _ray.remote(_dedupe_shard_table)
    out_refs = [
        reduce_task.remote(*[shard_refs[t][p] for t in range(len(shard_refs))])
        for p in range(num_parts)
    ]
    return ray.data.from_arrow_refs(out_refs)


def _containment_distributed(kn, tau: float, num_partitions: int):
    """Distributed shape, mirroring ``ppjoin._prefix_pairs_distributed``:
    duplicated grams → semi-join → distinct-(node, probe)-set dedup →
    ``groupby(gram)`` ordered pairing → distinct (a, b)."""
    from europa_ray.stages.lsh import (
        duplicated_keys,
        filter_by_key_array,
        semi_join_keys,
    )

    dup = duplicated_keys(kn.select_columns(["gram"]), "gram")
    if dup is not None:
        if dup.shape[0] == 0:
            return ray.data.from_arrow(_PAIR_AB.empty_table())
        hot = filter_by_key_array(kn, dup, "gram")
    else:
        collisions = (
            kn.select_columns(["gram"])
            .groupby("gram")
            .count()
            .rename_columns({"count()": "gram_n"})
            .filter(expr="gram_n > 1")
            .materialize()  # Ray 2.49 join quirk: materialize small sides
        )
        if collisions.count() == 0:
            return ray.data.from_arrow(_PAIR_AB.empty_table())
        hot = semi_join_keys(kn, collisions, "gram", num_partitions=num_partitions)
    hot = hot.materialize()  # consumed twice: set-hash pass + pairing
    set_hashes = hot.groupby("gram").map_groups(
        _group_set_hash_probe, batch_format="pyarrow"
    )
    reps = set_hashes.groupby(["sethash1", "sethash2"]).min("gram")
    rep_grams = reps.map_batches(
        lambda b: pa.table({"gram": b["min(gram)"]}), batch_format="pyarrow"
    )
    hot = semi_join_keys(
        hot, rep_grams.materialize(), "gram", num_partitions=num_partitions
    )
    pairs = hot.groupby("gram").map_groups(
        _pair_containment_group, fn_kwargs={"tau": tau}, batch_format="pyarrow"
    )
    pairs = pairs.materialize()
    if pairs.count() == 0:
        return ray.data.from_arrow(_PAIR_AB.empty_table())
    return pairs.groupby(["a", "b"]).count().select_columns(["a", "b"])


def containment_metric(tau: float):
    """TRUE shingle-set containment metric for the pairverify machinery —
    ASYMMETRIC: the first payload is the contained side A. Returns
    ``round(|A∩B| / |A|, 6)`` when ≥ τ, else None (same rounding as the
    SQL oracle)."""

    def metric(sa: np.ndarray, sb: np.ndarray) -> float | None:
        if sa.shape[0] == 0 or sb.shape[0] == 0:
            return None
        inter = np.intersect1d(sa, sb, assume_unique=True).shape[0]
        c = inter / sa.shape[0]
        if c < tau:
            return None
        return round(c, 6)

    return metric


def containment_pairs(
    files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    tau: float = 0.8,
    num_partitions: int | None = None,
    driver_max_explode_rows: int = 100_000_000,
    parallel_pair_work_min: int = 4_000_000,
    with_sizes: bool = False,
) -> ray.data.Dataset:
    """Ordered exact-containment pairs ``(a, b, containment)`` with
    ``C(A→B) ≥ τ`` — complete candidates (module docstring lemma) verified
    with TRUE shingle sets via :mod:`europa_ray.stages.pairverify` (driver
    / cogroup dispatch, budget-tested)."""
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"containment tau must be in (0, 1], got {tau}")
    from europa_ray.pipelines.neardup import apply_filters, shingle_set_payload
    from europa_ray.stages.pairverify import verify_pairs_chunked

    ds = apply_filters(files, cfg)
    schema = CONTAIN_SIZED_SCHEMA if with_sizes else CONTAIN_SCHEMA
    cand = containment_candidates(
        ds,
        tau=tau,
        cfg=cfg,
        num_partitions=num_partitions,
        driver_max_explode_rows=driver_max_explode_rows,
        parallel_pair_work_min=parallel_pair_work_min,
    ).materialize()
    if cand.count() == 0:
        return ray.data.from_arrow(schema.empty_table())
    k = cfg.shingle_k
    if with_sizes:
        # metric returns (containment, n_a, n_b); emit unpacks it
        return verify_pairs_chunked(
            ds,
            cand,
            lambda col: shingle_set_payload(col, k),
            containment_metric_sized(tau),
            schema,
            lambda na, nb, m: (na, nb, *m),
        )
    return verify_pairs_chunked(
        ds,
        cand,
        lambda col: shingle_set_payload(col, k),
        containment_metric(tau),
        schema,
        lambda na, nb, c: (na, nb, c),
    )


CONTAIN_SIZED_SCHEMA = pa.schema(
    [
        pa.field("a", pa.int64()),
        pa.field("b", pa.int64()),
        pa.field("containment", pa.float64()),
        pa.field("n_a", pa.int64()),
        pa.field("n_b", pa.int64()),
    ]
)

KEPT_SCHEMA = pa.schema(
    [pa.field("node", pa.int64()), pa.field("n_grams", pa.int64())]
)


def containment_metric_sized(tau: float):
    """:func:`containment_metric` variant also returning both set sizes —
    the emit unpacks the tuple into (containment, n_a, n_b) columns (the
    pairverify emit contract passes any non-None metric value through)."""

    def metric(sa: np.ndarray, sb: np.ndarray):
        if sa.shape[0] == 0 or sb.shape[0] == 0:
            return None
        inter = np.intersect1d(sa, sb, assume_unique=True).shape[0]
        c = inter / sa.shape[0]
        if c < tau:
            return None
        return (round(c, 6), int(sa.shape[0]), int(sb.shape[0]))

    return metric


def _node_sizes_batch(batch: pa.Table, *, k: int, content_col: str) -> pa.Table:
    """(node, size) per distinct nonempty content row of one batch —
    in-batch deduped (exact-dup contents share the node and the size)."""
    from europa_ray.functions.text import shingles, tokenize_arrow, unique_per_row
    from europa_ray.stages.hash_stage import add_sha256
    from europa_ray.util import hex_to_u64_arrow

    empty = pa.table(
        {"node": pa.array([], pa.int64()), "size": pa.array([], pa.int64())}
    )
    if batch.num_rows == 0:
        return empty
    hashed = add_sha256(batch, drop_content=False, keep_cols=(content_col,))
    col = hashed[content_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    th, off = tokenize_arrow(col)
    sh, soff = shingles(th, off, k)
    _, uoff = unique_per_row(sh, soff)
    sizes = np.diff(uoff)
    node = hex_to_u64_arrow(hashed["sha256"]).view(np.int64)
    nz = sizes > 0
    if not nz.any():
        return empty
    t = pa.table({"node": pa.array(node[nz]), "size": pa.array(sizes[nz])})
    g = t.group_by("node").aggregate([("size", "max")])
    return pa.table({"node": g["node"], "size": g["size_max"].cast(pa.int64())})


def containment_kept_nodes(
    files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    tau: float = 0.8,
    pair_gather_max: int = 5_000_000,
    num_partitions: int | None = None,
    driver_max_explode_rows: int = 100_000_000,
) -> ray.data.Dataset:
    """Containment DEDUP policy (detection → action): drop every document
    whose shingle set is ≥ τ-contained in a doc with MORE grams (excerpts,
    quoted fragments — keep the superset), or — mutual/equal-size
    containment, i.e. near-identical sets — in an equal-gram doc with the
    smaller node id (deterministic representative, the keep-min rule the
    exact/near tiers use). The rule is per-pair local (no chain iteration:
    a contained doc drops whether or not its container also drops — the
    maximal docs always survive), so it is one vectorized pass over the
    verified pair table.

    Scale shape: the sized pair table (≪ corpus after dedup tiers) is
    gathered in enforced ``pair_gather_max`` chunks to build the dropped
    set, which is broadcast against the digest-only (node, n_grams) table
    — one content pass + one digest groupby; above the budget the dropped
    set is applied by a node-keyed LEFT join instead (budget-0
    equivalence-tested). Output: kept ``(node, n_grams)`` — one row per
    distinct surviving content.
    """
    import ray

    from europa_ray.stages.filters import apply_filters
    from europa_ray.util import default_num_partitions, scrub_empty_blocks, sorted_member

    ds = apply_filters(files, cfg)
    pairs = containment_pairs(
        ds,
        cfg,
        tau=tau,
        num_partitions=num_partitions,
        driver_max_explode_rows=driver_max_explode_rows,
        with_sizes=True,
    ).materialize()
    sizes = (
        ds.map_batches(
            _node_sizes_batch,
            fn_kwargs={"k": cfg.shingle_k, "content_col": "content"},
            batch_format="pyarrow",
        )
        .groupby("node")
        .max("size")
        .map_batches(
            lambda b: pa.table(
                {"node": b["node"], "n_grams": b["max(size)"].cast(pa.int64())}
            )
            if b.num_rows and "node" in b.column_names
            else KEPT_SCHEMA.empty_table(),
            batch_format="pyarrow",
        )
    )

    n_pairs = pairs.count()
    if n_pairs <= pair_gather_max:
        dropped_parts = []
        for bt in pairs.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
            a = bt["a"].to_numpy()
            b = bt["b"].to_numpy()
            na = bt["n_a"].to_numpy()
            nb = bt["n_b"].to_numpy()
            drop = (nb > na) | ((nb == na) & (b < a))
            dropped_parts.append(a[drop])
        dropped = (
            np.unique(np.concatenate(dropped_parts))
            if dropped_parts
            else np.empty(0, np.int64)
        )
        ref = ray.put(dropped)

        def keep(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return KEPT_SCHEMA.empty_table()
            dr = ray.get(ref)
            nd = batch["node"].to_numpy()
            return batch.filter(pa.array(~sorted_member(dr, nd)))

        return sizes.map_batches(keep, batch_format="pyarrow")

    # --- join fallback: dropped-node table LEFT-joined, keep null side ---
    def drop_rows(bt: pa.Table) -> pa.Table:
        a = bt["a"].to_numpy()
        nb = bt["n_b"].to_numpy()
        na = bt["n_a"].to_numpy()
        b = bt["b"].to_numpy()
        drop = (nb > na) | ((nb == na) & (b < a))
        return pa.table({"__d": pa.array(a[drop]), "__one": pa.array(np.ones(int(drop.sum()), np.int64))})

    dropped_ds = scrub_empty_blocks(
        pairs.map_batches(drop_rows, batch_format="pyarrow")
        .groupby("__d")
        .count()
        .map_batches(
            lambda b: pa.table(
                {"__d": b["__d"], "__flag": pa.array(np.ones(b.num_rows, np.int64))}
            ),
            batch_format="pyarrow",
        )
        .materialize(),
        pa.schema([pa.field("__d", pa.int64()), pa.field("__flag", pa.int64())]),
    )
    joined = sizes.join(
        dropped_ds,
        join_type="left_outer",
        num_partitions=num_partitions or default_num_partitions(),
        on=("node",),
        right_on=("__d",),
    )
    joined = scrub_empty_blocks(
        joined.materialize(),
        pa.schema(
            [
                pa.field("node", pa.int64()),
                pa.field("n_grams", pa.int64()),
                pa.field("__flag", pa.int64()),
            ]
        ),
    )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        fl = batch["__flag"]
        if isinstance(fl, pa.ChunkedArray):
            fl = fl.combine_chunks()
        keep = pc.is_null(fl)
        return pa.table(
            {
                "node": batch["node"].filter(keep),
                "n_grams": batch["n_grams"].filter(keep),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


CROSS_CONTAIN_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("n_ref_contained", pa.int64()),
        pa.field("best_containment", pa.float64()),
    ]
)

_WORKER_REFIDX_CACHE: dict = {}


def _ref_payload_rows(batch: pa.Table, *, k: int, content_col: str) -> pa.Table:
    """(node, packed shingle set) per distinct nonempty content row."""
    from europa_ray.pipelines.neardup import shingle_set_payload
    from europa_ray.stages.hash_stage import add_sha256
    from europa_ray.stages.pairverify import pack_payloads
    from europa_ray.util import hex_to_u64_arrow

    empty = pa.table(
        {"node": pa.array([], pa.int64()), "payload": pa.array([], pa.large_binary())}
    )
    if batch.num_rows == 0:
        return empty
    hashed = add_sha256(batch, drop_content=False, keep_cols=(content_col,))
    col = hashed[content_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    node = hex_to_u64_arrow(hashed["sha256"]).view(np.int64)
    vals, offs = shingle_set_payload(col, k)
    keep = np.diff(offs) > 0
    nodes, first = np.unique(node[keep], return_index=True)
    kidx = np.nonzero(keep)[0][first]
    lens = np.diff(offs)[kidx]
    flat = np.concatenate(
        [vals[offs[i] : offs[i + 1]] for i in kidx]
    ) if kidx.shape[0] else np.empty(0, vals.dtype)
    loffs = np.concatenate([[0], np.cumsum(lens)])
    return pa.table(
        {"node": pa.array(nodes), "payload": pack_payloads(flat, loffs)}
    )


def cross_corpus_containment_stats(
    new_files: ray.data.Dataset,
    ref_files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    tau: float = 0.8,
    id_col: str = "doc_id",
    ref_gather_max_rows: int = 20_000_000,
    pair_gather_max: int = 5_000_000,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Containment DECONTAMINATION across corpora: for each NEW (training)
    document, how many DISTINCT REFERENCE (benchmark) contents are
    ≥ τ-contained in it (``C(ref→new) = |ref ∩ new| / |ref| ≥ τ``), plus
    the best containment. The third decontamination mode next to the exact
    n-gram scan (:mod:`~europa_ray.stages.decontam`) and the Jaccard
    near-match (:mod:`~europa_ray.pipelines.crossdup`): a benchmark doc
    pasted whole into a long page has tiny Jaccard but containment 1.0.

    Broadcast shape (ref ≪ new — the decontam operating point): the
    distinct reference shingle sets (≤ ``ref_gather_max_rows`` total gram
    rows) are gathered once; a probe index over each ref's
    ``prefix_lengths(|A|, τ)`` smallest grams is broadcast (`ray.put`,
    cached per worker), and ONE streaming pass over the new corpus finds
    candidates by gram lookup (complete: a qualifying ref shares a probe
    gram with its container, the containment lemma) and verifies true
    containment in-batch — per-doc output with NO shuffle at all.

    Fallback (ref too large to broadcast; forced with
    ``ref_gather_max_rows=0``, equivalence-tested): the union-corpus
    sided machinery — :func:`containment_pairs` over new ∪ ref, pairs
    post-filtered to (ref → new) orientation by broadcast node membership
    (8 B/node, crossdup's budget class), identical-content matches added
    as containment 1.0, per-new-content aggregate fanned back to doc ids.

    Output: ``(doc_id, n_ref_contained, best_containment)`` — one row per
    new doc containing ≥ 1 reference content.
    """
    import ray

    from europa_ray.stages.filters import apply_filters
    from europa_ray.stages.pairverify import unpack_payload
    from europa_ray.stages.ppjoin import prefix_lengths

    if not (0.0 < tau <= 1.0):
        raise ValueError(f"containment tau must be in (0, 1], got {tau}")
    k = cfg.shingle_k
    new_ds = apply_filters(new_files, cfg)
    ref_ds = apply_filters(ref_files, cfg)

    # --- gather distinct ref shingle sets under the row budget ---
    ref_rows = ref_ds.map_batches(
        _ref_payload_rows,
        fn_kwargs={"k": k, "content_col": "content"},
        batch_format="pyarrow",
    )
    got: dict[int, np.ndarray] = {}
    total = 0
    over = False
    for b in ref_rows.iter_batches(batch_format="pyarrow", batch_size=4096):
        pay = b["payload"]
        if isinstance(pay, pa.ChunkedArray):
            pay = pay.combine_chunks()
        for n_i, buf in zip(b["node"].to_numpy(), pay.to_pylist()):
            v = unpack_payload(buf)
            total += v.shape[0]
            if total > ref_gather_max_rows:
                over = True
                break
            if int(n_i) not in got:  # cross-batch dup contents: keep first
                got[int(n_i)] = v
        if over:
            break
    if over:
        return _cross_containment_fallback(
            new_ds, ref_ds, cfg, tau=tau, id_col=id_col,
            pair_gather_max=pair_gather_max, num_partitions=num_partitions,
        )
    if not got:
        return ray.data.from_arrow(CROSS_CONTAIN_SCHEMA.empty_table())

    sets = list(got.values())
    sizes = np.array([s.shape[0] for s in sets], dtype=np.int64)
    plens = prefix_lengths(sizes, tau)
    pg = np.concatenate([s[:p] for s, p in zip(sets, plens)])
    slot = np.repeat(np.arange(len(sets), dtype=np.int64), plens)
    order = np.argsort(pg, kind="stable")
    pg, slot = pg[order], slot[order]
    ref_flat = np.concatenate(sets)
    ref_offs = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    ref = ray.put((pg, slot, ref_flat, ref_offs, sizes))

    def scan(batch: pa.Table) -> pa.Table:
        from europa_ray.pipelines.neardup import shingle_set_payload

        key = ref.hex()
        idxt = _WORKER_REFIDX_CACHE.get(key)
        if idxt is None:
            _WORKER_REFIDX_CACHE.clear()
            idxt = _WORKER_REFIDX_CACHE[key] = ray.get(ref)
        pg_s, slot_s, rflat, roffs, rsizes = idxt

        col = batch["content"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        import pyarrow.compute as pc

        valid = pc.and_(pc.is_valid(col), pc.greater(pc.utf8_length(col), 0))
        sub = batch.filter(valid)
        if sub.num_rows == 0:
            return CROSS_CONTAIN_SCHEMA.empty_table()
        scol = sub["content"]
        if isinstance(scol, pa.ChunkedArray):
            scol = scol.combine_chunks()
        vals, offs = shingle_set_payload(scol, k)
        ids = sub[id_col].cast(pa.int64()).to_numpy()

        # candidates: doc grams present in the probe-gram index (runs of
        # equal pg values fan out to every ref slot in the run)
        lo = np.searchsorted(pg_s, vals, side="left")
        hi = np.searchsorted(pg_s, vals, side="right")
        runs = hi - lo
        if runs.sum() == 0:
            return CROSS_CONTAIN_SCHEMA.empty_table()
        from europa_ray.stages.pairverify import _ranges_gather

        rows_out = {"doc_id": [], "n_ref_contained": [], "best_containment": []}
        doc_of_val = np.repeat(np.arange(sub.num_rows, dtype=np.int64), np.diff(offs))
        memb_idx = _ranges_gather(lo, runs)
        memb_doc = np.repeat(doc_of_val, runs)
        memb_slot = slot_s[memb_idx]
        # dedupe (doc, slot)
        key2 = memb_doc * np.int64(len(rsizes)) + memb_slot
        uniq = np.unique(key2)
        cdoc = uniq // len(rsizes)
        cslot = uniq % len(rsizes)
        # verify per doc: one searchsorted over the doc's sorted gram set
        # for ALL its candidate refs' concatenated values
        start = 0
        for d in np.unique(cdoc):
            csl = cslot[cdoc == d]
            g_d = vals[offs[d] : offs[d + 1]]
            seg_lens = rsizes[csl]
            allv = np.concatenate([rflat[roffs[s] : roffs[s + 1]] for s in csl])
            pos = np.searchsorted(g_d, allv)
            pos[pos >= g_d.shape[0]] = 0
            found = (g_d[pos] == allv).astype(np.int64)
            bounds = np.concatenate([[0], np.cumsum(seg_lens)])
            inter = np.add.reduceat(found, bounds[:-1])
            c = inter / seg_lens
            hit = c >= tau
            if hit.any():
                rows_out["doc_id"].append(int(ids[d]))
                rows_out["n_ref_contained"].append(int(hit.sum()))
                rows_out["best_containment"].append(round(float(c[hit].max()), 6))
        if not rows_out["doc_id"]:
            return CROSS_CONTAIN_SCHEMA.empty_table()
        return pa.table(
            {
                "doc_id": pa.array(rows_out["doc_id"], pa.int64()),
                "n_ref_contained": pa.array(rows_out["n_ref_contained"], pa.int64()),
                "best_containment": pa.array(
                    rows_out["best_containment"], pa.float64()
                ),
            }
        )

    return new_ds.map_batches(scan, batch_format="pyarrow")


def _cross_containment_fallback(
    new_ds, ref_ds, cfg: EngineConfig, *, tau: float, id_col: str,
    pair_gather_max: int, num_partitions: int | None,
):
    """Union-corpus sided fallback (see caller docstring)."""
    import ray

    from europa_ray.util import sorted_member

    def nodes_of(ds) -> np.ndarray:
        from europa_ray.stages.hash_stage import add_sha256
        from europa_ray.util import hex_to_u64_arrow

        parts = []
        hashed = ds.map_batches(
            add_sha256, fn_kwargs={"keep_cols": ()}, batch_format="pyarrow"
        )
        for b in hashed.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
            sha = b["sha256"]
            if isinstance(sha, pa.ChunkedArray):
                sha = sha.combine_chunks()
            sha = sha.drop_null()  # empty/null content has a null sha
            if len(sha):
                parts.append(hex_to_u64_arrow(sha).view(np.int64))
        return (
            np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        )

    ref_nodes = nodes_of(ref_ds)
    new_nodes = nodes_of(new_ds)
    union = new_ds.union(ref_ds)
    pairs = containment_pairs(
        union, cfg, tau=tau, num_partitions=num_partitions
    ).materialize()

    # per-new-NODE stats from cross-oriented pairs (+ identity at 1.0)
    per: dict[int, tuple[int, float]] = {}
    n_seen = 0
    for bt in pairs.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        n_seen += bt.num_rows
        if n_seen > pair_gather_max:
            raise RuntimeError(
                "cross-containment fallback pair table exceeds pair_gather_max; "
                "raise the budget or pre-dedup the corpora"
            )
        a = bt["a"].to_numpy()
        b = bt["b"].to_numpy()
        c = bt["containment"].to_numpy()
        keep = sorted_member(ref_nodes, a) & sorted_member(new_nodes, b)
        for nb, cv in zip(b[keep], c[keep]):
            n, best = per.get(int(nb), (0, 0.0))
            per[int(nb)] = (n + 1, max(best, float(cv)))
    both = ref_nodes[sorted_member(new_nodes, ref_nodes)]
    for x in both:
        n, best = per.get(int(x), (0, 0.0))
        per[int(x)] = (n + 1, 1.0)
    ref_stats = ray.put(per)

    def attach(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from europa_ray.stages.hash_stage import add_sha256
        from europa_ray.util import hex_to_u64_arrow

        stats = ray.get(ref_stats)
        hashed = add_sha256(batch, keep_cols=(id_col,))
        sha = hashed["sha256"]
        if isinstance(sha, pa.ChunkedArray):
            sha = sha.combine_chunks()
        ok = pc.is_valid(sha)
        hashed = hashed.filter(ok)
        if hashed.num_rows == 0:
            return CROSS_CONTAIN_SCHEMA.empty_table()
        nd = hex_to_u64_arrow(sha.filter(ok)).view(np.int64)
        ids = hashed[id_col].cast(pa.int64()).to_numpy()
        rows = [
            (int(i), *stats[int(n)]) for i, n in zip(ids, nd) if int(n) in stats
        ]
        if not rows:
            return CROSS_CONTAIN_SCHEMA.empty_table()
        d, nref, best = zip(*rows)
        return pa.table(
            {
                "doc_id": pa.array(d, pa.int64()),
                "n_ref_contained": pa.array(nref, pa.int64()),
                "best_containment": pa.array(
                    [round(x, 6) for x in best], pa.float64()
                ),
            }
        )

    return new_ds.map_batches(attach, batch_format="pyarrow")
