"""Cross-corpus NEAR dedup: which docs of a NEW corpus are near-duplicates
of an existing REFERENCE corpus (fuzzy decontamination / "don't re-ingest
paraphrases of what the training set already has").

The fuzzy sibling of :func:`europa_ray.pipelines.exact.cross_corpus_new_docs`
(which anti-joins exact digests; reference semantics
``QdrantRepository.cs:82-103`` — the cached-signature skip generalized to a
whole corpus). Match rule: a new doc matches a reference CONTENT when their
TRUE token-shingle-set Jaccard ≥ ``cfg.jaccard_threshold`` — byte-identical
contents trivially match at jaccard 1.0.

Engine shape::

    union(new, ref) → SIDE-AWARE prefix-filter candidates (AllPairs/PPJoin
        with ``cross_sides`` — complete for TRUE cross Jaccard ≥ τ,
        stages/ppjoin.py): corpus-membership node arrays are broadcast into
        the candidate stage itself, one-sided gram groups are pruned before
        pairing and only cross-oriented pairs are emitted — within-corpus
        near-dup cliques (the reference corpus's self-similarity; the new
        corpus's own dups when ref ≪ new) never pay quadratic pairing or
        the pair shuffle
        → CROSS-ONLY candidate re-check (cheap invariant; the stage above
          already guarantees orientation)
        → exact shingle-set Jaccard verify (stages/pairverify.py, budgeted)
        → orient pairs new→ref, add exact digest matches (jaccard 1.0)
        → per-new-content aggregate (n_ref_matches, best_jaccard)
        → attach new doc ids

Output: ``(doc_id, n_ref_matches, best_jaccard)`` — one row per new doc
whose content matches ≥ 1 distinct reference content; ``n_ref_matches``
counts DISTINCT reference contents, ``best_jaccard`` is the max (rounded to
6 dp, house convention shared with the SQL oracles). Value-exact against
``oracle_sql()['cross_corpus_near_dups']`` by construction (complete
candidates + exact verify — the same move as ``ngram_jaccard_pairs``).

Size dispatch: node membership sets are distinct-content-sized (8 B/node);
below ``driver_max_nodes`` they are broadcast (``ray.put``, one plasma copy
per node) and applied vectorized; above it, a fully distributed fallback
attaches membership flags through bucketed ``groupby().map_groups``
cogroups (vectorized per bucket — see :func:`_distributed`), forced-
budget-0 equivalence-tested in ``tests/test_crossdup.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from europa_ray.config import DEFAULT_CONFIG, EngineConfig
from europa_ray.pipelines.neardup import (
    JACCARD_SCHEMA,
    jaccard_metric,
    shingle_set_payload,
)
from europa_ray.stages.filters import apply_filters
from europa_ray.stages.hash_stage import add_sha256
from europa_ray.util import default_num_partitions, hash_join, hex_to_u64_arrow

STATS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_ref_matches", pa.int64()),
        ("best_jaccard", pa.float64()),
    ]
)


def _node_map(files: ray.data.Dataset, cfg: EngineConfig, id_col: str) -> ray.data.Dataset:
    """(id_col, node) over the filtered corpus — node is the engine's
    content identity (int64 view of the sha256's leading 64 bits)."""
    ds = apply_filters(files, cfg)
    hashed = ds.map_batches(
        add_sha256, fn_kwargs={"keep_cols": (id_col,)}, batch_format="pyarrow"
    )

    def to_node(batch: pa.Table) -> pa.Table:
        nodes = hex_to_u64_arrow(batch["sha256"]).view(np.int64)
        return pa.table(
            {id_col: batch[id_col], "node": pa.array(nodes, pa.int64())}
        )

    return hashed.map_batches(to_node, batch_format="pyarrow")


def _distinct_nodes_array(node_map: ray.data.Dataset, budget: int) -> np.ndarray | None:
    """Sorted distinct node array, or None when over ``budget``."""
    parts: list[np.ndarray] = []
    total = 0
    for b in node_map.select_columns(["node"]).iter_batches(
        batch_format="pyarrow", batch_size=1 << 20
    ):
        total += b.num_rows
        if total > budget:
            return None
        parts.append(b["node"].to_numpy())
    if not parts:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(parts))


def _member(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    if sorted_arr.shape[0] == 0:
        return np.zeros(vals.shape[0], dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_arr, vals), sorted_arr.shape[0] - 1)
    return sorted_arr[idx] == vals


def cross_corpus_near_dup_stats(
    new_files: ray.data.Dataset,
    ref_files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    id_col: str = "doc_id",
    driver_max_nodes: int = 50_000_000,
    driver_max_pairs: int = 50_000_000,
    num_partitions: int | None = None,
) -> pa.Table | ray.data.Dataset:
    """Per-new-doc near-duplicate stats against the reference corpus
    (see module docstring for semantics and scale dispatch)."""
    from europa_ray.stages.pairverify import verify_pairs_chunked
    from europa_ray.stages.ppjoin import prefix_candidate_pairs

    nparts = num_partitions or default_num_partitions()
    new_map = _node_map(new_files, cfg, id_col).materialize()
    ref_map = _node_map(ref_files, cfg, id_col)

    new_nodes = _distinct_nodes_array(new_map, driver_max_nodes)
    ref_nodes = _distinct_nodes_array(ref_map, driver_max_nodes)
    if new_nodes is None or ref_nodes is None:
        return _distributed(
            new_files, ref_files, cfg, new_map, ref_map, id_col, nparts
        )

    union = new_files.union(ref_files)
    ds = apply_filters(union, cfg)
    sets_ref = ray.put((new_nodes, ref_nodes))
    # side-aware candidate generation: one-sided gram groups (within-corpus
    # near-dup cliques — e.g. the reference corpus's self-similarity, or
    # the new corpus's own dups when ref ≪ new) are pruned BEFORE pairing,
    # so they cost neither quadratic pair generation nor pair shuffle;
    # cross_only below is then a cheap invariant re-check
    cand = prefix_candidate_pairs(
        ds, cfg, num_partitions=nparts, cross_sides=sets_ref
    )

    def cross_only(batch: pa.Table) -> pa.Table:
        nn, rn = ray.get(sets_ref)
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        an, bn = _member(nn, a), _member(nn, b)
        ar, br = _member(rn, a), _member(rn, b)
        keep = (an & br) | (bn & ar)
        return batch.filter(pa.array(keep))

    cand = cand.map_batches(cross_only, batch_format="pyarrow").materialize()
    if cand.count() > driver_max_pairs:
        # verified pairs (≤ candidates) would be driver-gathered below for
        # the orientation/aggregation pass — above the budget, use the
        # fully distributed path instead (every gather there is bucketed)
        return _distributed(
            new_files, ref_files, cfg, new_map, ref_map, id_col, nparts
        )

    if cand.count() > 0:
        verified = verify_pairs_chunked(
            ds,
            cand,
            lambda col: shingle_set_payload(col, cfg.shingle_k),
            jaccard_metric(cfg.jaccard_threshold),
            JACCARD_SCHEMA,
            lambda na, nb, j: (na, nb, j),
        )
        pair_parts = [
            (t["a"].to_numpy(), t["b"].to_numpy(), t["jaccard"].to_numpy())
            for t in verified.iter_batches(batch_format="pyarrow", batch_size=1 << 20)
            if t.num_rows
        ]
    else:
        pair_parts = []

    # orient verified pairs new→ref (both directions can apply when a node
    # exists in both corpora) and add exact digest matches at jaccard 1.0
    src: list[np.ndarray] = []
    jac: list[np.ndarray] = []
    for a, b, j in pair_parts:
        an, bn = _member(new_nodes, a), _member(new_nodes, b)
        ar, br = _member(ref_nodes, a), _member(ref_nodes, b)
        m1 = an & br
        src.append(a[m1])
        jac.append(j[m1])
        m2 = bn & ar
        src.append(b[m2])
        jac.append(j[m2])
    exact = np.intersect1d(new_nodes, ref_nodes, assume_unique=True)
    src.append(exact)
    jac.append(np.ones(exact.shape[0], np.float64))

    nodes_all = np.concatenate(src) if src else np.empty(0, np.int64)
    if nodes_all.shape[0] == 0:
        return STATS_SCHEMA.empty_table()
    jacs_all = np.concatenate(jac)
    order = np.argsort(nodes_all, kind="stable")
    nodes_all, jacs_all = nodes_all[order], jacs_all[order]
    uniq, starts, counts = np.unique(nodes_all, return_index=True, return_counts=True)
    best = np.maximum.reduceat(jacs_all, starts)
    stats_ref = ray.put((uniq, counts.astype(np.int64), best))

    def attach(batch: pa.Table) -> pa.Table:
        u, n, bst = ray.get(stats_ref)
        nd = batch["node"].to_numpy()
        hit = _member(u, nd)
        idx = np.minimum(np.searchsorted(u, nd), u.shape[0] - 1)
        out = pa.table(
            {
                id_col: batch[id_col],
                "n_ref_matches": pa.array(n[idx], pa.int64()),
                "best_jaccard": pa.array(bst[idx], pa.float64()),
            }
        )
        return out.filter(pa.array(hit))

    return new_map.map_batches(attach, batch_format="pyarrow").sort(id_col)


_FLAG_SCHEMA = pa.schema(
    [
        ("node", pa.int64()),
        ("mate", pa.int64()),
        ("is_side", pa.int8()),
        ("new", pa.int8()),
        ("ref", pa.int8()),
    ]
)


def _distributed(
    new_files: ray.data.Dataset,
    ref_files: ray.data.Dataset,
    cfg: EngineConfig,
    new_map: ray.data.Dataset,
    ref_map: ray.data.Dataset,
    id_col: str,
    nparts: int,
) -> ray.data.Dataset:
    """Fully distributed fallback: corpus-membership flags are attached to
    candidate pair sides through a bucketed ``groupby().map_groups``
    cogroup (the ST2 barrier pattern of ``stages/lsh.py`` /
    ``stages/pairverify.py`` — vectorized inside each bucket, never
    per-node Python), NOT via Ray joins: Ray 2.49's hash-join crashes on
    schema-less empty partitions when its left side is an aggregate or a
    previous join, which rules out chained marker joins. The single final
    doc-id attach join keeps the proven exact.py shape (materialized MAP
    dataset left, materialized aggregate right). Equivalence-tested against
    the broadcast path at forced budget 0."""
    from ray.data.aggregate import Count, Max

    from europa_ray.stages.pairverify import verify_pairs_chunked
    from europa_ray.stages.ppjoin import prefix_candidate_pairs
    from europa_ray.util import mix64

    n_buckets = max(nparts * 8, 64)

    union = new_files.union(ref_files)
    ds = apply_filters(union, cfg)
    cand = prefix_candidate_pairs(ds, cfg, num_partitions=nparts).materialize()

    def side_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        n = a.shape[0]
        z = np.zeros(2 * n, np.int8)
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, b]), pa.int64()),
                "mate": pa.array(np.concatenate([b, a]), pa.int64()),
                "is_side": pa.array(np.ones(2 * n, np.int8), pa.int8()),
                "new": pa.array(z, pa.int8()),
                "ref": pa.array(z, pa.int8()),
            }
        )

    def flag_rows(col: str):
        def f(batch: pa.Table) -> pa.Table:
            nd = batch["node"].to_numpy()
            n = nd.shape[0]
            z = np.zeros(n, np.int8)
            one = np.ones(n, np.int8)
            return pa.table(
                {
                    "node": pa.array(nd, pa.int64()),
                    "mate": pa.array(np.zeros(n, np.int64), pa.int64()),
                    "is_side": pa.array(z, pa.int8()),
                    "new": pa.array(one if col == "new" else z, pa.int8()),
                    "ref": pa.array(one if col == "ref" else z, pa.int8()),
                }
            )

        return f

    tagged = (
        cand.map_batches(side_rows, batch_format="pyarrow")
        .union(new_map.select_columns(["node"]).map_batches(flag_rows("new"), batch_format="pyarrow"))
        .union(ref_map.select_columns(["node"]).map_batches(flag_rows("ref"), batch_format="pyarrow"))
    )

    def add_node_bucket(batch: pa.Table) -> pa.Table:
        bk = (
            mix64(batch["node"].to_numpy().view(np.uint64)) % np.uint64(n_buckets)
        ).astype(np.int64)
        return batch.append_column("bucket", pa.array(bk, pa.int64()))

    # bucketed cogroup 1 — per node: reduce flags, annotate side rows, and
    # emit exact digest matches (node present in BOTH corpora) as pa==pb
    # rows (side rows always have pa < pb: candidates are canonical)
    def attach_flags(g: pa.Table) -> pa.Table:
        node = g["node"].to_numpy()
        mate = g["mate"].to_numpy()
        is_side = g["is_side"].to_numpy().astype(bool)
        newf = g["new"].to_numpy()
        reff = g["ref"].to_numpy()
        fmask = ~is_side
        fnodes, fi = np.unique(node[fmask], return_inverse=True)
        fnew = np.zeros(fnodes.shape[0], np.int8)
        fref = np.zeros(fnodes.shape[0], np.int8)
        np.maximum.at(fnew, fi, newf[fmask])
        np.maximum.at(fref, fi, reff[fmask])
        sn = node[is_side]
        sm = mate[is_side]
        if fnodes.shape[0]:
            idx = np.minimum(np.searchsorted(fnodes, sn), fnodes.shape[0] - 1)
            ok = fnodes[idx] == sn
            s_new = np.where(ok, fnew[idx], 0).astype(np.int8)
            s_ref = np.where(ok, fref[idx], 0).astype(np.int8)
        else:
            s_new = np.zeros(sn.shape[0], np.int8)
            s_ref = np.zeros(sn.shape[0], np.int8)
        ex = fnodes[(fnew == 1) & (fref == 1)]
        return pa.table(
            {
                "pa": pa.array(
                    np.concatenate([np.minimum(sn, sm), ex]), pa.int64()
                ),
                "pb": pa.array(
                    np.concatenate([np.maximum(sn, sm), ex]), pa.int64()
                ),
                "node": pa.array(np.concatenate([sn, ex]), pa.int64()),
                "new": pa.array(
                    np.concatenate([s_new, np.ones(ex.shape[0], np.int8)]),
                    pa.int8(),
                ),
                "ref": pa.array(
                    np.concatenate([s_ref, np.ones(ex.shape[0], np.int8)]),
                    pa.int8(),
                ),
            }
        )

    annotated = (
        tagged.map_batches(add_node_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(attach_flags, batch_format="pyarrow")
        .materialize()
    )

    # bucketed cogroup 2 — per candidate pair (keyed by the ACTUAL (pa, pb)
    # values, collision-free): combine both sides' flags, emit DIRECTED
    # (new_node → ref_node) candidates; pa==pb rows pass through as exact
    # matches
    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        av = batch["pa"].to_numpy().view(np.uint64)
        bv = batch["pb"].to_numpy().view(np.uint64)
        bk = ((mix64(av) ^ mix64(bv, seed=1)) % np.uint64(n_buckets)).astype(np.int64)
        return batch.append_column("bucket", pa.array(bk, pa.int64()))

    def orient_pairs(g: pa.Table) -> pa.Table:
        pa_ = g["pa"].to_numpy()
        pb_ = g["pb"].to_numpy()
        node = g["node"].to_numpy()
        newf = g["new"].to_numpy().astype(bool)
        reff = g["ref"].to_numpy().astype(bool)
        exact_mask = pa_ == pb_
        ex = pa_[exact_mask]
        pm = ~exact_mask
        pa2, pb2, nd2 = pa_[pm], pb_[pm], node[pm]
        nf2, rf2 = newf[pm], reff[pm]
        # lexsort: the two side rows of one pair become adjacent, a-side
        # (node == pa) first
        order = np.lexsort((nd2, pb2, pa2))
        pa2, pb2, nd2, nf2, rf2 = (
            pa2[order], pb2[order], nd2[order], nf2[order], rf2[order]
        )
        ev = np.arange(0, pa2.shape[0], 2)
        od = ev + 1
        a_new, a_ref = nf2[ev], rf2[ev]
        b_new, b_ref = nf2[od], rf2[od]
        m1 = a_new & b_ref
        m2 = b_new & a_ref
        x = np.concatenate([pa2[ev][m1], pb2[ev][m2]])
        y = np.concatenate([pb2[ev][m1], pa2[ev][m2]])
        return pa.table(
            {
                "x": pa.array(np.concatenate([x, ex]), pa.int64()),
                "y": pa.array(np.concatenate([y, ex]), pa.int64()),
                "exact": pa.array(
                    np.concatenate(
                        [np.zeros(x.shape[0], np.int8), np.ones(ex.shape[0], np.int8)]
                    ),
                    pa.int8(),
                ),
            }
        )

    directed = (
        annotated.map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(orient_pairs, batch_format="pyarrow")
        .materialize()
    )

    exact_matches = directed.filter(expr="exact == 1")
    cand_directed = directed.filter(expr="exact == 0").rename_columns(
        {"x": "a", "y": "b"}
    ).materialize()

    parts: list[ray.data.Dataset] = []
    if cand_directed.count() > 0:
        verified = verify_pairs_chunked(
            ds,
            cand_directed,
            lambda col: shingle_set_payload(col, cfg.shingle_k),
            jaccard_metric(cfg.jaccard_threshold),
            JACCARD_SCHEMA,
            lambda na, nb, j: (na, nb, j),
        )
        parts.append(
            verified.map_batches(
                lambda b: pa.table({"node": b["a"], "j": b["jaccard"]}),
                batch_format="pyarrow",
            )
        )
    parts.append(
        exact_matches.map_batches(
            lambda b: pa.table(
                {
                    "node": b["x"],
                    "j": pa.array(np.ones(b.num_rows, np.float64), pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    matches = parts[0]
    for p in parts[1:]:
        matches = matches.union(p)
    matches = matches.materialize()
    if matches.count() == 0:
        return ray.data.from_arrow(STATS_SCHEMA.empty_table())
    stats = (
        matches.groupby("node")
        .aggregate(Count(), Max("j"))
        .rename_columns({"count()": "n_ref_matches", "max(j)": "best_jaccard"})
        # right side of the final join: aggregate-sized; repartition gives
        # empty blocks a schema (Ray 2.49, see forks.py), materialize is
        # the exact.py join precondition
        .repartition(nparts)
        .materialize()
    )
    out = hash_join(new_map, stats, "inner", ("node",), num_partitions=nparts)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch[id_col],
                "n_ref_matches": batch["n_ref_matches"].cast(pa.int64()),
                "best_jaccard": batch["best_jaccard"],
            }
        )

    return out.map_batches(project, batch_format="pyarrow").sort(id_col)
