"""Near-duplicate detection + clustering — the flagship (SURVEY.md §3.2).

Engine shape (north rule)::

    read_parquet → filters → signature tasks (sha256 + tokenize + 5-gram
    shingles + MinHash-128 over the shingle stream, content dropped; only
    a set-weighted fuzzy kernel sorts the stream into a set)
        → band-key explode (×16, one raw task per signature block)
        → dense node index (sorted distinct nodes) + exact-dup node set
        → per-bucket pairing over band-key partitions + hot-band windowing,
          each partition shipping distinct packed pair keys
        → one np.unique merge → gather-verify (estimated Jaccard ≥ τ)
        → connected components on the same dense indices (driver
          union-find / distributed hash-to-min above the budget)
        → member tags (one raw task per signature block) + singleton
          suppression → sorted clusters

Above a driver budget each step falls back to its distributed form: the
``groupby(band_key)`` shuffle with inline verify (``stages/lsh.py``), the
hash-to-min union-find and the join-based member assembly.

Cluster semantics vs the reference: one node per distinct content
(exact-dup coalescing before similarity, ``SimilarImageFinder.cs:161-165``);
clusters are true CCs with canonical ``cluster_id = min(node)`` rendered as
16-hex; a group is emitted when it has ≥ 2 member *rows* — this covers both
multi-content near-dup clusters and single-content exact-dup groups, matching
the reference's ≥2-files emit rule (``SimilarImageFinder.cs:119``).

Scale notes: label and dup-sha maps are broadcast via ``ray.put`` (they are
duplicate-only, ≪ corpus). For corpora where even the duplicate set exceeds
worker memory, flip the final assembly to the join-based path
(``exact_dup_clusters``-style count-join) — the shuffles are metadata-only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from europa_ray.config import DEFAULT_CONFIG, EngineConfig
from europa_ray.stages.filters import apply_filters
from europa_ray.stages.lsh import PAIRS_SCHEMA, candidate_pairs
from europa_ray.stages.signatures import signature_task, signatures
from europa_ray.state.unionfind import (
    component_label_arrays,
    components_dense,
    connected_components_distributed,
    edge_arrays,
)
from europa_ray.util import (
    block_tasks,
    hash_join,
    hex16_arrow,
    sort_block_results,
    sort_result,
    sorted_member,
)


def near_dup_pipeline(
    files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    id_cols: tuple[str, ...] = ("repo", "path", "commit"),
    num_partitions: int | None = None,
    extra_pairs: ray.data.Dataset | None = None,
    manifest=None,
    progress=None,
) -> dict[str, ray.data.Dataset]:
    """Run the full pipeline; returns {"pairs": ..., "clusters": ...}.

    ``extra_pairs``: optional additional verified edge Datasets (e.g. the
    SimHash or shared-substring passes) unioned into the CC stage.
    ``manifest``: optional :class:`europa_ray.state.manifest.Manifest` —
    when given, per-stage progress counters (signature rows, verified
    pairs, component count — A8) are recorded as the pipeline runs.
    ``progress``: optional :class:`europa_ray.state.progress.Progress` —
    when given, signature/pair/cluster rows are streamed LIVE as batches
    flow (the reference's every-100-items SignalR notification,
    ``DuplicateByHashFinder.cs:146-171``); subscribe via
    ``progress.watch()``.
    """
    ds = apply_filters(files, cfg)
    exact_verify = cfg.verify_mode == "exact"
    # the flagship never reads the 64-bit fuzzy column — skip its kernel
    # (the dominant per-row compute now that MinHash is OPH); the SimHash
    # PASS computes its own signatures when requested (cli.py). In
    # exact-verify + complete-candidates mode MinHash itself is unused
    # (banding is one global band, verification reads true shingle sets).
    need_minhash = not (exact_verify and cfg.candidates == "all")
    sigs = signatures(
        ds, cfg, id_cols=id_cols, compute_fuzzy=False, compute_minhash=need_minhash
    )
    if progress is not None:
        sigs = progress.count_stage(sigs, "signature_rows")
    # the signature table is consumed twice (pairs + member assembly):
    # materialize once so the signature tasks do not rerun per consumer
    sigs = sigs.materialize()
    if sigs.schema() is None:
        # every block was empty (the filters dropped every row): Ray's
        # map_batches skips zero-row blocks, so none has the signature
        # columns; sign one empty block for them
        sigs = ray.data.from_arrow(
            signature_task(
                _empty_files(files, id_cols), cfg, id_cols, compute_fuzzy=False,
                compute_minhash=need_minhash,
            )
        )

    pairs, aux = candidate_pairs(
        sigs, cfg, num_partitions=num_partitions, return_aux=True,
        verify=not exact_verify,
    )
    if exact_verify:
        # content-level TRUE shingle-set Jaccard ≥ τ (no estimator margin)
        # over the unverified candidate set, via the budget-dispatched
        # pairverify machinery — the value-exact, SQL-oracle-comparable mode
        from europa_ray.stages.pairverify import verify_pairs_chunked

        k = cfg.shingle_k
        pairs = verify_pairs_chunked(
            ds,
            pairs,
            lambda col: shingle_set_payload(col, k),
            jaccard_metric(cfg.jaccard_threshold),
            PAIRS_SCHEMA,
            lambda na, nb, j: (na, nb, j, "lsh"),
        )
    if extra_pairs is not None:
        from europa_ray.stages.lsh import dedupe_pairs

        pairs = dedupe_pairs(pairs.union(extra_pairs), source=None)
    if progress is not None:
        pairs = progress.count_stage(pairs, "verified_pairs")
    pairs = pairs.materialize()  # verified duplicate pairs: ≪ corpus

    if pairs.count() > cfg.cc_driver_max_edges:
        # (node, cluster) Dataset, ≪ corpus
        labels = connected_components_distributed(pairs).materialize()
    elif "dense_pairs" in aux and extra_pairs is None:
        # the verified LSH pairs on candidate_pairs' dense node index
        node_ids, (ia, ib) = aux["node_ids"], aux["dense_pairs"]
        node, label = components_dense(node_ids.shape[0], ia, ib)
        labels = node_ids[node], node_ids[label]
    else:  # exact verification, extra passes, or a budget fallback ran
        labels = component_label_arrays(pairs)

    if manifest is not None:
        from europa_ray.state.manifest import fingerprint_of

        fp = fingerprint_of("neardup-lib", cfg)
        manifest.record(
            "signatures", fp, {"signature_rows": float(sigs.count())}
        )
        n_labeled = labels.count() if isinstance(labels, ray.data.Dataset) else len(labels[0])
        manifest.record(
            "pairs",
            fp,
            {
                "verified_pairs": float(pairs.count()),
                "cc_labeled_nodes": float(n_labeled),
            },
        )

    clusters = assemble_members(
        sigs, labels, cfg, id_cols=id_cols, dup_nodes=aux.get("dup_nodes"),
        num_partitions=num_partitions,
    )
    if progress is not None:
        # materialize so a consumer that executes clusters twice (write +
        # count) cannot re-run the counting map and double-report
        clusters = progress.count_stage(clusters, "cluster_rows").materialize()
    return {"pairs": pairs, "clusters": clusters}


def _empty_files(files: ray.data.Dataset, id_cols: tuple[str, ...]) -> pa.Table:
    """A zero-row files table with the input's id and content columns
    (strings when the input schema is unknown)."""
    schema = files.schema()
    if schema is not None:
        return schema.base_schema.empty_table()
    return pa.table({c: pa.array([], pa.string()) for c in (*id_cols, "content")})


JACCARD_SCHEMA = pa.schema(
    [
        pa.field("a", pa.int64()),
        pa.field("b", pa.int64()),
        pa.field("jaccard", pa.float64()),
    ]
)


def shingle_set_payload(content: pa.Array, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row unique k-gram shingle sets (sorted flat values + offsets)."""
    from europa_ray.functions.text import shingles, tokenize_arrow, unique_per_row

    th, off = tokenize_arrow(content)
    sh, soff = shingles(th, off, k)
    return unique_per_row(sh, soff)


def jaccard_metric(tau: float):
    """TRUE shingle-set Jaccard pair metric for the pairverify machinery:
    returns ``round(jaccard, 6)`` when ≥ ``tau``, else None (same rounding
    as the SQL oracles)."""

    def metric(sa: np.ndarray, sb: np.ndarray) -> float | None:
        if sa.shape[0] == 0 or sb.shape[0] == 0:
            return None
        inter = np.intersect1d(sa, sb, assume_unique=True).shape[0]
        jac = inter / (sa.shape[0] + sb.shape[0] - inter) if inter else 0.0
        if jac < tau:
            return None
        return round(jac, 6)

    return metric


def exact_jaccard_pairs(
    files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    id_cols: tuple[str, ...] = ("repo", "path", "commit"),
    num_partitions: int | None = None,
    driver_max_payload_bytes: int = 512 << 20,
    driver_max_cand_rows: int = 5_000_000,
) -> ray.data.Dataset:
    """n-gram Jaccard as a first-class EXACT operator: prefix-filter
    candidates (AllPairs/PPJoin, :mod:`europa_ray.stages.ppjoin` — complete
    by construction, no LSH recall gap) verified with TRUE 5-gram-set
    Jaccard. Output is deterministically equal to an all-pairs SQL oracle
    (``oracle_sql()['ngram_jaccard_pairs']``).

    The exact verification recomputes shingle sets for candidate nodes only
    (second streaming pass, vectorized via the zero-copy tokenizer) and
    verifies through :mod:`europa_ray.stages.pairverify` — driver-local
    below a payload byte budget, cogroup ``groupby(pair_idx).map_groups``
    shuffle above it (equivalence-tested by forcing the budget to 0); no
    unguarded driver materialization.
    """
    from europa_ray.stages.pairverify import verify_pairs_chunked
    from europa_ray.stages.ppjoin import prefix_candidate_pairs

    ds = apply_filters(files, cfg)
    cand = prefix_candidate_pairs(
        ds, cfg, num_partitions=num_partitions
    ).materialize()
    if cand.count() == 0:
        return ray.data.from_arrow(JACCARD_SCHEMA.empty_table())
    k = cfg.shingle_k

    # candidate (a, b) list gathered in enforced-budget chunks
    return verify_pairs_chunked(
        ds,
        cand,
        lambda col: shingle_set_payload(col, k),
        jaccard_metric(cfg.jaccard_threshold),
        JACCARD_SCHEMA,
        lambda na, nb, j: (na, nb, j),
        driver_max_payload_bytes=driver_max_payload_bytes,
        chunk_rows=driver_max_cand_rows,
    )


def neighbor_sets(
    pairs: ray.data.Dataset, *, driver_max_rows: int = 5_000_000
) -> ray.data.Dataset:
    """Per-node neighbor aggregation (A5, ``SimilarImageFinder.cs:303-320``:
    the per-group ``SimilarImages`` set): (node, neighbors:list<int64>,
    n_neighbors), symmetric over the verified pair list.

    Verified pairs are ≪ corpus: below ``driver_max_rows`` the whole table
    is built in one vectorized lexsort + adjacent-dedup pass (a per-group
    ``map_groups`` emitting 1-row tables pays Python overhead per NODE);
    above it, a distributed groupby path takes over (equivalence-tested)."""
    pairs = pairs.materialize()
    n = pairs.count()

    def explode(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, b])),
                "neighbor": pa.array(np.concatenate([b, a])),
            }
        )

    if n <= driver_max_rows:
        av, bv = edge_arrays(pairs)
        if av.shape[0] == 0:
            schema = pa.schema(
                [
                    pa.field("node", pa.int64()),
                    pa.field("neighbors", pa.list_(pa.int64())),
                    pa.field("n_neighbors", pa.int64()),
                ]
            )
            return ray.data.from_arrow(schema.empty_table())
        node = np.concatenate([av, bv])
        nbr = np.concatenate([bv, av])
        order = np.lexsort((nbr, node))
        node, nbr = node[order], nbr[order]
        keep = np.ones(node.shape[0], dtype=bool)
        keep[1:] = (node[1:] != node[:-1]) | (nbr[1:] != nbr[:-1])
        node, nbr = node[keep], nbr[keep]
        uniq, counts = np.unique(node, return_counts=True)
        offsets = np.zeros(uniq.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        neighbors = pa.ListArray.from_arrays(
            pa.array(offsets.astype(np.int32), pa.int32()), pa.array(nbr, pa.int64())
        )
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(uniq, pa.int64()),
                    "neighbors": neighbors,
                    "n_neighbors": pa.array(counts.astype(np.int64)),
                }
            )
        )

    def collect(group: pa.Table) -> pa.Table:
        node = group["node"][0].as_py()
        nbrs = np.unique(group["neighbor"].to_numpy())
        return pa.table(
            {
                "node": pa.array([node], pa.int64()),
                "neighbors": pa.array([nbrs.tolist()], pa.list_(pa.int64())),
                "n_neighbors": pa.array([len(nbrs)], pa.int64()),
            }
        )

    sym = pairs.map_batches(explode, batch_format="pyarrow")
    return sym.groupby("node").map_groups(collect, batch_format="pyarrow")


def assemble_members(
    sigs: ray.data.Dataset,
    labels,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    id_cols: tuple[str, ...] = ("repo", "path", "commit"),
    dup_nodes: np.ndarray | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Join cluster labels back to member rows and suppress singletons.

    - node in ``labels`` → near-dup component member (cluster = label).
    - node not in ``labels`` but whose sha has ≥2 rows → exact-dup-only
      group (cluster = own node).
    - else singleton → dropped (A7, ``SimilarImageFinder.cs:119``).

    ``labels`` is either a ``(node, cluster)`` pair of int64 arrays sorted
    by node (the dense union-find of the one-shot pipeline), a
    ``{node: cluster}`` dict (what ``components`` returns on its driver
    path; turned into those arrays), or a ``(node, cluster)`` Dataset (the
    distributed CC path — labels never land on the driver; assembly is a
    hash join, equivalence-tested by forcing ``cc_driver_max_edges=0``).
    Driver labels are broadcast once to one raw tagging task per signature
    block.

    ``dup_nodes``: optional precomputed sorted array of exact-duplicate
    nodes (a free by-product of the candidate-pair gather) — passing it
    spares this stage its own corpus scan.
    """
    if isinstance(labels, dict):
        node = np.fromiter(labels.keys(), np.int64, len(labels))
        order = np.argsort(node)
        labels = node[order], np.fromiter(labels.values(), np.int64, len(labels))[order]
    elif not isinstance(labels, tuple):
        labels = labels.materialize()
        if labels.count() > 0:
            return _assemble_members_join(
                sigs, labels, id_cols=id_cols, dup_nodes=dup_nodes,
                num_partitions=num_partitions,
            )
        labels = (np.empty(0, np.int64), np.empty(0, np.int64))

    # exact-dup sha counts (aggregate over nodes: small, duplicate-only)
    from europa_ray.stages.lsh import duplicated_keys

    dup_arr = (
        np.asarray(dup_nodes, dtype=np.int64)
        if dup_nodes is not None
        else duplicated_keys(sigs.select_columns(["node"]), "node")
    )
    if dup_arr is None:  # key stream over driver budget: distributed count
        counts = (
            sigs.select_columns(["node"])
            .groupby("node")
            .count()
            .rename_columns({"count()": "n_rows"})
            .filter(expr="n_rows > 1")
            .materialize()
        )
        parts = [
            b["node"].to_numpy()
            for b in counts.iter_batches(batch_format="pyarrow", batch_size=1 << 20)
        ]
        dup_arr = np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)

    sigs = sigs.materialize()
    got = sigs.schema()
    if got is None or "node" not in got.base_schema.names:
        # every block came out of a map over zero rows without columns
        return ray.data.from_arrow(pa.table({}))
    outs = block_tasks(
        sigs, _tag_members, *labels, dup_arr, id_cols,
        got.base_schema.empty_table(), num_returns=2,
    )
    return sort_block_results(outs, ["cluster_id", *id_cols])


def _tag_members(
    block: pa.Table, lab_nodes: np.ndarray, lab_vals: np.ndarray,
    dup: np.ndarray, id_cols: tuple[str, ...], empty: pa.Table,
) -> tuple[pa.Table, int]:
    """One signature block's member rows, tagged, and their byte size.
    Every block gives the tagged schema: a zero-row join block without
    columns is read as ``empty`` (the signature table's schema)."""
    if "node" not in block.column_names:
        block = empty
    nodes = block["node"].to_numpy()
    in_lab = sorted_member(lab_nodes, nodes)
    keep = in_lab | sorted_member(dup, nodes)
    kept = nodes[keep]
    lab = in_lab[keep]
    cluster = kept.copy()
    cluster[lab] = lab_vals[np.searchsorted(lab_nodes, kept[lab])]
    sel = block.select(
        [c for c in (*id_cols, "sha256", "node") if c in block.column_names]
    ).filter(pa.array(keep))
    out = _append_tags(sel, cluster, lab)
    return out, out.nbytes


def _append_tags(sel: pa.Table, cluster: np.ndarray, in_lab: np.ndarray) -> pa.Table:
    """``cluster_id`` (16-hex of the cluster node) and ``source`` columns."""
    import pyarrow.compute as pc

    source = pc.if_else(pa.array(in_lab, pa.bool_()), "lsh", "exact")
    return sel.append_column("cluster_id", hex16_arrow(cluster)).append_column(
        "source", source
    )


def _assemble_members_join(
    sigs: ray.data.Dataset,
    labels_ds: ray.data.Dataset,
    *,
    id_cols: tuple[str, ...],
    dup_nodes: np.ndarray | None,
    num_partitions: int | None,
) -> ray.data.Dataset:
    """Distributed member assembly: the (node, cluster) label Dataset is
    hash-joined back to the signature table (left outer), the exact-dup
    marker set likewise — NO driver-side label structure, so a 100-TB
    corpus with an arbitrarily large duplicate fraction never materializes
    its labels in one process. Semantics identical to the broadcast path
    (forced-dispatch equivalence test in tests/test_neardup.py)."""
    import pyarrow.compute as pc

    sel_cols = [c for c in (*id_cols, "sha256", "node") if c in sigs.schema().names]
    base = sigs.select_columns(sel_cols)

    lab = labels_ds.rename_columns({"node": "__lab_node"}).materialize()
    joined = hash_join(
        base, lab, "left_outer", ("node",), right_on=("__lab_node",), num_partitions=num_partitions
    )

    if dup_nodes is not None:
        dup_arr = np.asarray(dup_nodes, dtype=np.int64)
        dups = ray.data.from_arrow(
            pa.table(
                {
                    "__dup_node": pa.array(dup_arr),
                    "__dup": pa.array(np.ones(dup_arr.shape[0], np.int8)),
                }
            )
        )
    else:
        dups = (
            sigs.select_columns(["node"])
            .groupby("node")
            .count()
            .rename_columns({"count()": "__cnt"})
            .filter(expr="__cnt > 1")
            .map_batches(
                lambda b: pa.table(
                    {
                        "__dup_node": b["node"],
                        "__dup": pa.array(np.ones(b.num_rows, np.int8)),
                    }
                ),
                batch_format="pyarrow",
            )
        )
    dups = dups.materialize()
    has_dups = dups.count() > 0
    if has_dups:
        joined = hash_join(
            joined, dups, "left_outer", ("node",), right_on=("__dup_node",),
            num_partitions=num_partitions,
        )

    def tag(batch: pa.Table) -> pa.Table:
        nodes = batch["node"].to_numpy()
        cl = batch["cluster"]
        if isinstance(cl, pa.ChunkedArray):
            cl = cl.combine_chunks()
        in_lab = pc.is_valid(cl).to_numpy(zero_copy_only=False)
        if has_dups and "__dup" in batch.column_names:
            dv = batch["__dup"]
            if isinstance(dv, pa.ChunkedArray):
                dv = dv.combine_chunks()
            in_dup = pc.is_valid(dv).to_numpy(zero_copy_only=False) & ~in_lab
        else:
            in_dup = np.zeros(nodes.shape[0], dtype=bool)
        keep = in_lab | in_dup
        clv = cl.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        cluster = np.where(in_lab, clv, nodes)
        sel = batch.select(sel_cols).filter(pa.array(keep))
        return _append_tags(sel, cluster[keep], in_lab[keep])

    members = joined.map_batches(tag, batch_format="pyarrow")
    return sort_result(members, ["cluster_id", *id_cols])


def near_dup_representatives(
    files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    id_col: str = "doc_id",
    driver_max_cluster_rows: int = 5_000_000,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """The deduplicated corpus — the reason the whole pipeline exists: drop
    every near/exact-dup cluster member except one canonical representative
    (minimum ``(sha256, id)``, deterministic) and keep all unclustered rows.

    Scale shape: the cluster table holds only duplicate members (≪ corpus).
    Below ``driver_max_cluster_rows`` the representative choice is one
    driver-side lexsort and the drop set a broadcast anti-join
    (``filter_by_key_array``); above it, both steps run distributed — a
    ``groupby(cluster_id).min(repkey)`` + hash join picks representatives
    and a left-outer marker join anti-joins the corpus (equivalence-tested
    by forcing the budget to 0).
    """
    import pyarrow.compute as pc

    from europa_ray.stages.lsh import filter_by_key_array

    clusters = near_dup_pipeline(files, cfg, id_cols=(id_col,))[
        "clusters"
    ].materialize()
    n = clusters.count()

    if n == 0:
        return files.select_columns([id_col, "lang"])

    if n <= driver_max_cluster_rows:
        cl_p, sha_p, id_p = [], [], []
        for b in clusters.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
            cl_p.append(np.asarray(b["cluster_id"].to_pylist(), dtype="U16"))
            sha_p.append(np.asarray(b["sha256"].to_pylist(), dtype="U64"))
            id_p.append(b[id_col].to_numpy())
        cl = np.concatenate(cl_p)
        sha = np.concatenate(sha_p)
        ids = np.concatenate(id_p)
        order = np.lexsort((ids, sha, cl))
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = cl[order][1:] != cl[order][:-1]
        drops = np.sort(ids[order][~first])
        return filter_by_key_array(
            files, drops, id_col, invert=True
        ).select_columns([id_col, "lang"])

    # distributed: composite sortable key (sha hex + zero-padded id) —
    # lexicographic string order equals (sha256, id) order
    def with_key(batch: pa.Table) -> pa.Table:
        idcol = batch[id_col]
        idcol = idcol.combine_chunks() if isinstance(idcol, pa.ChunkedArray) else idcol
        if pa.types.is_integer(idcol.type):
            # order-preserving key even for NEGATIVE ids (hash-derived
            # row_ids) — a raw signed lpad breaks lexicographic = numeric
            from europa_ray.util import int64_lexkey_arrow

            idstr = int64_lexkey_arrow(pc.cast(idcol, pa.int64()))
        else:
            idstr = pc.utf8_lpad(pc.cast(idcol, pa.string()), 20, "0")
        key = pc.binary_join_element_wise(batch["sha256"], idstr, ":")
        return pa.table(
            {"cluster_id": batch["cluster_id"], id_col: batch[id_col], "repkey": key}
        )

    from europa_ray.util import scrub_empty_blocks as _scrub

    keyed = clusters.map_batches(with_key, batch_format="pyarrow").materialize()
    # groupby/join outputs can carry Ray 2.49 zero-column empty blocks that
    # poison the next join on either side — scrub both join inputs
    mins = _scrub(
        keyed.groupby("cluster_id")
        .min("repkey")
        .rename_columns({"min(repkey)": "repkey_min"})
        .materialize(),
        pa.schema(
            [pa.field("cluster_id", pa.string()), pa.field("repkey_min", pa.string())]
        ),
    )
    drops_ds = _scrub(
        hash_join(keyed, mins, "inner", ("cluster_id",), num_partitions=num_partitions)
        .filter(expr="repkey != repkey_min")
        .select_columns([id_col])
        .rename_columns({id_col: "__drop_id"})
        .add_column("__drop", lambda df: np.ones(len(df), dtype=np.int8))
        .materialize(),
        pa.schema(
            [pa.field("__drop_id", pa.int64()), pa.field("__drop", pa.int8())]
        ),
    )
    if drops_ds.count() == 0:  # all clusters singleton → nothing to drop
        return files.select_columns([id_col, "lang"])
    out = hash_join(
        files.select_columns([id_col, "lang"]), drops_ds, "left_outer", (id_col,),
        right_on=("__drop_id",), num_partitions=num_partitions,
    )

    def keep_unmarked(batch: pa.Table) -> pa.Table:
        mask = pc.is_null(batch["__drop"])
        return batch.filter(mask).select([id_col, "lang"])

    return out.map_batches(keep_unmarked, batch_format="pyarrow")
