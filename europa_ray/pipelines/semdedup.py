"""SemDeDup: semantic deduplication over an embedding column (Abbas et
al., "SemDeDup: Data-efficient learning at web-scale through semantic
deduplication", 2023).

The paper's recipe: k-means-cluster the embeddings, compute pairwise
cosine only WITHIN each cluster (making the quadratic pair scan feasible
at web scale), call pairs above a threshold semantic duplicates, and keep
one representative per duplicate group. Engine shape::

    embeddings → train_centroids (spherical k-means on a bounded sample,
        stages/ann.py — the IVF quantizer reused)
        → map_batches cell assignment (broadcast centroid matrix)
        → groupby(cell).map_groups: blocked within-cell matmul ≥ τ
        → pairs (a, b, score) → union-find → keep min id per component

Determinism note: the paper keeps a random / farthest-from-centroid
member; this engine keeps the MINIMUM id (canonical, oracle-checkable) —
the choice of representative does not change which groups exist.

Oracle config: ``nlist=1`` puts every row in one cell, so the pair set
equals the exact all-pairs cosine baseline BY CONSTRUCTION
(:func:`europa_ray.stages.ann.exact_cosine_pairs` — the ``ann_topk_ivf``
nprobe=nlist move) and shares its DuckDB oracle; the clustered production
config (nlist > 1) is recall-tested on planted duplicates in
``tests/test_semdedup.py`` (identical vectors always share the argmax
cell, so exact copies are found at ANY nlist).

Scale notes: cells hold ~N/nlist rows; the within-cell scan is blocked
(``block_rows`` × cell matmuls) so peak memory is block × cell, not
cell². The 100 TB knob is nlist (the paper uses 11k clusters for LAION);
pair volume is duplicate-sized. Representative selection broadcasts the
drop set under ``driver_max_edges`` (union-find labels are
duplicate-only, ≪ corpus), mirroring the flagship's CC dispatch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from europa_ray.stages.ann import (
    EMB_PAIRS_SCHEMA,
    _embedding_matrix,
    _normalize,
    exact_cosine_pairs,
    train_centroids,
)

KEPT_SCHEMA = pa.schema([("vec_id", pa.int64())])


def semantic_dup_pairs(
    embeddings: ray.data.Dataset,
    *,
    threshold: float = 0.9,
    nlist: int = 1,
    id_col: str = "vec_id",
    sample_rows: int = 50_000,
    seed: int = 42,
    block_rows: int = 4096,
) -> pa.Table | ray.data.Dataset:
    """Within-cell cosine pairs ≥ ``threshold`` (a < b, score rounded to
    4 dp — the house embedding-pair convention)."""
    if nlist <= 1:
        t = exact_cosine_pairs(embeddings, threshold=threshold, id_col=id_col)
        order = np.lexsort((t["b"].to_numpy(), t["a"].to_numpy()))
        return t.take(order) if t.num_rows else t

    cent = train_centroids(
        embeddings, nlist=nlist, sample_rows=sample_rows, seed=seed
    )
    cref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _normalize(_embedding_matrix(batch))
        cell = np.argmax(m @ c.T, axis=1).astype(np.int64)
        return pa.table(
            {
                id_col: batch[id_col],
                "cell": pa.array(cell, pa.int64()),
                "embedding": batch["embedding"],
            }
        )

    assigned = embeddings.map_batches(assign, batch_format="pyarrow")

    def cell_pairs(group: pa.Table) -> pa.Table:
        m = _normalize(_embedding_matrix(group))
        ids = group[id_col].to_numpy()
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        for start in range(0, ids.shape[0], block_rows):
            sims = m[start : start + block_rows] @ m.T
            ii, jj = np.nonzero(sims >= threshold)
            gi = ii + start
            keep = ids[gi] < ids[jj]  # canonical + drops self/mirror
            out_a.append(ids[gi[keep]])
            out_b.append(ids[jj[keep]])
            out_s.append(np.round(sims[ii[keep], jj[keep]], 4))
        a = np.concatenate(out_a) if out_a else np.empty(0, np.int64)
        b = np.concatenate(out_b) if out_b else np.empty(0, np.int64)
        s = np.concatenate(out_s) if out_s else np.empty(0, np.float64)
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "score": pa.array(s, pa.float64()),
            }
        )

    pairs = assigned.groupby("cell").map_groups(cell_pairs, batch_format="pyarrow")
    pairs = pairs.materialize()
    if pairs.count() == 0:
        return EMB_PAIRS_SCHEMA.empty_table()
    return pairs.sort(["a", "b"])


def semdedup_kept_ids(
    embeddings: ray.data.Dataset,
    *,
    threshold: float = 0.9,
    nlist: int = 1,
    id_col: str = "vec_id",
    driver_max_edges: int = 5_000_000,
    **kwargs,
) -> ray.data.Dataset | pa.Table:
    """The semantically deduplicated corpus manifest: all ids minus
    non-minimum members of each duplicate component (keep-min policy;
    see module docstring). Output: (vec_id) sorted."""
    from europa_ray.state.unionfind import components

    pairs = semantic_dup_pairs(
        embeddings, threshold=threshold, nlist=nlist, id_col=id_col, **kwargs
    )
    if isinstance(pairs, pa.Table):
        pairs_ds = ray.data.from_arrow(pairs)
    else:
        pairs_ds = pairs
    labels = components(pairs_ds, driver_max_edges=driver_max_edges)
    if isinstance(labels, dict):
        drop = np.array(
            sorted(n for n, c in labels.items() if n != c), dtype=np.int64
        )
        drop_ref = ray.put(drop)

        def keep(batch: pa.Table) -> pa.Table:
            d = ray.get(drop_ref)
            ids = batch[id_col].to_numpy()
            if d.shape[0] == 0:
                mask = np.ones(ids.shape[0], dtype=bool)
            else:
                idx = np.minimum(np.searchsorted(d, ids), d.shape[0] - 1)
                mask = d[idx] != ids
            return pa.table({"vec_id": pa.array(ids[mask], pa.int64())})

        return embeddings.map_batches(keep, batch_format="pyarrow").sort("vec_id")

    # distributed labels: NEVER gathered (that would defeat the path that
    # exists because they blew the driver budget). Anti-join instead —
    # left = map dataset, right = materialized marked aggregate, the
    # Ray-2.49-safe join shape (see pipelines/exact.py:cross_corpus_new_docs)
    import pyarrow.compute as pc

    from europa_ray.util import default_num_partitions, hash_join

    nparts = default_num_partitions()

    def mark_drop(batch: pa.Table) -> pa.Table:
        nd = batch["node"].to_numpy()
        cl = batch["cluster"].to_numpy()
        sub = nd[nd != cl]
        return pa.table(
            {
                "vec_id": pa.array(sub, pa.int64()),
                "__drop": pa.array(np.ones(sub.shape[0], np.int8), pa.int8()),
            }
        )

    drop_ds = (
        labels.map_batches(mark_drop, batch_format="pyarrow")
        .repartition(nparts)
        .materialize()
    )
    ids_only = embeddings.map_batches(
        lambda b: b.select([id_col]).rename_columns(["vec_id"]),
        batch_format="pyarrow",
    )
    joined = hash_join(ids_only, drop_ds, "left_outer", ("vec_id",), num_partitions=nparts)

    def keep_unmarked(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_null(batch["__drop"])).select(["vec_id"])

    return joined.map_batches(keep_unmarked, batch_format="pyarrow").sort("vec_id")
