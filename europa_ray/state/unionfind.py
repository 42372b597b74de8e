"""Connected components over the verified pair list (SURVEY.md §2.5 A6).

The reference's final grouping is a SERIAL greedy pass over a channel
(``/root/reference/Api/Implementations/SimilarImages/SimilarImageFinder.cs:
340-411``) whose clusters depend on arrival order (a neighbor already claimed
by an earlier cluster is silently dropped, ``:360-363``). The engine computes
true connected components — a canonical superset merge — with
``cluster = min(node)`` labels so output is deterministic.

Two implementations:

- ``components_dense``: min-label propagation with pointer jumping over
  edges given as dense node indices. Edges = verified near-dup pairs,
  orders of magnitude smaller than the corpus; up to ``cc_driver_max_edges``
  this is the fastest correct choice and keeps zero extra shuffles. The
  near-dup pipeline hands it the indices ``candidate_pairs`` verified on;
  ``component_label_arrays`` runs it on an (a, b) pairs Dataset, and
  ``connected_components_driver`` and ``components`` turn that into a
  ``{node: cluster}`` dict.
- ``connected_components_distributed``: hash-to-min set propagation
  (Rastogi et al., "Finding Connected Components in Map-Reduce in
  Logarithmic Rounds", ICDE 2013) expressed as Ray Data
  ``groupby(key).map_groups`` rounds — one metadata-only (int64, int64)
  shuffle per round, O(log n) rounds even for path graphs. Used above the
  driver threshold; correctness cross-checked against networkx in tests.
  It stops when a round changes no label (an exact test) and raises if
  that has not happened within ``max_iters`` rounds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_STATE_SCHEMA = pa.schema([pa.field("key", pa.int64()), pa.field("val", pa.int64())])
_LABEL_SCHEMA = pa.schema([pa.field("key", pa.int64()), pa.field("min(val)", pa.int64())])


def components_dense(
    n: int, ia: np.ndarray, ib: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Connected components over the edges ``(ia[i], ib[i])`` between node
    indices in ``[0, n)``, vectorized: min-label propagation with pointer
    jumping over NumPy index arrays — O(E) per round, O(log n) rounds, no
    Python-per-edge loop.

    Returns ``(node, label)`` int64 arrays sorted by node, for the indices
    on at least one edge, with label = the smallest index in the
    component. Indices into a sorted id array keep its order, so mapping
    both arrays through it gives min-id labels, still sorted by id.
    """
    ia = np.asarray(ia, np.int64)
    ib = np.asarray(ib, np.int64)
    touched = np.zeros(n, bool)
    touched[ia] = True
    touched[ib] = True
    nodes = np.flatnonzero(touched)
    rank = np.cumsum(touched) - 1
    ja, jb = rank[ia], rank[ib]
    labels = np.arange(nodes.shape[0], dtype=np.int64)
    while True:
        m = np.minimum(labels[ja], labels[jb])
        new = labels.copy()
        np.minimum.at(new, ja, m)
        np.minimum.at(new, jb, m)
        new = new[new[new]]  # pointer jumping: geometric convergence
        if np.array_equal(new, labels):
            break
        labels = new
    return nodes, nodes[labels]


def edge_arrays(pairs_ds) -> tuple[np.ndarray, np.ndarray]:
    """The ``a`` and ``b`` columns of a (small) pairs Dataset as int64
    arrays. The blocks are fetched by ref: ``iter_batches`` would start an
    executor run (~0.02-0.05 s at 1 CPU) to hand over data already in the
    object store."""
    import ray

    tables = [t for t in ray.get(pairs_ds.to_arrow_refs()) if t.num_rows]
    return tuple(
        np.concatenate([np.asarray(t[c], np.int64) for t in tables] + [np.empty(0, np.int64)])
        for c in ("a", "b")
    )


def component_label_arrays(pairs_ds) -> tuple[np.ndarray, np.ndarray]:
    """Connected components over an (a: int64, b: int64, ...) pairs Dataset
    as ``(node, label)`` int64 arrays sorted by node, label = min node in
    the component (:func:`components_dense` over the pairs' indices into
    their sorted distinct nodes)."""
    a, b = edge_arrays(pairs_ds)
    m = a.shape[0]
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    node, label = components_dense(nodes.shape[0], inv[:m], inv[m:])
    return nodes[node], nodes[label]


def connected_components_driver(pairs_ds) -> dict[int, int]:
    """:func:`component_label_arrays` as {node → component_label}, only for
    nodes appearing in at least one edge."""
    node, label = component_label_arrays(pairs_ds)
    return dict(zip(node.tolist(), label.tolist()))


def _emit_h2m(batch: pa.Table) -> pa.Table:
    """Vectorized hash-to-min emissions for joined (key=u, val=v,
    ``min(val)``) rows: with m = min(u, min C(u)), emit (m → v), (v → m)
    and (u → m) — the same messages the per-group formulation sends
    (component members accumulate at the component min), but produced
    row-wise with no Python-per-key call. Batch-local dedup keeps the
    3× emission fan-out from compounding."""
    u = batch["key"].to_numpy()
    v = batch["val"].to_numpy()
    m = np.minimum(u, batch["min(val)"].to_numpy())
    keys = np.concatenate([m, v, u])
    vals = np.concatenate([v, m, m])
    order = np.lexsort((vals, keys))
    keys, vals = keys[order], vals[order]
    keep = np.ones(keys.shape[0], dtype=bool)
    keep[1:] = (keys[1:] != keys[:-1]) | (vals[1:] != vals[:-1])
    return pa.table({"key": pa.array(keys[keep]), "val": pa.array(vals[keep])})


def _changed_labels(prev, labels) -> int:
    """Rows (key, min(val)) present in exactly one of two rounds' label
    Datasets: 0 iff the two label tables are identical."""
    return (
        prev.union(labels)
        .groupby(["key", "min(val)"])
        .count()
        .rename_columns({"count()": "n"})
        .filter(expr="n == 1")
        .count()
    )


def connected_components_distributed(pairs_ds, *, max_iters: int = 50):
    """Hash-to-min to fixpoint; returns Dataset (node, cluster).

    Each round is one metadata-only (int64, int64) label aggregate + one
    hash join + a row-wise vectorized emit (:func:`_emit_h2m`) — NO
    Python-per-key ``map_groups`` call, so a 100M-edge round costs a
    shuffle, not tens of millions of interpreter invocations. Rounds ≈
    O(log n) even for path graphs. Space notes: the component-min key
    accumulates its whole component's ids (the known hash-to-min
    tradeoff — components ≪ corpus for the near-dup workload), and
    cross-batch duplicate messages are squeezed by a distributed
    distinct whenever the state grows past 2× its low-water mark. Every
    shuffle output is scrubbed of the zero-column blocks Ray 2.49 emits for
    empty partitions before it becomes a join side
    (:func:`europa_ray.util.scrub_empty_blocks`).

    Converged when a round leaves every key's min label unchanged (counted
    exactly, :func:`_changed_labels`); raises ``RuntimeError`` if labels are
    still changing after ``max_iters`` rounds.
    """
    from europa_ray.util import hash_join, scrub_empty_blocks

    def seed(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        keys = np.concatenate([a, b]).astype(np.int64)
        vals = np.concatenate([b, a]).astype(np.int64)
        return pa.table({"key": pa.array(keys), "val": pa.array(vals)})

    state = pairs_ds.map_batches(seed, batch_format="pyarrow").materialize()
    low_water = max(state.count(), 1)
    prev = None
    changed = None
    for _ in range(max_iters):
        labels = scrub_empty_blocks(
            state.groupby("key").min("val").materialize(), _LABEL_SCHEMA
        )
        if prev is not None:
            changed = _changed_labels(prev, labels)
            if changed == 0:
                break
        prev = labels
        state = scrub_empty_blocks(
            hash_join(state, labels, "inner", ("key",))
            .map_batches(_emit_h2m, batch_format="pyarrow")
            .materialize(),
            _STATE_SCHEMA,
        )
        n = state.count()
        if n > 2 * low_water:
            state = scrub_empty_blocks(
                state.groupby(["key", "val"])
                .count()
                .select_columns(["key", "val"])
                .materialize(),
                _STATE_SCHEMA,
            )
            n = state.count()
        low_water = min(low_water, max(n, 1))
    else:
        raise RuntimeError(
            f"hash-to-min did not converge in max_iters={max_iters} rounds"
            f" ({changed} label rows still changed in the last round)"
        )
    labels = labels.rename_columns({"key": "node", "min(val)": "cluster"})

    # min(val) for the component-min node is its smallest *other* member, not
    # itself — clamp to min(node, cluster)
    def clamp(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy()
        cl = np.minimum(node, batch["cluster"].to_numpy())
        return pa.table({"node": pa.array(node), "cluster": pa.array(cl)})

    return labels.map_batches(clamp, batch_format="pyarrow")


def components(pairs_ds, *, driver_max_edges: int = 5_000_000):
    """Dispatch: driver union-find for small edge lists (returns
    {node → cluster}, :func:`connected_components_driver`), distributed
    hash-to-min above the threshold (returns a ``(node, cluster)`` Dataset
    — labels NEVER land on the driver; member assembly joins them back,
    ``pipelines/neardup.py:assemble_members``). The one-shot near-dup
    pipeline calls :func:`components_dense` / :func:`component_label_arrays`
    itself and hands assembly sorted label arrays; this entry serves the
    ``--checkpoint`` flow and semdedup."""
    n_edges = pairs_ds.count()
    if n_edges <= driver_max_edges:
        return connected_components_driver(pairs_ds)
    return connected_components_distributed(pairs_ds)
