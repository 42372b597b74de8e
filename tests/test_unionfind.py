"""Union-find / connected-components tests: dense kernel vs driver vs
distributed vs networkx."""

from __future__ import annotations

import collections

import networkx as nx
import numpy as np
import pyarrow as pa
import pytest


def _random_edges(n_nodes: int, n_edges: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, size=n_edges)
    b = rng.integers(0, n_nodes, size=n_edges)
    # include negative ids (int64-viewed uint64 nodes are often negative)
    offs = rng.choice([-(1 << 62), 0, 1 << 40], size=n_edges)
    return [(int(x + o), int(y + o)) for x, y, o in zip(a, b, offs) if x != y]


def _oracle(edges) -> dict[int, int]:
    g = nx.Graph()
    g.add_edges_from(edges)
    return {n: min(c) for c in nx.connected_components(g) for n in c}


def _dense(edges) -> dict[int, int]:
    """``components_dense`` over the edges' indices into their sorted
    distinct ids, with a few isolated ids in that array, mapped back."""
    from europa_ray.state.unionfind import components_dense

    ab = np.array(edges, np.int64).T.ravel()
    ids = np.unique(np.concatenate([ab, [-(2**63), 2**63 - 1, 7_777_777]]))
    idx = np.searchsorted(ids, ab)
    node, label = components_dense(ids.shape[0], idx[: len(edges)], idx[len(edges) :])
    assert np.all(np.diff(node) > 0)
    return dict(zip(ids[node].tolist(), ids[label].tolist()))


def test_components_dense_edges():
    """No edge labels nothing; a self-loop labels its one node; isolated
    indices stay out."""
    from europa_ray.state.unionfind import components_dense

    empty = np.empty(0, np.int64)
    assert [x.tolist() for x in components_dense(5, empty, empty)] == [[], []]
    node, label = components_dense(6, np.array([4, 2, 5]), np.array([4, 5, 3]))
    assert node.tolist() == [2, 3, 4, 5] and label.tolist() == [2, 2, 4, 2]


@pytest.mark.parametrize("seed", [1, 2])
def test_driver_union_find_matches_networkx(ray_session, seed):
    import ray.data

    from europa_ray.state.unionfind import connected_components_driver

    edges = _random_edges(200, 300, seed)
    tbl = pa.table(
        {
            "a": pa.array([e[0] for e in edges], pa.int64()),
            "b": pa.array([e[1] for e in edges], pa.int64()),
        }
    )
    got = connected_components_driver(ray.data.from_arrow(tbl))
    assert got == _oracle(edges)
    assert _dense(edges) == got


def test_distributed_cc_matches_networkx(ray_session):
    import ray.data

    from europa_ray.state.unionfind import connected_components_distributed

    # include a long path (worst case for label propagation rounds)
    edges = _random_edges(100, 120, 3) + [(10_000 + i, 10_001 + i) for i in range(30)]
    tbl = pa.table(
        {
            "a": pa.array([e[0] for e in edges], pa.int64()),
            "b": pa.array([e[1] for e in edges], pa.int64()),
        }
    )
    labels = connected_components_distributed(ray.data.from_arrow(tbl)).to_pandas()
    got = dict(zip(labels.node.tolist(), labels.cluster.tolist()))
    assert got == _oracle(edges)


def test_driver_cc_five_million_edges(ray_session):
    """Scale evidence for the driver path (used up to cc_driver_max_edges =
    5M): 5M edges over 1M nodes in 1000 components known by construction
    (edges only connect nodes within the same id-block), labels must be the
    per-block minimum. Runs in seconds — the O(E)-per-round pointer-jumping
    implementation, not a per-edge Python loop."""
    import time

    import ray.data

    from europa_ray.state.unionfind import connected_components_driver

    n_nodes, n_comp, n_edges = 1_000_000, 1_000, 5_000_000
    per = n_nodes // n_comp
    rng = np.random.default_rng(7)
    comp = rng.integers(0, n_comp, size=n_edges)
    x = rng.integers(0, per, size=n_edges)
    y = rng.integers(0, per, size=n_edges)
    a = comp * per + x
    b = comp * per + y
    keep = a != b
    a, b = a[keep], b[keep]
    # guarantee every component is fully connected: add a spanning path
    base = np.repeat(np.arange(n_comp) * per, per - 1)
    step = np.tile(np.arange(per - 1), n_comp)
    a = np.concatenate([a, base + step])
    b = np.concatenate([b, base + step + 1])
    tbl = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
    t0 = time.time()
    got = connected_components_driver(ray.data.from_arrow(tbl))
    dt = time.time() - t0
    assert len(got) == n_nodes
    items = np.array(list(got.items()), dtype=np.int64)
    assert (items[:, 1] == (items[:, 0] // per) * per).all()
    assert dt < 300, f"driver CC on 5M edges took {dt:.0f}s"  # generous: VM fault-rate bursts hit first-touch allocations


def test_distributed_cc_path_graph_multi_round(ray_session):
    """Worst-case round count for hash-to-min (a long path) plus disjoint
    small components, through the join-based vectorized rounds and the
    growth-guarded dedup."""
    import ray.data

    from europa_ray.state.unionfind import connected_components_distributed

    path = [(i, i + 1) for i in range(400)]
    cliques = [(1000 + 10 * c + i, 1000 + 10 * c + j)
               for c in range(5) for i in range(3) for j in range(i + 1, 3)]
    edges = path + cliques
    tbl = pa.table(
        {
            "a": pa.array([e[0] for e in edges], pa.int64()),
            "b": pa.array([e[1] for e in edges], pa.int64()),
        }
    )
    labels = connected_components_distributed(ray.data.from_arrow(tbl))
    got = {}
    for b in labels.iter_batches(batch_format="pyarrow", batch_size=65536):
        got.update(zip(b["node"].to_numpy().tolist(), b["cluster"].to_numpy().tolist()))
    assert got == _oracle(edges)


def _mixed_graph(seed: int) -> list[tuple[int, int]]:
    """A long path, one giant component, many isolated edges (the smallest
    component an edge list can hold) and sparse random edges, over shuffled
    int64 ids (negative ones included) in shuffled edge order."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(np.arange(-(1 << 62), 1 << 62, 1 << 50), size=4000, replace=False)
    path = [(int(ids[i]), int(ids[i + 1])) for i in range(int(rng.integers(150, 300)))]
    base = 400
    giant_n = 800
    parent = rng.integers(0, np.arange(1, giant_n), size=giant_n - 1)
    giant = [(int(ids[base + i + 1]), int(ids[base + p])) for i, p in enumerate(parent)]
    extra = rng.integers(0, giant_n, size=(400, 2))
    giant += [(int(ids[base + x]), int(ids[base + y])) for x, y in extra if x != y]
    base += giant_n
    pairs = [(int(ids[base + 2 * i]), int(ids[base + 2 * i + 1])) for i in range(600)]
    base += 1200
    sparse = rng.integers(base, ids.shape[0], size=(300, 2))
    randoms = [(int(ids[x]), int(ids[y])) for x, y in sparse if x != y]
    edges = path + giant + pairs + randoms
    flip = rng.random(len(edges)) < 0.5
    edges = [(b, a) if f else (a, b) for (a, b), f in zip(edges, flip)]
    return [edges[i] for i in rng.permutation(len(edges))]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_cc_driver_distributed_networkx_agree(ray_session, seed):
    """Random mixed graphs: dense kernel == driver union-find ==
    distributed hash-to-min == networkx connected components (label = min
    node)."""
    import ray.data

    from europa_ray.state.unionfind import (
        connected_components_distributed,
        connected_components_driver,
    )

    edges = _mixed_graph(seed)
    tbl = pa.table(
        {
            "a": pa.array([e[0] for e in edges], pa.int64()),
            "b": pa.array([e[1] for e in edges], pa.int64()),
        }
    )
    want = _oracle(edges)
    assert max(collections.Counter(want.values()).values()) >= 800  # giant
    driver = connected_components_driver(ray.data.from_arrow(tbl))
    labels = connected_components_distributed(ray.data.from_arrow(tbl)).to_pandas()
    distributed = dict(zip(labels.node.tolist(), labels.cluster.tolist()))
    assert len(labels) == len(distributed)  # one label row per node
    assert driver == want
    assert distributed == want
    assert _dense(edges) == want


def test_distributed_cc_raises_when_not_converged(ray_session):
    """A path needs several hash-to-min rounds: a round budget too small to
    reach the fixpoint is an error, not silently unconverged labels."""
    import ray.data

    from europa_ray.state.unionfind import connected_components_distributed

    path = [(i, i + 1) for i in range(200)]
    tbl = pa.table(
        {
            "a": pa.array([e[0] for e in path], pa.int64()),
            "b": pa.array([e[1] for e in path], pa.int64()),
        }
    )
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components_distributed(ray.data.from_arrow(tbl), max_iters=2)
