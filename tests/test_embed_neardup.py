"""Embedding near-dup pairs: recall vs exact brute force on planted
near-duplicate embeddings, inline-path equivalence, and hot-bucket caps.

(The driver testdata's embeddings are mutually distant — zero pairs at
cos ≥ 0.9 — so real recall coverage needs planted clusters.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _planted_embeddings(
    n_background: int = 350,
    n_clusters: int = 30,
    dim: int = 64,
    seed: int = 7,
    noise: float = 0.12,
):
    """Background vectors (mutually near-orthogonal in 64-dim) + planted
    clusters of 2-4 noisy copies of a base vector (cos ≈ 0.97-0.999)."""
    rng = np.random.default_rng(seed)
    vecs = [rng.standard_normal((n_background, dim))]
    for _ in range(n_clusters):
        base = rng.standard_normal(dim)
        k = int(rng.integers(2, 5))
        vecs.append(base[None, :] + noise * rng.standard_normal((k, dim)))
    m = np.concatenate(vecs)
    # non-contiguous, shuffled ids: the op must not assume dense ids
    ids = rng.permutation(m.shape[0] * 7)[: m.shape[0]].astype(np.int64)
    return m, ids


def _exact_pairs(m: np.ndarray, ids: np.ndarray, threshold: float) -> set[tuple[int, int]]:
    n = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = n @ n.T
    iu, ju = np.triu_indices(m.shape[0], k=1)
    mask = sims[iu, ju] >= threshold
    a, b = ids[iu[mask]], ids[ju[mask]]
    return {(int(min(x, y)), int(max(x, y))) for x, y in zip(a, b)}


def _emb_ds(m: np.ndarray, ids: np.ndarray):
    import ray.data

    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [row.astype(np.float32) for row in m], pa.list_(pa.float32())
            ),
        }
    )
    return ray.data.from_arrow(tbl).repartition(8)


@pytest.fixture(scope="module")
def planted(ray_session):
    m, ids = _planted_embeddings()
    return m, ids, _emb_ds(m, ids)


def test_embedding_near_dup_recall_and_precision(planted):
    from europa_ray.stages.ann import embedding_near_dup_pairs

    m, ids, ds = planted
    threshold = 0.9
    truth = _exact_pairs(m.astype(np.float32).astype(np.float64), ids, threshold)
    assert len(truth) >= 30, "planting must produce a meaningful pair set"
    got = embedding_near_dup_pairs(ds, threshold=threshold).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(got.a, got.b)}
    # precision: every emitted pair is exact-verified ≥ threshold by design
    assert found <= truth
    recall = len(found & truth) / len(truth)
    assert recall >= 0.99, f"recall {recall:.4f} < 0.99 ({len(found)}/{len(truth)})"


def test_embedding_near_dup_inline_path_equivalent(planted):
    """Forcing the kn-gather budget to 0 exercises the fully distributed
    inline path; the pair set must match the driver path."""
    from europa_ray.stages.ann import embedding_near_dup_pairs

    m, ids, ds = planted
    default = embedding_near_dup_pairs(ds, threshold=0.9).to_pandas()
    inline = embedding_near_dup_pairs(ds, threshold=0.9, driver_max_kn_rows=0).to_pandas()
    dset = {(int(a), int(b)) for a, b in zip(default.a, default.b)}
    iset = {(int(a), int(b)) for a, b in zip(inline.a, inline.b)}
    assert dset == iset
    # scores agree (both exact cosine, rounded to 4)
    ds_scores = dict(zip(zip(default.a, default.b), default.score))
    for key, s in zip(zip(inline.a, inline.b), inline.score):
        assert abs(ds_scores[key] - s) < 1e-6


def test_embedding_hot_bucket_capped_but_connected(ray_session):
    """300 near-identical vectors = one hot bucket in every table. The cap
    must bound the pair count far below the 44,850 all-pairs while keeping
    the pairs a single connected component (cluster semantics preserved)."""
    import networkx as nx

    from europa_ray.stages.ann import embedding_near_dup_pairs

    rng = np.random.default_rng(11)
    base = rng.standard_normal(64)
    m = base[None, :] + 1e-4 * rng.standard_normal((300, 64))
    ids = np.arange(1000, 1300, dtype=np.int64)
    got = embedding_near_dup_pairs(_emb_ds(m, ids), threshold=0.9).to_pandas()
    # windowed pairing: ≤ n_tables × window × n pairs, ≪ all-pairs
    assert 0 < len(got) < 44_850
    g = nx.Graph()
    g.add_nodes_from(ids.tolist())
    g.add_edges_from(zip(got.a, got.b))
    assert nx.number_connected_components(g) == 1


def test_embedding_near_dup_empty_and_distant(ray_session):
    """No pairs above threshold → empty result with the right schema (the
    sf0.01 driver-testdata regime)."""
    from europa_ray.stages.ann import embedding_near_dup_pairs

    rng = np.random.default_rng(3)
    m = rng.standard_normal((100, 64))
    ids = np.arange(100, dtype=np.int64)
    truth = _exact_pairs(m, ids, 0.9)
    assert not truth
    import __ray_entry__ as entry

    got = entry._collect(embedding_near_dup_pairs(_emb_ds(m, ids), threshold=0.9))
    assert got.num_rows == 0
    assert set(got.schema.names) == {"a", "b", "score"}


# ---------------------------------------------------------------------------
# multi-probe mode (probe_bits=1)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted_borderline(ray_session):
    """Clusters at cos ≈ 0.92 — just above the 0.9 threshold, where exact
    5-table × 8-bit LSH recall is ~0.87 but 1-bit probing lifts it ≥ 0.99
    (the regime multi-probe exists for)."""
    m, ids = _planted_embeddings(seed=13, noise=0.29, n_clusters=40)
    return m, ids, _emb_ds(m, ids)


def test_probe_mode_superset_at_equal_config(planted):
    """At EQUAL (n_tables, n_bits), probe mode's verified pair set is a
    deterministic superset of exact mode's: equal buckets are equal under
    every mask, so every exact collision survives probing."""
    from europa_ray.stages.ann import embedding_near_dup_pairs

    m, ids, ds = planted
    kw = dict(threshold=0.9, n_bits=8, n_tables=5)
    exact = embedding_near_dup_pairs(ds, **kw).to_pandas()
    probe = embedding_near_dup_pairs(ds, probe_bits=1, **kw).to_pandas()
    eset = {(int(a), int(b)) for a, b in zip(exact.a, exact.b)}
    pset = {(int(a), int(b)) for a, b in zip(probe.a, probe.b)}
    assert eset <= pset
    truth = _exact_pairs(m.astype(np.float32).astype(np.float64), ids, 0.9)
    assert pset <= truth  # precision 1.0 — every pair exact-cosine-verified


def test_probe_mode_lifts_recall_at_reduced_shuffle_config(planted_borderline):
    """The headline claim: 5 tables × 8 bits PROBED (0.42× the shuffle rows
    of the 12 × 6 exact default) meets the ≥ 0.99 recall bar on borderline
    (cos ≈ 0.92) pairs where the same config unprobed falls short."""
    from europa_ray.stages.ann import embedding_near_dup_pairs

    m, ids, ds = planted_borderline
    truth = _exact_pairs(m.astype(np.float32).astype(np.float64), ids, 0.9)
    assert len(truth) >= 30
    kw = dict(threshold=0.9, n_bits=8, n_tables=5)
    exact = embedding_near_dup_pairs(ds, **kw).to_pandas()
    probe = embedding_near_dup_pairs(ds, probe_bits=1, **kw).to_pandas()
    eset = {(int(a), int(b)) for a, b in zip(exact.a, exact.b)}
    pset = {(int(a), int(b)) for a, b in zip(probe.a, probe.b)}
    e_recall = len(eset & truth) / len(truth)
    p_recall = len(pset & truth) / len(truth)
    assert p_recall >= 0.99, f"probe recall {p_recall:.4f}"
    assert p_recall > e_recall, (p_recall, e_recall)


def test_probe_mode_inline_path_equivalent(planted_borderline):
    """Forcing the kn-gather budget to 0 exercises the probe variant of the
    fully distributed fallback (one masked groupby per bucket bit); the
    pair set must match the driver masked-pass path."""
    from europa_ray.stages.ann import embedding_near_dup_pairs

    m, ids, ds = planted_borderline
    kw = dict(threshold=0.9, n_bits=8, n_tables=5, probe_bits=1)
    default = embedding_near_dup_pairs(ds, **kw).to_pandas()
    inline = embedding_near_dup_pairs(ds, driver_max_kn_rows=0, **kw).to_pandas()
    dset = {(int(a), int(b)) for a, b in zip(default.a, default.b)}
    iset = {(int(a), int(b)) for a, b in zip(inline.a, inline.b)}
    assert dset == iset


@pytest.mark.parametrize(
    "kw, budget",
    [
        (dict(driver_max_kn_rows=0), "driver_max_kn_rows=0"),
        (dict(driver_max_cand_rows=0), "driver_max_cand_rows=0"),
        (dict(driver_max_cand_rows=0, probe_bits=1, n_bits=8, n_tables=5),
         "driver_max_cand_rows=0"),
    ],
    ids=["kn", "cand", "probe_cand"],
)
def test_inline_fallback_warns(planted, caplog, kw, budget):
    """Each budget overrun (the (bucket_key, id) gather, the pairing and the
    multi-probe pass loop) falls back to the inline path with one warning
    naming the budget; the pair set matches the driver path's."""
    import logging

    from europa_ray.stages import ann

    _, _, ds = planted
    shape = {k: v for k, v in kw.items() if not k.startswith("driver_")}
    default = ann.embedding_near_dup_pairs(ds, threshold=0.9, **shape).to_pandas()
    with caplog.at_level(logging.WARNING, logger=ann.__name__):
        inline = ann.embedding_near_dup_pairs(ds, threshold=0.9, **kw).to_pandas()
    assert len(default) > 0
    assert set(zip(default.a, default.b)) == set(zip(inline.a, inline.b))
    msgs = [r.getMessage() for r in caplog.records if "falling back" in r.getMessage()]
    assert len(msgs) == 1, msgs
    assert budget in msgs[0], msgs


def test_probe_bits_validated(planted):
    from europa_ray.stages.ann import embedding_near_dup_pairs

    _, _, ds = planted
    with pytest.raises(ValueError):
        embedding_near_dup_pairs(ds, probe_bits=2)
