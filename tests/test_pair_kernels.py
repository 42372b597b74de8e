"""The driver-side pair kernels shared by the pairers: packed-key pair dedup
(``dedupe_pair_arrays``), the packed-key partition pairer
(``_pair_partitioned`` and its per-partition kernel) and chunked MinHash
verification (``match_fraction``, ``verify_pairs_by_signature``,
``pair_band_group``)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from europa_ray.config import EngineConfig
from europa_ray.stages import lsh
from europa_ray.stages.signatures import pack_sigs

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
ids_strategy = st.one_of(
    st.integers(min_value=0, max_value=20),  # dense, many repeats
    st.integers(min_value=-5, max_value=5),
    I64,  # extreme: the offset key overflows, ids are ranked first
    st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 2**63 - 2, 2**63 - 1]),
)
pairs_strategy = st.lists(st.tuples(ids_strategy, ids_strategy), max_size=200)


def _lexsort_dedupe(a, b, canonical):
    """The pair dedup every pairer carried before: 2-key lexsort plus an
    adjacent-duplicate drop."""
    if canonical:
        a, b = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.ones(a.shape[0], dtype=bool)
    keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[keep], b[keep]


@settings(max_examples=200, deadline=None)
@given(pairs_strategy, st.booleans(), st.integers(min_value=1, max_value=4))
def test_dedupe_pair_arrays_matches_lexsort(pairs, canonical, copies):
    """Same (a, b)-sorted distinct pairs as the lexsort dedup, for empty,
    repeated, unsorted (b < a), negative and extreme int64 ids."""
    a = np.array([p[0] for p in pairs] * copies, np.int64)
    b = np.array([p[1] for p in pairs] * copies, np.int64)
    got = lsh.dedupe_pair_arrays(a, b, canonical=canonical)
    want = _lexsort_dedupe(a, b, canonical)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


def test_dedupe_pair_arrays_edges():
    empty = np.empty(0, np.int64)
    got = lsh.dedupe_pair_arrays(empty, empty)
    assert [x.tolist() for x in got] == [[], []]
    a = np.full(1000, 7, np.int64)
    b = np.full(1000, 3, np.int64)
    assert [x.tolist() for x in lsh.dedupe_pair_arrays(a, b)] == [[3], [7]]
    assert [x.tolist() for x in lsh.dedupe_pair_arrays(a, b, canonical=False)] == [[7], [3]]
    lo, hi = -(2**63), 2**63 - 1
    a = np.array([hi, lo, hi, 0], np.int64)
    b = np.array([lo, hi, lo, 0], np.int64)
    assert [x.tolist() for x in lsh.dedupe_pair_arrays(a, b)] == [[lo, 0], [hi, 0]]


def _random_sigs(rng, n, num_perm):
    # few distinct slot values, so the estimates spread over (0, 1)
    return rng.integers(0, 3, (n, num_perm)).astype(np.uint32)


CHUNK = lsh.VERIFY_CHUNK


@pytest.mark.parametrize("m", [0, 1, CHUNK - 1, CHUNK, 3 * CHUNK + 17])
def test_match_fraction_bit_identical_to_mean(m):
    """Counting equal slots chunk by chunk gives the same float64 bits as
    the whole-list ``.mean(axis=1)``, across and on chunk boundaries."""
    rng = np.random.default_rng(m)
    for num_perm in (128, 100):
        sig = _random_sigs(rng, 300, num_perm)
        ia = rng.integers(0, 300, m)
        ib = rng.integers(0, 300, m)
        got = lsh.match_fraction(sig, ia, ib)
        want = (sig[ia] == sig[ib]).mean(axis=1)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def _sig_ds(sig, nodes, blocks=4):
    import ray.data

    tbl = pa.table({"node": pa.array(nodes, pa.int64()), "minhash": pack_sigs(sig)})
    return ray.data.from_arrow(tbl).repartition(blocks).materialize()


def test_verify_pairs_by_signature_bit_identical(ray_session):
    """The gather verification keeps the pairs at or above the threshold,
    in input order, with the whole-list ``.mean(axis=1)`` estimate to the
    bit, over several chunks; a node without a signature verifies nothing."""
    rng = np.random.default_rng(5)
    n = 400
    nodes = rng.permutation(n).astype(np.int64) * 10**9 - 10**11  # sparse, some negative
    sig = _random_sigs(rng, n, 128)
    cfg = EngineConfig(jaccard_threshold=0.34, verify_margin=0.0)
    m = 5 * lsh.VERIFY_CHUNK + 3
    ia = rng.integers(0, n, m)
    ib = rng.integers(0, n, m)
    ghost = 10**13  # candidate nodes missing from the signature table
    a = np.append(nodes[ia], [ghost, nodes[0], ghost])
    b = np.append(nodes[ib], [nodes[0], ghost, ghost + 1])
    got = lsh.verify_pairs_by_signature(pa.table({"a": a, "b": b}), _sig_ds(sig, nodes), cfg)
    est = np.append((sig[ia] == sig[ib]).mean(axis=1), [0.0, 0.0, 0.0])
    keep = est >= 0.34
    assert 0 < keep.sum() < keep.shape[0]
    assert got.schema == lsh.PAIRS_SCHEMA
    assert got["a"].to_numpy().tolist() == a[keep].tolist()
    assert got["b"].to_numpy().tolist() == b[keep].tolist()
    assert got["est"].to_numpy().tobytes() == est[keep].tobytes()
    assert set(got["source"].to_pylist()) == {"lsh"}


@pytest.mark.parametrize("chunks", [0.5, 2.5])
def test_pair_band_group_matches_gather_verify(ray_session, chunks):
    """The inline band verification and the gather verification give the
    same pairs and the same ``est`` on random signatures, for a band whose
    pairs fit in one chunk and one whose pairs take three."""
    n = int(np.ceil(np.sqrt(2 * chunks * lsh.VERIFY_CHUNK))) + 1
    rng = np.random.default_rng(n)
    nodes = rng.permutation(np.arange(1000, 1000 + n))
    sig = _random_sigs(rng, n, 128)
    cfg = EngineConfig(
        jaccard_threshold=0.34, verify_margin=0.0, max_band_size=n, max_pairs_per_band=n * n
    )
    group = pa.table({"node": pa.array(nodes, pa.int64()), "minhash": pack_sigs(sig)})
    inline = lsh.pair_band_group(group, cfg)

    s = np.sort(nodes)
    iu, ju = np.triu_indices(n, k=1)
    cand = pa.table({"a": s[iu], "b": s[ju]})
    gathered = lsh.verify_pairs_by_signature(cand, _sig_ds(sig, nodes), cfg)
    assert 0 < inline.num_rows < iu.shape[0]
    assert inline.equals(gathered)


def test_verify_memory_stays_bounded(ray_session):
    """Verifying 250k candidate pairs keeps the driver's traced allocation
    peak under 40 MB. A whole-list comparison gathers two 250k × 128
    uint32 matrices (2 × 128 MB) and could not pass."""
    rng = np.random.default_rng(11)
    n, m = 3000, 250_000
    nodes = np.arange(n, dtype=np.int64) * 7
    sig = _random_sigs(rng, n, 128)
    sig_ds = _sig_ds(sig, nodes)
    ia = rng.integers(0, n, m)
    ib = rng.integers(0, n, m)
    cand = pa.table({"a": nodes[ia], "b": nodes[ib]})
    cfg = EngineConfig(jaccard_threshold=0.34, verify_margin=0.0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = lsh.verify_pairs_by_signature(cand, sig_ds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.num_rows > 0
    assert peak < 40 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def _raw_bucket_pairs(bk, nd, cfg):
    """Every bucket's raw pairs, one bucket at a time, concatenated: what
    the inline path's per-bucket pairer ``_pair_nodes_group`` emits (all
    pairs of its distinct nodes up to ``max_band_size``, beyond it the
    distance-major window; every bucket capped at ``max_pairs_per_band``)."""
    out_a, out_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for key in np.unique(bk):
        t = lsh._pair_nodes_group(pa.table({"node": nd[bk == key]}), cfg)
        out_a.append(t["a"].to_numpy())
        out_b.append(t["b"].to_numpy())
    return np.concatenate(out_a), np.concatenate(out_b)


def test_both_pairers_cap_every_bucket():
    """A bucket of 3 nodes under ``max_band_size=3`` and
    ``max_pairs_per_band=1`` gives its first triu pair on both dispatch
    paths, and the projection counts the capped pairs."""
    cfg = EngineConfig(max_band_size=3, max_pairs_per_band=1)
    bk = np.array([7, 7, 7, 9, 9], np.int64)
    nd = np.array([4, 2, 0, 1, 3], np.int64)
    want = lsh.dedupe_pair_arrays(*_raw_bucket_pairs(bk, nd, cfg))
    np.testing.assert_array_equal(want[0], [0, 1])
    np.testing.assert_array_equal(want[1], [2, 3])
    for n_parts in (1, 2):
        got = _partition_pairs(bk, nd, 5, cfg, n_parts)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    assert lsh._bucket_pair_keys(bk, nd, 5, cfg, 1) == 2  # min(3, 1) + min(1, 1)


def _partition_pairs(bk, nd, n_nodes, cfg, n_parts):
    """The partition pairer in-process: each partition's shipped keys,
    merged as ``_pair_partitioned`` merges them."""
    keys = [
        lsh._pair_partition_worker(bk, nd, n_nodes, p, n_parts, cfg, 1 << 62)
        for p in range(n_parts)
    ]
    assert all(k.dtype == np.uint64 for k in keys)
    return lsh.unpack_pair_keys(np.unique(np.concatenate(keys)), n_nodes)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),  # nodes
    st.integers(min_value=1, max_value=12),  # buckets
    st.integers(min_value=0, max_value=400),  # stream rows
    st.integers(min_value=2, max_value=8),  # max_band_size: hot buckets window
    st.integers(min_value=1, max_value=40),  # max_pairs_per_band
    st.sampled_from([1, 2, 4]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_partition_pairer_matches_raw_pair_dedup(
    n_nodes, n_buckets, rows, max_band, cap, n_parts, seed
):
    """Partition keys merged by one unique == ``dedupe_pair_arrays`` over
    the raw per-bucket pairs, same order, for random (band_key, index)
    streams with repeats, windowed hot buckets and the per-band cap."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(-(2**63), 2**63 - 1, n_buckets, dtype=np.int64)
    bk = keys[rng.integers(0, n_buckets, rows)]
    nd = rng.integers(0, n_nodes, rows).astype(np.int64)
    cfg = EngineConfig(max_band_size=max_band, pair_window=3, max_pairs_per_band=cap)
    want = lsh.dedupe_pair_arrays(*_raw_bucket_pairs(bk, nd, cfg))
    got = _partition_pairs(bk, nd, n_nodes, cfg, n_parts)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


def test_partition_pairer_many_nodes():
    """With 70,000 nodes (keys above 2^32) the keys still unpack to the raw
    pairs' dedup, with indices near the top of the range."""
    rng = np.random.default_rng(3)
    n_nodes = 70_000
    bk = rng.integers(0, 40, 3000).astype(np.int64)
    nd = np.concatenate([rng.integers(0, n_nodes, 2990), np.arange(n_nodes - 10, n_nodes)])
    cfg = EngineConfig(max_band_size=64, pair_window=4, max_pairs_per_band=500)
    want = lsh.dedupe_pair_arrays(*_raw_bucket_pairs(bk, nd, cfg))
    for n_parts in (1, 2, 4):
        got = _partition_pairs(bk, nd, n_nodes, cfg, n_parts)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    assert want[1].max() >= n_nodes - 10


def test_pair_partitioned_tasks_match_in_process(ray_session):
    """The Ray-task pairer returns the in-process merge, and its budget
    check returns an int."""
    rng = np.random.default_rng(8)
    bk = rng.integers(0, 300, 20_000).astype(np.int64)
    nd = rng.integers(0, 5000, 20_000).astype(np.int64)
    cfg = EngineConfig(max_band_size=60, pair_window=4, max_pairs_per_band=1000)
    keys = lsh._pair_partitioned(bk, nd, 5000, cfg, 1 << 40)
    got = lsh.unpack_pair_keys(keys, 5000)
    want = _partition_pairs(bk, nd, 5000, cfg, 4)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert isinstance(lsh._pair_partitioned(bk, nd, 5000, cfg, 10), int)
