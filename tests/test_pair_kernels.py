"""The driver-side pair kernels shared by the pairers: packed-key pair dedup
(``dedupe_pair_arrays``) and chunked MinHash verification
(``match_fraction``, ``verify_pairs_by_signature``, ``pair_band_group``)."""

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
