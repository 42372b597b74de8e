"""Unit tests for the pure-NumPy signature kernels against brute-force
Python oracles (SURVEY.md §5.1)."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from europa_ray.functions.sig import (
    EMPTY_SIG32,
    band_keys,
    hamming64,
    make_perm_seeds,
    minhash_signatures,
    minhash_signatures_oph,
    simhash_band_keys,
    simhash_signatures,
)
from europa_ray.functions.text import (
    TOKEN_RE,
    shingles,
    token_counts,
    tokenize,
    truncate_rows,
    unique_per_row,
)
from europa_ray.util import sha256_hex

TEXTS = [
    "def foo(x):\n    return x + 1",
    "def foo(y):\n    return y + 1",
    "",
    "x",
    "one two three four",
    "def foo(x):\n    return x + 1",  # dup of row 0
    "héllo wörld 漢字",
]


def test_sha256_matches_hashlib():
    got = sha256_hex(TEXTS)
    for t, h in zip(TEXTS, got):
        if not t:
            assert h is None  # empty → null hash (HashGenerator.cs:18-19)
        else:
            assert h == hashlib.sha256(t.encode()).hexdigest()


def test_tokenize_matches_re_oracle():
    th, off = tokenize(TEXTS)
    oracle = [TOKEN_RE.findall(t) for t in TEXTS]
    assert np.diff(off).tolist() == [len(o) for o in oracle]
    assert token_counts(TEXTS).tolist() == [len(o) for o in oracle]
    # identical rows → identical token hash sequences
    assert (th[off[0] : off[1]] == th[off[5] : off[6]]).all()


def test_shingles_rows_and_fallback():
    th, off = tokenize(TEXTS)
    sh, soff = shingles(th, off, 5)
    lens = np.diff(off)
    exp = [max(l - 4, 0) if l >= 5 else (1 if l > 0 else 0) for l in lens]
    assert np.diff(soff).tolist() == exp
    # dup rows share shingles; shingle never crosses row boundary:
    assert (sh[soff[0] : soff[1]] == sh[soff[5] : soff[6]]).all()
    # rows 0 and 1 differ (x→y rename touches every 5-gram here): disjoint
    assert set(sh[soff[0] : soff[1]]).isdisjoint(sh[soff[1] : soff[2]])


def test_shingles_oracle_small():
    """Brute-force oracle: shingle multiset equality between a row tokenized
    alone and inside a batch (boundary masking correctness)."""
    th_all, off_all = tokenize(TEXTS)
    sh_all, soff_all = shingles(th_all, off_all, 5)
    for i, t in enumerate(TEXTS):
        th1, off1 = tokenize([t])
        sh1, _ = shingles(th1, off1, 5)
        assert sorted(sh1.tolist()) == sorted(sh_all[soff_all[i] : soff_all[i + 1]].tolist())


def test_unique_per_row():
    flat = np.array([5, 5, 3, 9, 9, 9, 1], dtype=np.uint64)
    off = np.array([0, 3, 6, 7])
    uf, uo = unique_per_row(flat, off)
    assert uo.tolist() == [0, 2, 3, 4]
    assert sorted(uf[0:2].tolist()) == [3, 5]
    assert uf[2:3].tolist() == [9]


def test_truncate_rows_matches_per_row_slices():
    rows = [list(range(5)), [], [7, 8], list(range(10, 17)), [1, 2, 3]]
    flat = np.array([v for r in rows for v in r], dtype=np.uint64)
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=off[1:])
    tf, toff = truncate_rows(flat, off, 3)
    assert [tf[toff[i] : toff[i + 1]].tolist() for i in range(len(rows))] == [r[:3] for r in rows]
    same, same_off = truncate_rows(flat, off, 7)
    assert same is flat and same_off is off


def test_minhash_matches_bruteforce():
    th, off = tokenize(TEXTS)
    sh, soff = shingles(th, off, 5)
    ush, uoff = unique_per_row(sh, soff)
    seeds = make_perm_seeds(128, 42)
    sig = minhash_signatures(ush, uoff, seeds)
    a, b = seeds[0], seeds[1]
    b32 = (b >> np.uint64(32)).astype(np.uint32)
    for i in range(len(TEXTS)):
        seg = ush[uoff[i] : uoff[i + 1]]
        if len(seg) == 0:
            assert (sig[i] == EMPTY_SIG32).all()
            continue
        with np.errstate(over="ignore"):
            cells = ((seg[:, None] * a[None, :]) >> np.uint64(32)).astype(np.uint32) + b32[None, :]
        brute = cells.min(axis=0)
        assert (brute == sig[i]).all()
    # identical rows → identical signatures
    assert (sig[0] == sig[5]).all()


def test_chunk_edge_empty_rows():
    """Regression: empty rows falling exactly on a chunk boundary must not
    index past the segment end in reduceat (and stay sentinel/zero)."""
    seeds = make_perm_seeds(128, 42)
    flat = np.arange(320, dtype=np.uint64)
    off = np.array([0, 309, 309, 309, 320])  # two empty rows mid-batch
    sig = minhash_signatures(flat, off, seeds, max_chunk_cells=128 * 2)
    assert (sig[1] == EMPTY_SIG32).all() and (sig[2] == EMPTY_SIG32).all()
    assert (sig == minhash_signatures(flat, off, seeds)).all()
    sh = simhash_signatures(flat, off, max_chunk_rows=4)
    assert (sh == simhash_signatures(flat, off)).all() and sh[1] == 0


def test_minhash_trailing_empty_row_keeps_last_shingle():
    """Regression: an empty row at a chunk's end must not cut the last
    shingle off the row before it (its start used to be clipped to the
    chunk end, which closed the previous row's reduceat segment early)."""
    seeds = make_perm_seeds(128, 42)
    flat = np.array([5, 2**40 + 3], dtype=np.uint64)
    whole = minhash_signatures(flat, np.array([0, 2]), seeds)
    sig = minhash_signatures(flat, np.array([0, 2, 2]), seeds)
    assert (sig[0] == whole[0]).all() and (sig[1] == EMPTY_SIG32).all()


def test_simhash_trailing_empty_row_keeps_last_shingle():
    """Regression: the SimHash twin of the MinHash case above — an empty
    row ending a chunk must not drop the last shingle from the bit sums of
    the row before it, in one chunk or across chunk edges."""
    flat = np.array([5, 2**40 + 3], dtype=np.uint64)
    sig = simhash_signatures(flat, np.array([0, 2, 2]))
    assert sig.tolist() == [2**40 + 7, 0]
    rng = np.random.default_rng(3)
    lens = rng.integers(0, 4, size=60)
    lens[::7] = 0
    off = np.concatenate([[0], np.cumsum(lens)])
    flat = rng.integers(0, 2**63, size=int(off[-1]), dtype=np.uint64)
    per_row = [simhash_signatures(flat[a:b], np.array([0, b - a]))[0] if b > a else 0
               for a, b in zip(off[:-1], off[1:])]
    for chunk in (1, 2, 5, 10_000):
        assert simhash_signatures(flat, off, max_chunk_rows=chunk).tolist() == per_row


def test_minhash_chunking_invariant():
    th, off = tokenize(TEXTS * 20)
    sh, soff = shingles(th, off, 5)
    seeds = make_perm_seeds(128, 42)
    a = minhash_signatures(sh, soff, seeds)
    b = minhash_signatures(sh, soff, seeds, max_chunk_cells=512)
    assert (a == b).all()


def test_minhash_bag_equals_set_edge_rows_and_chunks():
    """Bag == set on empty, 1-element and all-duplicate rows, in one batch
    whose shingle count crosses OPH's 48k sort chunk and perm's
    ``max_chunk_cells`` (375 shingles at 128 perms)."""
    rng = np.random.default_rng(9)
    rows = [np.empty(0, np.uint64), np.array([7], np.uint64), np.full(50, 3, np.uint64)]
    for n in rng.integers(500, 4000, 40):
        pool = rng.integers(0, 2**64, max(1, n // 3), dtype=np.uint64)
        rows += [pool[rng.integers(0, pool.shape[0], n)], np.empty(0, np.uint64)]
    rows += [np.full(2, 11, np.uint64), np.array([5], np.uint64)]
    flat = np.concatenate(rows)
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([r.shape[0] for r in rows], out=off[1:])
    uflat, uoff = unique_per_row(flat, off)
    assert flat.shape[0] > 48_000 and uflat.shape[0] < flat.shape[0]

    oph = minhash_signatures_oph(flat, off, 128, 11)
    assert (oph == minhash_signatures_oph(uflat, uoff, 128, 11)).all()
    seeds = make_perm_seeds(128, 42)
    perm = minhash_signatures(flat, off, seeds)
    assert (perm == minhash_signatures(uflat, uoff, seeds)).all()
    empty = np.diff(off) == 0
    assert (oph[empty] == EMPTY_SIG32).all() and (perm[empty] == EMPTY_SIG32).all()
    assert (oph[~empty] != EMPTY_SIG32).any(axis=1).all()


@pytest.mark.parametrize("mode", ["oph", "perm"])
def test_signature_stage_matches_sorting_reference(monkeypatch, mode):
    """The stage's MinHash over the shingle bag gives the same table as a
    reference stage that sorts each row's shingles into a set first, on the
    planted corpus."""
    import pyarrow as pa

    import europa_ray.stages.signatures as sigmod
    from europa_ray.config import EngineConfig
    from europa_ray.corpus import generate_corpus

    files = generate_corpus(n_rows=1000, seed=42)["files"]
    cfg = EngineConfig(minhash_mode=mode)
    batches = [files.slice(i, 256) for i in range(0, files.num_rows, 256)]
    got = pa.concat_tables(sigmod.SignatureStage(cfg, compute_fuzzy=False)(b) for b in batches)
    shingles_bag = sigmod.shingles
    monkeypatch.setattr(sigmod, "shingles", lambda th, off, k: unique_per_row(*shingles_bag(th, off, k)))
    want = pa.concat_tables(sigmod.SignatureStage(cfg, compute_fuzzy=False)(b) for b in batches)
    assert got.num_rows > 0
    assert got.equals(want)


def test_minhash_jaccard_estimate_quality():
    """128 perms ⇒ stderr ≈ sqrt(J(1-J)/128) ≈ 0.044; assert within 4σ."""
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 60, size=500, dtype=np.uint64)
    b = np.concatenate([a[:350], rng.integers(0, 1 << 60, size=150, dtype=np.uint64)])
    true_j = len(set(a.tolist()) & set(b.tolist())) / len(set(a.tolist()) | set(b.tolist()))
    seeds = make_perm_seeds(128, 42)
    flat = np.concatenate([a, b])
    off = np.array([0, len(a), len(a) + len(b)])
    sig = minhash_signatures(flat, off, seeds)
    est = (sig[0] == sig[1]).mean()
    assert abs(est - true_j) < 4 * np.sqrt(true_j * (1 - true_j) / 128)


def test_simhash_oracle_and_similarity():
    th, off = tokenize(TEXTS)
    sh, soff = shingles(th, off, 5)
    sims = simhash_signatures(sh, soff)
    # brute oracle for row 0
    seg = sh[soff[0] : soff[1]]
    acc = np.zeros(64)
    for v in seg:
        for b in range(64):
            acc[b] += 1 if (int(v) >> b) & 1 else -1
    brute = sum(1 << b for b in range(64) if acc[b] >= 0)
    assert int(sims[0]) == brute
    assert sims[2] == 0  # empty row
    assert sims[0] == sims[5]


def test_hamming64():
    a = np.array([0b1011, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    b = np.array([0b0010, 0], dtype=np.uint64)
    assert hamming64(a, b).tolist() == [2, 64]


def test_band_keys_properties():
    seeds = make_perm_seeds(128, 42)
    rng = np.random.default_rng(1)
    sig = rng.integers(0, 1 << 60, size=(3, 128), dtype=np.uint64)
    sig[1] = sig[0]  # identical → all 16 bands collide
    bk = band_keys(sig, 16, 8)
    assert bk.shape == (3, 16)
    assert (bk[0] == bk[1]).all()
    assert (bk[0] != bk[2]).all()
    # same values in different band positions must not collide
    assert len(set(bk[0].tolist())) == 16 or (np.unique(sig[0]).size < 128)


def test_simhash_band_keys_pigeonhole():
    rng = np.random.default_rng(2)
    h = rng.integers(0, 1 << 63, size=1, dtype=np.uint64)
    # flip 3 bits → at least one of 4 pieces unchanged
    h2 = h ^ np.uint64((1 << 3) | (1 << 20) | (1 << 40))
    bk = simhash_band_keys(np.concatenate([h, h2]))
    assert (bk[0] == bk[1]).sum() >= 1


def test_config_validation():
    from europa_ray.config import EngineConfig

    with pytest.raises(ValueError):
        EngineConfig(lsh_bands=10, lsh_rows=8, num_perm=128)
    with pytest.raises(ValueError):
        EngineConfig(shingle_k=0)
    with pytest.raises(ValueError):
        EngineConfig(min_size=10, max_size=5)
    with pytest.raises(ValueError):
        EngineConfig(simhash_max_hamming=65)


def test_hex_to_u64_arrow_parity():
    """Vectorized nibble decode == scalar int(h[:16],16) loop, incl. the
    irregular-width and chunked fallbacks."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from europa_ray.util import hex_to_u64, hex_to_u64_arrow

    hexes = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(257)]
    col = pa.array(hexes, pa.string())
    assert (hex_to_u64_arrow(col) == hex_to_u64(hexes)).all()
    # sliced + chunked input
    ch = pa.chunked_array([col.slice(0, 100), col.slice(100)])
    assert (hex_to_u64_arrow(ch) == hex_to_u64(hexes)).all()
    sl = col.slice(13, 200)
    assert (hex_to_u64_arrow(sl) == hex_to_u64(hexes[13:213])).all()
    # irregular width falls back to the scalar loop
    irr = pa.array(["ff" * 8, "a" * 64], pa.string())
    assert (hex_to_u64_arrow(irr) == hex_to_u64(["ff" * 8, "a" * 64])).all()
    assert hex_to_u64_arrow(pa.array([], pa.string())).shape == (0,)


def test_hex_to_u256_arrow_full_digest_exact():
    """Full-digest structured keys: scalar parity, slice/chunk handling, and
    the prefix-collision property the exact-dedup driver path relies on —
    two digests sharing a 16-hex prefix but differing later are DIFFERENT
    keys (the 64-bit prefix key would have conflated them)."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from europa_ray.util import hex_to_u256_arrow

    hexes = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(300)]
    col = pa.array(hexes, pa.string())
    keys = hex_to_u256_arrow(col)
    for i in (0, 7, 299):
        v = int(hexes[i], 16)
        for qi in range(4):
            assert int(keys[f"q{qi}"][i]) == (v >> (64 * (3 - qi))) & (2**64 - 1)
    sl = hex_to_u256_arrow(col.slice(13, 200))
    assert (sl == keys[13:213]).all()
    ch = hex_to_u256_arrow(pa.chunked_array([col.slice(0, 100), col.slice(100)]))
    assert (ch == keys).all()
    # shared 16-hex prefix, different tails → distinct keys; exact dups equal
    a = hexes[0][:16] + "0" * 48
    b = hexes[0][:16] + "f" * 48
    kk = hex_to_u256_arrow(pa.array([a, b, a], pa.string()))
    assert kk[0] != kk[1] and kk[0] == kk[2]
    assert np.unique(kk).shape[0] == 2
    assert hex_to_u256_arrow(pa.array([], pa.string())).shape == (0,)


def test_oph_chunked_equals_unchunked_layout():
    """Row-aligned chunked sort is exactly the global min-per-(row,bin):
    batch output equals per-row output for every row."""
    import numpy as np

    from europa_ray.functions.sig import minhash_signatures_oph

    rng = np.random.default_rng(5)
    lens = rng.integers(0, 3000, 64)
    flat = rng.integers(0, 2**63, int(lens.sum())).astype(np.uint64)
    off = np.zeros(65, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    batch = minhash_signatures_oph(flat, off, 128, 11)
    for i in range(64):
        row = flat[off[i] : off[i + 1]]
        single = minhash_signatures_oph(row, np.array([0, len(row)], np.int64), 128, 11)
        assert (batch[i] == single[0]).all(), i


def test_add_global_row_index(ray_session):
    """Contiguous 0-based enumerate over a sorted dataset; order preserved
    across blocks (block-metadata prefix sums, no shuffle)."""
    import pyarrow as pa
    import ray.data

    from europa_ray.util import add_global_row_index

    t = pa.table({"k": list(range(100, 0, -1))})
    ds = ray.data.from_arrow(t).repartition(7).sort("k").materialize()
    out = add_global_row_index(ds).to_pandas()
    assert out["row_index"].tolist() == list(range(100))
    assert out["k"].tolist() == sorted(range(1, 101))
    # custom column name
    out2 = add_global_row_index(ds, index_col="pos").to_pandas()
    assert out2["pos"].tolist() == list(range(100))


def test_add_global_row_index_empty(ray_session):
    import pyarrow as pa
    import ray.data

    from europa_ray.util import add_global_row_index

    ds = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())})).materialize()
    out = add_global_row_index(ds)
    df = out.to_pandas()
    assert len(df) == 0


def test_add_global_row_index_pandas_blocks(ray_session):
    """Blocks stored as pandas frames are indexed too, and come out Arrow."""
    import pandas as pd
    import ray.data

    from europa_ray.util import add_global_row_index

    ds = ray.data.from_pandas([pd.DataFrame({"k": [3, 1]}), pd.DataFrame({"k": [2]})])
    out = add_global_row_index(ds.materialize()).to_pandas()
    assert out["row_index"].tolist() == [0, 1, 2]
    assert out["k"].tolist() == [3, 1, 2]


def test_remote_fn_made_once(ray_session):
    """Raw-task rounds reuse one remote function per Python function."""
    from europa_ray.util import _on_arrow_block, remote_fn

    assert remote_fn(_on_arrow_block) is remote_fn(_on_arrow_block)
