"""The cache-sized signature kernels pinned bit for bit to the reference
implementations in ``tests/kernel_refs.py`` (byte-class LUT tokenizer,
row-id shingle scatter, whole-batch OPH key build), plus the fused
read → signature stage."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from europa_ray.config import DEFAULT_CONFIG
from europa_ray.functions import text
from europa_ray.functions.sig import minhash_signatures_oph
from tests import kernel_refs as ref

# every byte class and its edges: word bytes (letters, digits, '_'), RE2's
# spaces, \v (a token byte), punct below and above the classes, and bytes
# >= 0x80 (UTF-8 lead/continuation bytes and invalid ones)
_BYTES = b"azAZ09_mQ \t\n\r\f\v\x00\x1f!/:@[`{~\x7f\x80\xbf\xc3\xa9\xe2\xff"

byte_rows = st.lists(
    st.one_of(
        st.binary(max_size=0),
        st.sampled_from([bytes([b]) for b in _BYTES]),
        st.lists(st.sampled_from(list(_BYTES)), max_size=60).map(bytes),
        # long word runs: tokens past the 8- and 16-byte affixes
        st.integers(min_value=1, max_value=40).map(lambda n: b"x_9" * n),
    ),
    max_size=10,
)


def _flat(rows: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    data = np.frombuffer(b"".join(rows), dtype=np.uint8).copy()
    roff = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=roff[1:])
    return data, roff


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@settings(max_examples=300, deadline=None)
@given(byte_rows)
def test_token_boundaries_and_hashes_match_reference(rows):
    data, roff = _flat(rows)
    if data.shape[0]:
        _assert_same(text._token_boundaries(data, roff), ref.token_boundaries(data, roff))
    want = ref.tokenize_bytes(data, roff)
    _assert_same(text.tokenize_bytes(data, roff), want)
    for max_tokens in (0, 1, 3):
        _assert_same(
            text.tokenize_bytes(data, roff, max_tokens),
            text.truncate_rows(*want, max_tokens),
        )


def test_token_hashes_match_reference_on_edge_rows():
    """Empty rows, 1-byte rows, rows ending inside a word (the next row
    starting with one), \\v, \\f and high bytes, in one batch."""
    rows = [b"", b"a", b"_", b"\v", b"\f", b"ab", b"cd", b"", b"x\x0by\x0cz",
            b"\xc3\xa9t\xc3\xa9", b"9_", b"_9", b"a" * 17, b"b" * 8, b"c" * 9, b"\xff", b"q"]
    data, roff = _flat(rows)
    _assert_same(text._token_boundaries(data, roff), ref.token_boundaries(data, roff))
    _assert_same(text.tokenize_bytes(data, roff), ref.tokenize_bytes(data, roff))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=30), max_size=12),
    st.sampled_from([1, 5, 16]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_shingles_match_reference(lens, k, fallback, seed):
    rng = np.random.default_rng(seed)
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    # few distinct tokens, so windows repeat within and across rows
    th = rng.integers(0, 4, int(offsets[-1])).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    _assert_same(
        text.shingles(th, offsets, k, short_row_fallback=fallback),
        ref.shingles(th, offsets, k, short_row_fallback=fallback),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=8),
    st.sampled_from([1, 16, 128]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_oph_matches_reference(lens, num_perm, seed):
    """Random rows, including empty rows and rows with fewer shingles than
    bins (circular densification)."""
    rng = np.random.default_rng(seed)
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    sh = rng.integers(0, 2**63, int(offsets[-1]), dtype=np.int64).astype(np.uint64)
    np.testing.assert_array_equal(
        minhash_signatures_oph(sh, offsets, num_perm, seed % 1000),
        ref.minhash_signatures_oph(sh, offsets, num_perm, seed % 1000),
    )


def test_oph_matches_reference_on_edge_batches():
    sh = np.arange(1, 40, dtype=np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
    for offsets in ([0, 39], [0, 1], [0, 0], [0, 0, 3, 3], [0, 3, 3, 3, 39], [0, 39, 39]):
        offsets = np.array(offsets, dtype=np.int64)
        flat = sh[: offsets[-1]]
        np.testing.assert_array_equal(
            minhash_signatures_oph(flat, offsets, 128, 1),
            ref.minhash_signatures_oph(flat, offsets, 128, 1),
        )


def _reference_signatures(batch: pa.Table, cfg) -> pa.Table:
    """The signature table as the stage built it per 2,048-row batch, from
    the reference kernels."""
    from europa_ray.stages.signatures import pack_sigs

    parts = []
    for i in range(0, batch.num_rows, 2048):
        b = batch.slice(i, 2048)
        data, roff = text.arrow_string_bytes(b["content"])
        th, off = text.truncate_rows(*ref.tokenize_bytes(data, roff), cfg.max_sig_tokens)
        sh, soff = ref.shingles(th, off, cfg.shingle_k)
        sig = ref.minhash_signatures_oph(sh, soff, cfg.num_perm, cfg.seed)
        keep = np.diff(roff) > 0
        sha = [hashlib.sha256(t.encode()).hexdigest() for t in b["content"].to_pylist() if t]
        parts.append(
            pa.table(
                {
                    "repo": b["repo"].filter(pa.array(keep)),
                    "sha256": pa.array(sha, pa.string()),
                    "node": pa.array(
                        np.array([int(h[:16], 16) for h in sha], np.uint64).view(np.int64)
                    ),
                    "n_tokens": pa.array(np.diff(off)[keep]),
                    "minhash": pack_sigs(sig[keep]),
                }
            )
        )
    return pa.concat_tables(parts)


def test_signature_task_matches_per_batch_reference():
    """One block across several byte chunks, with a 1.4 MB row and empty
    rows, signs as the reference kernels sign it 2,048 rows at a time."""
    from europa_ray.stages.signatures import SIGN_CHUNK_BYTES, byte_chunks, signature_task

    rng = np.random.default_rng(5)
    words = ["def", "x_1", "return", "(", ")", ":", "+", "self.value", "\n    ", " "]
    rows = [
        "".join(rng.choice(words, int(rng.integers(0, 400))))
        for _ in range(4500)
    ]
    rows[3000] = "".join(rng.choice(words, 450_000))  # ~1.4 MB
    for i in (7, 2047, 2048, 4000):
        rows[i] += " caf\u00e9 = 1"  # non-ASCII rows take the regex path
    batch = pa.table({"repo": [f"r{i}" for i in range(len(rows))], "content": rows})
    _, roff = text.arrow_string_bytes(batch["content"])
    assert roff[3001] - roff[3000] > 1_300_000
    assert len(byte_chunks(roff, SIGN_CHUNK_BYTES)) >= 4

    cfg = DEFAULT_CONFIG
    got = signature_task(batch, cfg, id_cols=("repo",), compute_fuzzy=False)
    assert got.equals(_reference_signatures(batch, cfg))


def test_byte_chunks_cover_rows_in_order():
    from europa_ray.stages.signatures import byte_chunks

    roff = np.array([0, 3, 3, 10, 25, 26, 40, 41], dtype=np.int64)
    assert byte_chunks(roff, 10) == [(0, 3), (3, 4), (4, 6), (6, 7)]
    assert byte_chunks(np.zeros(1, np.int64), 10) == [(0, 0)]


def test_read_fuses_into_signature_task(ray_session, tiny_corpus, monkeypatch):
    """The read and the signature map run as one operator, so file bodies
    do not pass through the object store between them. Read under the
    1-CPU block rule: a read asked for more blocks than its files give
    splits them, and Ray fuses no map into a splitting read."""
    import europa_ray.util
    from europa_ray.sources.files import read_files
    from europa_ray.stages.signatures import signatures

    monkeypatch.setattr(europa_ray.util, "cluster_cpus", lambda: 1)
    stats = signatures(read_files(tiny_corpus), DEFAULT_CONFIG).materialize().stats()
    ops = [line for line in stats.splitlines() if line.startswith("Operator ")]
    assert len(ops) == 1, ops
    assert "ReadParquet->MapBatches(signature_task)" in ops[0]
