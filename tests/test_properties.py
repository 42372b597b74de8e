"""Property-based tests (hypothesis) for the pure kernels, plus unit tests
for the classifier and neighbor-set operators."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from europa_ray.functions.sig import make_perm_seeds, minhash_signatures
from europa_ray.functions.text import TOKEN_RE, shingles, tokenize, unique_per_row

texts_strategy = st.lists(
    st.text(
        alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
        max_size=200,
    ),
    min_size=0,
    max_size=8,
)


@settings(max_examples=50, deadline=None)
@given(texts_strategy)
def test_tokenize_counts_match_regex(texts):
    th, off = tokenize(texts)
    assert off[-1] == sum(len(TOKEN_RE.findall(t)) for t in texts)
    assert np.diff(off).tolist() == [len(TOKEN_RE.findall(t)) for t in texts]


@settings(max_examples=50, deadline=None)
@given(texts_strategy)
def test_batch_vs_single_row_shingles_identical(texts):
    """Batching must never change a row's shingle multiset (boundary
    masking)."""
    th, off = tokenize(texts)
    sh, soff = shingles(th, off, 5)
    for i, t in enumerate(texts):
        th1, off1 = tokenize([t])
        sh1, _ = shingles(th1, off1, 5)
        assert sorted(sh1.tolist()) == sorted(sh[soff[i] : soff[i + 1]].tolist())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=0, max_size=300))
def test_minhash_permutation_invariance(vals):
    """Signature depends only on the shingle SET: order and duplicates
    must not matter."""
    seeds = make_perm_seeds(128, 42)
    arr = np.array(vals, dtype=np.uint64)
    rng = np.random.default_rng(0)
    shuffled = arr.copy()
    rng.shuffle(shuffled)
    dup = np.concatenate([arr, arr[: len(arr) // 2]])
    for variant in (shuffled, dup):
        a, _ = unique_per_row(arr, np.array([0, len(arr)]))
        b, _ = unique_per_row(variant, np.array([0, len(variant)]))
        sig_a = minhash_signatures(a, np.array([0, len(a)]), seeds)
        sig_b = minhash_signatures(b, np.array([0, len(b)]), seeds)
        assert (sig_a == sig_b).all()


# a small value pool forces repeated shingles inside a row
_POOL = np.random.default_rng(3).integers(0, 2**64, 40, dtype=np.uint64)
bags_strategy = st.lists(
    st.lists(st.integers(0, len(_POOL) - 1), max_size=60), min_size=0, max_size=10
)


def _row_offsets(rows):
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=off[1:])
    return off


@settings(max_examples=50, deadline=None)
@given(bags_strategy)
def test_minhash_bag_equals_set(rows):
    """MinHash keeps a per-slot minimum, so the signature of a shingle bag
    equals that of its per-row set, for both kernels."""
    from europa_ray.functions.sig import minhash_signatures_oph

    flat = _POOL[np.array([i for r in rows for i in r], dtype=np.int64)]
    off = _row_offsets(rows)
    uflat, uoff = unique_per_row(flat, off)
    seeds = make_perm_seeds(128, 42)
    assert (minhash_signatures_oph(flat, off, 128, 7)
            == minhash_signatures_oph(uflat, uoff, 128, 7)).all()
    assert (minhash_signatures(flat, off, seeds)
            == minhash_signatures(uflat, uoff, seeds, max_chunk_cells=128 * 3)).all()


# rows rich in word bytes at both ends, so adjacent rows would merge their
# word runs if a run crossed a row boundary; \v is a token byte
edge_texts_strategy = st.lists(
    st.text(alphabet=st.sampled_from(list("ab_Z9 \t\n\r\f\v(;.") + ["é", "€", "漢"]),
            max_size=30),
    min_size=0,
    max_size=8,
)
byte_rows_strategy = st.lists(
    st.one_of(
        st.binary(max_size=30),  # mostly invalid UTF-8
        st.text(alphabet=st.sampled_from(list("ab_9 \n\v(") + ["é"]), max_size=30)
        .map(lambda t: t.encode("utf-8")),
    ),
    min_size=0,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(texts_strategy, edge_texts_strategy))
def test_tokenize_hashes_match_regex(texts):
    """Every row's token hashes are the reference byte hash of each
    ``TOKEN_RE`` match, in order (pins values, not only counts)."""
    from europa_ray.functions.text import _byte_token_hash

    th, off = tokenize(texts)
    for i, t in enumerate(texts):
        want = [_byte_token_hash(m.encode("utf-8")) for m in TOKEN_RE.findall(t)]
        assert th[off[i] : off[i + 1]].tolist() == want


@settings(max_examples=60, deadline=None)
@given(byte_rows_strategy)
def test_token_hashes_and_spans_match_regex_on_bytes(rows):
    """Raw byte rows, invalid UTF-8 included: hashes follow ``TOKEN_RE`` over
    the replacement-decoded text; ``token_spans`` (same boundary pass)
    gives the byte span of every ``TOKEN_RE`` match of a decodable row and
    flags undecodable rows as passthrough with no tokens."""
    from europa_ray.functions.text import _byte_token_hash, token_spans, tokenize_bytes

    data = np.frombuffer(b"".join(rows), dtype=np.uint8)
    roff = _row_offsets(rows)
    th, off = tokenize_bytes(data, roff)
    ss, se, soff, passthrough = token_spans(data, roff)
    for i, raw in enumerate(rows):
        text = raw.decode("utf-8", errors="replace")
        want = [_byte_token_hash(m.encode("utf-8")) for m in TOKEN_RE.findall(text)]
        assert th[off[i] : off[i + 1]].tolist() == want
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            assert passthrough[i] and soff[i] == soff[i + 1]
            continue
        assert not passthrough[i]
        spans = [
            (len(text[: m.start()].encode("utf-8")), len(text[: m.end()].encode("utf-8")))
            for m in TOKEN_RE.finditer(text)
        ]
        got = list(zip((ss[soff[i] : soff[i + 1]] - roff[i]).tolist(),
                       (se[soff[i] : soff[i + 1]] - roff[i]).tolist()))
        assert got == spans


def test_identify_kind_chain():
    from europa_ray.stages.classify import identify_kind

    batch = pa.table(
        {
            "lang": pa.array(["python", "en", "nosuch", None]),
            "path": pa.array(["a/b.py", "x/y.rs", "z/w.weird", "n/o.MD"]),
        }
    )
    out = identify_kind(batch)
    # lang wins when known; else extension chain; else unknown
    assert out["kind"].to_pylist() == ["python", "rust", "unknown", "md"]


def test_neighbor_sets(ray_session):
    import ray.data

    from europa_ray.pipelines.neardup import neighbor_sets

    pairs = ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array([1, 1, 2], pa.int64()),
                "b": pa.array([2, 3, 3], pa.int64()),
            }
        )
    )
    out = neighbor_sets(pairs).to_pandas().sort_values("node").reset_index(drop=True)
    got = {int(r.node): sorted(r.neighbors) for r in out.itertuples()}
    assert got == {1: [2, 3], 2: [1, 3], 3: [1, 2]}
    assert out.n_neighbors.tolist() == [2, 2, 2]


@settings(max_examples=50, deadline=None)
@given(texts_strategy)
def test_token_count_arrow_matches_regex(texts):
    from europa_ray.functions.text import token_count_arrow, token_counts

    arr = pa.array([t for t in texts], pa.string())
    got = token_count_arrow(arr)
    assert got.tolist() == token_counts(texts).tolist()


def test_token_count_arrow_edge_bytes():
    from europa_ray.functions.text import token_count_arrow, token_counts

    texts = ["a\x0bb", "", "x", "\u00e9 caf\u00e9 1+2", "tab\tsep", None, "\v\v"]
    arr = pa.array(texts, pa.string())
    got = token_count_arrow(arr)
    want = token_counts(texts)
    assert got.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# round-4 operator kernels
# ---------------------------------------------------------------------------

words_strategy = st.lists(
    st.lists(
        st.sampled_from([f"w{i}" for i in range(12)]), min_size=1, max_size=60
    ).map(" ".join),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(words_strategy, st.integers(min_value=1, max_value=9))
def test_doc_chunks_partition_property(texts, c):
    """Chunks are a PARTITION of each doc's token stream: per-doc chunk
    sizes sum to the token count, all but the last chunk are full, and
    chunk_idx is dense from 0."""
    from europa_ray.pipelines.chunking import doc_chunks_batch

    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "content": pa.array(texts, pa.string()),
        }
    )
    got = doc_chunks_batch(t, chunk_tokens=c)
    per: dict[int, list[tuple[int, int]]] = {}
    for d, i, n in zip(
        got["doc_id"].to_pylist(), got["chunk_idx"].to_pylist(),
        got["n_tokens"].to_pylist(),
    ):
        per.setdefault(d, []).append((i, n))
    for d, txt in enumerate(texts):
        n_tok = len(txt.split(" "))
        chunks = sorted(per[d])
        assert [i for i, _ in chunks] == list(range(len(chunks)))
        assert sum(n for _, n in chunks) == n_tok
        assert all(n == c for _, n in chunks[:-1])
        assert 1 <= chunks[-1][1] <= c


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([f"w{i}" for i in range(30)]), min_size=6, max_size=80),
    st.data(),
)
def test_containment_probe_lemma(tokens, data):
    """The completeness lemma the explode relies on: if C(A→B) ≥ τ then A's
    probe prefix intersects B's full gram set. A is a contiguous slice of
    B (containment 1.0 ≥ any τ), so the probe grams MUST hit."""
    from europa_ray.pipelines.containment import _explode_probe_index

    b_text = " ".join(tokens)
    n = len(tokens)
    s = data.draw(st.integers(min_value=0, max_value=n - 5))
    ln = data.draw(st.integers(min_value=5, max_value=n - s))
    a_text = " ".join(tokens[s : s + ln])
    t = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "content": pa.array([a_text, b_text], pa.string()),
        }
    )
    ex = _explode_probe_index(t, tau=0.8, k=5)
    nd = ex["node"].to_numpy()
    g = ex["gram"].to_numpy()
    pb = ex["probe"].to_numpy()
    nodes = np.unique(nd)
    if nodes.shape[0] < 2:  # identical contents collapse to one node
        return
    # node of A = the one whose full gram set is a subset of the other's
    sets = {int(x): set(g[nd == x].tolist()) for x in nodes}
    (na, A), (nb, B) = sets.items()
    if not (A <= B):
        (na, A), (nb, B) = (nb, B), (na, A)
    assert A <= B
    probe_a = set(g[(nd == na) & (pb == 1)].tolist())
    assert probe_a & B  # the lemma: some probe gram of A is in B
