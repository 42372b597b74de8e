"""Chunking plan and chunk-level dup report (pipelines/chunking.py):
brute-force parity and boundary semantics."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from europa_ray.pipelines.chunking import doc_chunks_batch


def _mk_docs(n: int, seed: int = 11) -> pa.Table:
    rng = np.random.default_rng(seed)
    words = np.array(["a", "bb", "ccc", "dddd", "e", "ff"])
    texts = [
        " ".join(words[rng.integers(0, len(words), int(rng.integers(1, 50)))])
        for _ in range(n)
    ]
    texts[0] = ""
    texts[1] = None
    texts[2] = "solo"  # 1 token
    texts[3] = " ".join(["x"] * 16)  # exactly one full chunk at C=16
    texts[4] = " ".join(["y"] * 17)  # full chunk + 1-token remainder
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "content": pa.array(texts, pa.string()),
        }
    )


def _brute_chunks(t: pa.Table, c: int) -> set[tuple]:
    out = set()
    for d, txt in zip(t["doc_id"].to_pylist(), t["content"].to_pylist()):
        if not txt:
            continue
        toks = txt.split(" ")
        for i in range(0, len(toks), c):
            piece = " ".join(toks[i : i + c])
            out.add(
                (
                    d,
                    i // c,
                    len(toks[i : i + c]),
                    hashlib.sha256(piece.encode()).hexdigest(),
                )
            )
    return out


@pytest.mark.parametrize("c", [1, 3, 16])
def test_doc_chunks_matches_bruteforce(c):
    t = _mk_docs(120)
    got = doc_chunks_batch(t, chunk_tokens=c)
    rows = set(
        zip(
            got["doc_id"].to_pylist(),
            got["chunk_idx"].to_pylist(),
            got["n_tokens"].to_pylist(),
            got["chunk_sha"].to_pylist(),
        )
    )
    assert rows == _brute_chunks(t, c)


def test_doc_chunks_boundaries():
    t = _mk_docs(6)
    got = doc_chunks_batch(t, chunk_tokens=16)
    by_doc = {}
    for d, i, n in zip(
        got["doc_id"].to_pylist(), got["chunk_idx"].to_pylist(), got["n_tokens"].to_pylist()
    ):
        by_doc.setdefault(d, []).append((i, n))
    assert 0 not in by_doc and 1 not in by_doc  # empty/null excluded
    assert by_doc[2] == [(0, 1)]
    assert by_doc[3] == [(0, 16)]  # exact multiple: no empty trailing chunk
    assert sorted(by_doc[4]) == [(0, 16), (1, 1)]


def test_doc_chunks_rejects_bad_c():
    with pytest.raises(ValueError):
        doc_chunks_batch(_mk_docs(6), chunk_tokens=0)


def _brute_chunk_dups(t: pa.Table, c: int) -> set[tuple]:
    from collections import Counter

    per_doc: dict[int, list[str]] = {}
    for d, txt in zip(t["doc_id"].to_pylist(), t["content"].to_pylist()):
        if not txt:
            continue
        toks = txt.split(" ")
        per_doc[d] = [
            hashlib.sha256(" ".join(toks[i : i + c]).encode()).hexdigest()
            for i in range(0, len(toks), c)
        ]
    freq = Counter(s for shas in per_doc.values() for s in shas)
    return {
        (d, len(shas), sum(1 for s in shas if freq[s] > 1))
        for d, shas in per_doc.items()
    }


@pytest.mark.parametrize("budget", [20_000_000, 0])
def test_chunk_dup_stats_matches_bruteforce(ray_session, budget):
    """Broadcast and forced-join paths equal brute force; versioned docs
    share leading chunks."""
    import ray.data

    from europa_ray.pipelines.chunking import chunk_dup_stats

    t = _mk_docs(100, seed=17)
    # planted: an exact dup pair (all chunks dup) and a shared-prefix pair
    texts = t["content"].to_pylist()
    texts[10] = " ".join(["p"] * 40)
    texts[11] = texts[10]
    texts[12] = " ".join(["p"] * 16 + ["q"] * 5)  # shares chunk 0 with 10/11
    t = t.set_column(1, "content", pa.array(texts, pa.string()))

    got = chunk_dup_stats(
        ray.data.from_arrow(t).repartition(4),
        chunk_tokens=16,
        dup_broadcast_max=budget,
    ).to_pandas()
    rows = set(zip(got.doc_id, got.n_chunks, got.n_dup_chunks))
    want = _brute_chunk_dups(t, 16)
    assert rows == want
    m = {d: (n, k) for d, n, k in rows}
    assert m[10] == (3, 3) and m[11] == (3, 3)  # exact dup: all chunks dup
    assert m[12] == (2, 1)  # shares exactly the leading chunk
