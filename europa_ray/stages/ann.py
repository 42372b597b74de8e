"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — per-batch NumPy matmul against a
broadcast (``ray.put``) query matrix, per-batch partial top-k, small driver
merge. Scale path: random-hyperplane LSH buckets so each query only scans
its bucket — the same banding idea the MinHash path uses, here over sign
bits of random projections.

Also: embedding near-duplicate pairs (cosine ≥ τ), the embedding analog of
the content near-dup passes.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray
import ray.data

_log = logging.getLogger(__name__)


def _embedding_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _topk_tie_safe_matrix(sims: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
    """Per column of an (n, nq) score matrix, the ``kk`` largest scores PLUS
    every row tied with the kk-th — so downstream (score DESC, id ASC)
    merging never loses a smaller-id tie to per-batch truncation. One
    ``np.partition`` along axis 0 instead of a Python loop over queries.
    Returns (row_idx, query_idx) of every kept candidate."""
    n = sims.shape[0]
    if kk >= n:
        thresh = sims.min(axis=0)
    else:
        thresh = np.partition(sims, n - kk, axis=0)[n - kk]
    rows, qs = np.nonzero(sims >= thresh[None, :])
    return rows, qs


def brute_force_topk(
    embeddings: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    *,
    k: int = 5,
    id_col: str = "vec_id",
    exclude_self: bool = True,
) -> pa.Table:
    """Exact cosine top-k of each query against the full dataset.

    Streams batches; each batch contributes its local top-k per query
    (batch_rows × n_queries matmul), merged in a driver-side heap — the
    driver never holds more than n_queries × k × n_batches candidates.
    """
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(qn)

    def score(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        m = _normalize(_embedding_matrix(batch))
        ids = batch[id_col].to_numpy()
        sims = m @ q.T  # (n, nq)
        rows, qs = _topk_tie_safe_matrix(sims, min(k + 1, sims.shape[0]))
        return pa.table(
            {
                "qidx": pa.array(qs.astype(np.int64)),
                "neighbor_id": pa.array(ids[rows]),
                "score": pa.array(sims[rows, qs], pa.float64()),
            }
        )

    scored = embeddings.map_batches(score, batch_format="pyarrow")
    return _merge_topk(scored, np.asarray(query_ids), k, exclude_self=exclude_self)


def _merge_topk(
    scored, query_ids: np.ndarray, k: int, *, exclude_self: bool = True
) -> pa.Table:
    """Driver merge of per-batch partial top-k rows — one vectorized
    lexsort over the (small: ≤ n_queries × (k+1) × n_batches) candidate
    stream instead of per-row Python heaps. Tie order matches the oracle:
    score DESC, neighbor_id ASC."""
    qi_p, ni_p, sc_p = [], [], []
    for batch in scored.iter_batches(batch_format="pyarrow", batch_size=65536):
        qi_p.append(batch["qidx"].to_numpy())
        ni_p.append(batch["neighbor_id"].to_numpy())
        sc_p.append(batch["score"].to_numpy())
    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
            "rank": pa.array([], pa.int64()),
        }
    )
    if not qi_p:
        return empty
    qi = np.concatenate(qi_p).astype(np.int64)
    ni = np.concatenate(ni_p).astype(np.int64)
    sc = np.concatenate(sc_p).astype(np.float64)
    if exclude_self:
        keep = ni != query_ids[qi]
        qi, ni, sc = qi[keep], ni[keep], sc[keep]
    if qi.shape[0] == 0:
        return empty
    order = np.lexsort((ni, -sc, qi))
    qi, ni, sc = qi[order], ni[order], sc[order]
    newg = np.ones(qi.shape[0], dtype=bool)
    newg[1:] = qi[1:] != qi[:-1]
    group_start = np.maximum.accumulate(np.where(newg, np.arange(qi.shape[0]), 0))
    pos = np.arange(qi.shape[0]) - group_start
    keep = pos < k
    return pa.table(
        {
            "query_id": pa.array(query_ids[qi[keep]], pa.int64()),
            "neighbor_id": pa.array(ni[keep], pa.int64()),
            "score": pa.array(np.round(sc[keep], 4), pa.float64()),
            "rank": pa.array(pos[keep] + 1, pa.int64()),
        }
    )


def _groupwise_topk_tie_safe(
    qs: np.ndarray, sims: np.ndarray, nid: np.ndarray, kk: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query tie-safe top-``kk`` over a flat (query, score, id) candidate
    stream: one lexsort, per-group threshold at the kk-th score, every row
    ≥ it kept (ties included, so the driver merge's id-ASC tiebreak never
    loses a smaller-id tie to per-batch truncation). Returns the kept
    (qs, sims, nid)."""
    total = qs.shape[0]
    if total == 0:
        return qs, sims, nid
    so = np.lexsort((nid, -sims, qs))
    qs, sims, nid = qs[so], sims[so], nid[so]
    newg = np.ones(total, dtype=bool)
    newg[1:] = qs[1:] != qs[:-1]
    gid = np.cumsum(newg) - 1
    gstart = np.nonzero(newg)[0]
    gsize = np.diff(np.concatenate([gstart, [total]]))
    t_idx = gstart + np.minimum(kk, gsize) - 1
    keep = sims >= sims[t_idx][gid]
    return qs[keep], sims[keep], nid[keep]


def hyperplane_bucket_batch(
    batch: pa.Table, planes: np.ndarray, id_col: str = "vec_id"
) -> pa.Table:
    """Assign each vector a signed-projection LSH bucket (uint→int64 key)."""
    m = _normalize(_embedding_matrix(batch))
    bits = (m @ planes.T) >= 0  # (n, nbits)
    key = np.zeros(m.shape[0], dtype=np.uint64)
    for i in range(planes.shape[0]):
        key = (key << np.uint64(1)) | bits[:, i].astype(np.uint64)
    return pa.table(
        {
            "bucket": pa.array(key.view(np.int64)),
            id_col: batch[id_col],
            "embedding": batch["embedding"],
        }
    )


def make_planes(dim: int, n_bits: int = 8, seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_bits, dim))


def lsh_topk(
    embeddings: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    *,
    k: int = 5,
    n_bits: int = 8,
    seed: int = 42,
    id_col: str = "vec_id",
) -> pa.Table:
    """Approximate top-k: each query scans only its hyperplane bucket.

    At scale the bucket column partitions the corpus (groupby-shuffle once,
    reused across query batches); here the query set is broadcast and each
    corpus batch scores only same-bucket queries.
    """
    dim = np.asarray(queries).shape[1]
    planes = make_planes(dim, n_bits, seed)
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    qbits = (qn @ planes.T) >= 0
    qkey = np.zeros(qn.shape[0], dtype=np.uint64)
    for i in range(n_bits):
        qkey = (qkey << np.uint64(1)) | qbits[:, i].astype(np.uint64)
    qkey = qkey.view(np.int64)
    q_ref = ray.put((qn, qkey))
    planes_ref = ray.put(planes)

    empty = pa.table(
        {
            "qidx": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }
    )

    def score(batch: pa.Table) -> pa.Table:
        q, qk = ray.get(q_ref)
        pl = ray.get(planes_ref)
        bucketed = hyperplane_bucket_batch(batch, pl, id_col)
        m = _normalize(_embedding_matrix(bucketed))
        ids = bucketed[id_col].to_numpy()
        bkt = bucketed["bucket"].to_numpy()
        # one sort of the batch, then each query's bucket is a contiguous
        # segment found by searchsorted — no per-query scan of the batch
        order = np.argsort(bkt, kind="stable")
        bs = bkt[order]
        lo = np.searchsorted(bs, qk, side="left")
        hi = np.searchsorted(bs, qk, side="right")
        reps = hi - lo
        sel = np.nonzero(reps > 0)[0]
        if sel.shape[0] == 0:
            return empty
        reps = reps[sel]
        total = int(reps.sum())
        # expand every (query, bucket-member) pair: rows of the sorted batch
        offs = np.zeros(sel.shape[0] + 1, dtype=np.int64)
        np.cumsum(reps, out=offs[1:])
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offs[:-1], reps)
            + np.repeat(lo[sel], reps)
        )
        rows = order[pos]
        qs = np.repeat(sel.astype(np.int64), reps)
        sims = np.einsum("ij,ij->i", m[rows], q[qs])
        nid = ids[rows]
        qs, sims, nid = _groupwise_topk_tie_safe(qs, sims, nid, k + 1)
        return pa.table(
            {
                "qidx": pa.array(qs),
                "neighbor_id": pa.array(nid),
                "score": pa.array(sims, pa.float64()),
            }
        )

    scored = embeddings.map_batches(score, batch_format="pyarrow")
    return _merge_topk(scored, np.asarray(query_ids), k, exclude_self=True)


def train_centroids(
    embeddings: ray.data.Dataset,
    *,
    nlist: int = 64,
    sample_rows: int = 50_000,
    iters: int = 10,
    seed: int = 42,
) -> np.ndarray:
    """Spherical k-means coarse quantizer for IVF (Lloyd iterations on a
    bounded sample — the classic IVF training recipe, e.g. Jégou et al.,
    "Product Quantization for Nearest Neighbor Search", TPAMI 2011, §IV).

    The sample is the dataset head (deterministic; at 100 TB you'd sample a
    fixed fraction per block and union — training cost stays O(sample), not
    O(corpus), either way). Centroids are unit-normalized each iteration so
    assignment maximizes cosine; empty clusters keep their previous
    centroid. Returns an (nlist, dim) float64 matrix."""
    sample = embeddings.take_batch(sample_rows, batch_format="pyarrow")
    m = _normalize(_embedding_matrix(sample))
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    nlist = min(nlist, n)
    cent = m[rng.choice(n, size=nlist, replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)
        for c in range(nlist):
            members = m[assign == c]
            if members.shape[0]:
                cent[c] = members.sum(axis=0)
        cent = _normalize(cent)
    return cent


def ivf_topk(
    embeddings: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    *,
    k: int = 5,
    nlist: int = 64,
    nprobe: int = 8,
    seed: int = 42,
    id_col: str = "vec_id",
    centroids: np.ndarray | None = None,
    sample_rows: int = 50_000,
) -> pa.Table:
    """Approximate cosine top-k via an IVF (inverted-file) coarse quantizer:
    each query scans only the ``nprobe`` centroid cells nearest to it.

    The Ray-Data shape: centroids are broadcast once (``ray.put``); each
    corpus batch assigns its vectors to cells with one matmul and scores
    only (query, row) pairs whose cell is probed by that query — a
    boolean (nq × nlist) probe table indexed by the batch's assignment
    vector, then a flat einsum over the surviving pairs. Per-batch partial
    top-k flows into the same tie-safe driver merge as the brute/LSH
    variants. At 100 TB the cell id becomes the partition key (one
    groupby-shuffle, reused across query batches) so a probe touches only
    its cells' blocks; in the streaming form here it prunes compute, not
    IO — the documented tradeoff vs the bucket-partitioned layout.

    With ``nprobe == nlist`` every (query, row) pair is scored exactly
    once, so the result is value-identical to :func:`brute_force_topk`
    (equivalence-tested); recall at ``nprobe < nlist`` is measured on
    clustered data in ``tests/test_ann_media.py``.

    Reference parity: ANN search over a quantized index,
    ``/root/reference/Api/Client/QdrantRepository.cs:184-206`` (Qdrant
    HNSW plays the index role there; IVF is the shuffle-friendly choice
    for a batch engine)."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    if centroids is None:
        centroids = train_centroids(
            embeddings, nlist=nlist, sample_rows=sample_rows, seed=seed
        )
    nlist = centroids.shape[0]
    nprobe = min(nprobe, nlist)
    qsim = qn @ centroids.T  # (nq, nlist)
    probe = np.zeros((qn.shape[0], nlist), dtype=bool)
    top_cells = np.argpartition(qsim, nlist - nprobe, axis=1)[:, nlist - nprobe :]
    probe[np.arange(qn.shape[0])[:, None], top_cells] = True
    ref = ray.put((qn, centroids, probe))

    empty = pa.table(
        {
            "qidx": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }
    )

    def score(batch: pa.Table) -> pa.Table:
        q, cent, pr = ray.get(ref)
        m = _normalize(_embedding_matrix(batch))
        ids = batch[id_col].to_numpy()
        assign = np.argmax(m @ cent.T, axis=1)  # (n,)
        hit = pr[:, assign]  # (nq, n): query probes this row's cell
        qs, rows = np.nonzero(hit)
        if qs.shape[0] == 0:
            return empty
        sims = np.einsum("ij,ij->i", m[rows], q[qs])
        qs, sims, nid = _groupwise_topk_tie_safe(
            qs.astype(np.int64), sims, ids[rows], k + 1
        )
        return pa.table(
            {
                "qidx": pa.array(qs),
                "neighbor_id": pa.array(nid),
                "score": pa.array(sims, pa.float64()),
            }
        )

    scored = embeddings.map_batches(score, batch_format="pyarrow")
    return _merge_topk(scored, np.asarray(query_ids), k, exclude_self=True)


def exact_cosine_pairs(
    embeddings: ray.data.Dataset,
    *,
    threshold: float = 0.9,
    id_col: str = "vec_id",
) -> pa.Table:
    """EXACT all-pairs cosine ≥ threshold — the SQL-checkable baseline.

    Streams corpus batches against a broadcast normalized matrix (block ×
    full matmul). The broadcast side is the whole corpus, so this is the
    small-to-medium baseline; the LSH-bucketed variant
    (:func:`embedding_near_dup_pairs`) is the 100 TB path.
    """
    mats, ids = [], []
    for batch in embeddings.iter_batches(batch_format="pyarrow", batch_size=8192):
        mats.append(_embedding_matrix(batch))
        ids.append(batch[id_col].to_numpy())
    m = _normalize(np.concatenate(mats))
    vid = np.concatenate(ids)
    ref = ray.put((m, vid))

    def score(batch: pa.Table) -> pa.Table:
        fm, fids = ray.get(ref)
        bm = _normalize(_embedding_matrix(batch))
        bids = batch[id_col].to_numpy()
        sims = bm @ fm.T  # (nb, N)
        ii, jj = np.nonzero(sims >= threshold)
        a, b = bids[ii], fids[jj]
        keep = a < b  # canonical + drops self
        a, b = a[keep], b[keep]
        vals = sims[ii[keep], jj[keep]]
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "score": pa.array(np.round(vals, 4), pa.float64()),
            }
        )

    out = embeddings.map_batches(score, batch_format="pyarrow")
    import pyarrow as _pa

    batches = [b for b in out.iter_batches(batch_format="pyarrow", batch_size=65536)]
    if not batches:
        return _pa.table(
            {"a": _pa.array([], _pa.int64()), "b": _pa.array([], _pa.int64()), "score": _pa.array([], _pa.float64())}
        )
    return _pa.concat_tables(batches)


EMB_PAIRS_SCHEMA = pa.schema(
    [pa.field("a", pa.int64()), pa.field("b", pa.int64()), pa.field("score", pa.float64())]
)


def _table_salts(n_tables: int, seed: int) -> np.ndarray:
    from europa_ray.util import splitmix64

    return splitmix64(np.arange(n_tables, dtype=np.uint64) + np.uint64(seed * 7919))


def _emb_table_keys(
    m_normed: np.ndarray, planes: np.ndarray, n_tables: int, n_bits: int, salts: np.ndarray
) -> np.ndarray:
    """Normalized vectors → (n, n_tables) mixed int64 bucket keys (sign bits
    of ``n_bits`` hyperplanes per table, table-salted so tables never
    collide with each other)."""
    from europa_ray.util import splitmix64

    bits = (m_normed @ planes.T) >= 0  # (n, T*nb)
    bits = bits.reshape(m_normed.shape[0], n_tables, n_bits)
    pow2 = (np.uint64(1) << np.arange(n_bits, dtype=np.uint64))[None, None, :]
    raw = (bits.astype(np.uint64) * pow2).sum(axis=2, dtype=np.uint64)  # (n, T)
    return splitmix64(raw ^ salts[None, :]).view(np.int64)


def _emb_raw_keys(
    m_normed: np.ndarray, planes: np.ndarray, n_tables: int, n_bits: int
) -> np.ndarray:
    """Normalized vectors → (n, n_tables) STRUCTURED uint64 composite keys
    ``(table_index << n_bits) | bucket_bits`` — the multi-probe
    representation: the raw bucket bits survive so 1-bit neighbor buckets
    can be linked by masking, and the table prefix keeps tables disjoint
    without salting. Mix with :func:`europa_ray.util.splitmix64` before any
    hash partitioning (raw composites are NOT uniform in their low bits)."""
    bits = (m_normed @ planes.T) >= 0  # (n, T*nb)
    bits = bits.reshape(m_normed.shape[0], n_tables, n_bits)
    pow2 = (np.uint64(1) << np.arange(n_bits, dtype=np.uint64))[None, None, :]
    raw = (bits.astype(np.uint64) * pow2).sum(axis=2, dtype=np.uint64)  # (n, T)
    return raw | (np.arange(n_tables, dtype=np.uint64) << np.uint64(n_bits))[None, :]


def _probe_masks(n_bits: int, probe_bits: int) -> list[np.ndarray]:
    """The masked-key passes realizing Hamming-radius-``probe_bits`` probing
    (radius 1 supported): pass ``i`` groups vectors by the composite key
    with bucket bit ``i`` zeroed, so two vectors whose buckets differ ONLY
    in bit ``i`` land in one group. Equal buckets are equal under every
    mask, so the exact-collision pass is subsumed — ``n_bits`` passes total,
    ZERO extra shuffle rows (the same gathered (key, node) arrays are
    re-masked per pass)."""
    if probe_bits == 0:
        return [np.uint64(0xFFFFFFFFFFFFFFFF)]
    return [
        np.uint64(0xFFFFFFFFFFFFFFFF) ^ (np.uint64(1) << np.uint64(i))
        for i in range(n_bits)
    ]


def _emb_payload(sub: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """``list<float>`` column → (flat float64-as-uint64 values, offsets) for
    the pairverify payload contract."""
    if isinstance(sub, pa.ChunkedArray):
        sub = sub.combine_chunks()
    # flatten() (not .values) honors array slices; offsets re-based to 0
    flat = sub.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    offs = sub.offsets.to_numpy().astype(np.int64)
    offs = offs - offs[0]
    return flat.view(np.uint64), offs


def _emb_cosine_metric(threshold: float):
    def metric(buf_a: np.ndarray, buf_b: np.ndarray) -> float | None:
        va = buf_a.view(np.float64)
        vb = buf_b.view(np.float64)
        na = float(np.linalg.norm(va)) or 1.0
        nb = float(np.linalg.norm(vb)) or 1.0
        s = float(va @ vb) / (na * nb)
        return round(s, 4) if s >= threshold else None

    return metric


def embedding_near_dup_pairs(
    embeddings: ray.data.Dataset,
    *,
    threshold: float = 0.9,
    n_bits: int = 6,
    n_tables: int = 12,
    seed: int = 42,
    id_col: str = "vec_id",
    num_partitions: int = 8,
    probe_bits: int = 0,
    driver_max_kn_rows: int = 100_000_000,
    driver_max_cand_rows: int = 20_000_000,
    driver_max_payload_bytes: int = 512 << 20,
) -> ray.data.Dataset:
    """All pairs with cosine ≥ ``threshold``, multi-table hyperplane LSH.

    100-TB shape (mirrors the MinHash flagship exactly): each vector emits
    ``n_tables`` **16-byte (bucket_key, id) rows** — embeddings stay OUT of
    candidate generation. Buckets are paired with the same skew machinery as
    the MinHash bands (all-pairs ≤ ``max_band_size``, distance-major window
    + ``max_pairs_per_band`` cap beyond — a hot bucket of near-identical
    vectors can no longer go O(n²)), pairs are deduped across tables, and
    every surviving candidate is verified at EXACT cosine via the guarded
    driver-gather / cogroup-shuffle dispatch in :mod:`~europa_ray.stages.
    pairverify`. Any blown budget falls back to the fully distributed inline
    path (embeddings carried through the explode, capped in-bucket verify)
    and logs one warning naming the budget and the observed size.

    Recall: a pair at exactly ``threshold`` collides in one table w.p.
    ``(1 − acos(t)/π)^n_bits`` (Charikar hyperplane LSH); with the defaults
    (6 bits × 12 tables, t = 0.9) union recall ≈ 0.998, higher above the
    threshold. Raise ``n_tables`` for tighter thresholds.

    Multi-probe mode (``probe_bits=1``, Lv et al. VLDB'07 multi-probe LSH
    adapted to all-pairs): vectors also pair across buckets that differ in
    exactly one bit. Implementation: the explode carries RAW structured
    composites (``_emb_raw_keys``) instead of mixed keys, and the SAME
    gathered (key, node) arrays are re-masked + splitmix-mixed once per
    bucket bit (``_probe_masks``) — ``n_bits`` plasma-partitioned pairing
    passes, ZERO extra shuffle rows (equal buckets are equal under every
    mask, so the exact-collision pass is subsumed). The payoff is config:
    5 tables × 8 bits probed gives union recall ≈ 0.9965 at t = 0.9 —
    ~0.42× the shuffle rows of the exact-mode default (12 × 6) at ~equal
    candidate volume. Use it when per-row shuffle volume dominates (≳10⁹
    rows per node); the exact-mode default stays optimal when the explode
    is not the bottleneck. At EQUAL (n_tables, n_bits) config, probe mode's
    candidate set is a deterministic superset of exact mode's
    (property-tested). The distributed fallback runs the equivalent
    ``n_bits`` masked groupbys (one shuffle per probe pass).

    Reference parity: ANN range search + score-threshold verify,
    ``/root/reference/Api/Client/QdrantRepository.cs:184-206``.
    """
    from europa_ray.config import DEFAULT_CONFIG
    from europa_ray.stages.lsh import _pair_partitioned, unpack_pair_keys
    from europa_ray.stages.pairverify import verify_pairs

    if probe_bits not in (0, 1):
        raise ValueError("probe_bits supports Hamming radius 0 or 1 only")
    cfg = DEFAULT_CONFIG
    first = embeddings.take_batch(1, batch_format="pyarrow")
    dim = _embedding_matrix(first).shape[1]
    planes = make_planes(dim, n_bits * n_tables, seed)
    salts = _table_salts(n_tables, seed)
    planes_ref = ray.put(planes)

    def explode_keys(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        m = _normalize(_embedding_matrix(batch))
        if probe_bits:
            # raw structured composites — masked + splitmix-mixed per probe
            # pass on the driver (the bucket-bit structure must survive the
            # gather; mixing here would destroy 1-bit adjacency)
            keys = _emb_raw_keys(m, pl, n_tables, n_bits).view(np.int64)
        else:
            keys = _emb_table_keys(m, pl, n_tables, n_bits, salts)  # (n, T)
        ids = batch[id_col].to_numpy().astype(np.int64)
        return pa.table(
            {
                "band_key": pa.array(keys.ravel()),
                "node": pa.array(np.repeat(ids, n_tables)),
            }
        )

    kn = embeddings.map_batches(explode_keys, batch_format="pyarrow")

    def _inline(why: str, *args):
        _log.warning(
            "embedding_near_dup_pairs: " + why
            + "; falling back to the distributed inline bucket path",
            *args,
        )
        return _emb_inline_pairs(
            embeddings, planes, salts, threshold, n_tables, n_bits, id_col, cfg,
            probe_bits=probe_bits,
        )

    bk_parts: list[np.ndarray] = []
    nd_parts: list[np.ndarray] = []
    total = 0
    over = False
    for b in kn.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        total += b.num_rows
        if total > driver_max_kn_rows:
            over = True
            break
        bk_parts.append(b["band_key"].to_numpy())
        nd_parts.append(b["node"].to_numpy())
    if over:
        return _inline(
            "(bucket_key, id) stream reached %d rows > driver_max_kn_rows=%d",
            total, driver_max_kn_rows,
        )
    if not bk_parts:
        return ray.data.from_arrow(EMB_PAIRS_SCHEMA.empty_table())
    bk = np.concatenate(bk_parts)
    # pair on the ids' ranks: they keep id order, so a pair packs into one
    # key (lsh._bucket_pair_keys) and the merged keys come out (a, b)-sorted
    ids, nd = np.unique(np.concatenate(nd_parts), return_inverse=True)
    n = ids.shape[0]
    if probe_bits:
        from europa_ray.util import splitmix64

        bk_u = bk.view(np.uint64)
        key_parts: list[np.ndarray] = []
        n_cand = 0
        for mask in _probe_masks(n_bits, probe_bits):
            mixed = splitmix64(bk_u & mask).view(np.int64)
            keys = _pair_partitioned(mixed, nd, n, cfg, driver_max_cand_rows)
            n_cand += keys if isinstance(keys, int) else keys.shape[0]
            if isinstance(keys, int) or n_cand > driver_max_cand_rows:
                return _inline(
                    "%d candidate pairs over the probe passes > driver_max_cand_rows=%d",
                    n_cand, driver_max_cand_rows,
                )
            key_parts.append(keys)
        keys = np.unique(np.concatenate(key_parts))
    else:
        keys = _pair_partitioned(bk, nd, n, cfg, driver_max_cand_rows)
        if isinstance(keys, int):
            return _inline(
                "%d projected candidate pairs > driver_max_cand_rows=%d",
                keys, driver_max_cand_rows,
            )
    if keys.shape[0] == 0:
        return ray.data.from_arrow(EMB_PAIRS_SCHEMA.empty_table())
    ia, ib = unpack_pair_keys(keys, n)
    return verify_pairs(
        embeddings,
        ids[ia],
        ids[ib],
        _emb_payload,
        _emb_cosine_metric(threshold),
        EMB_PAIRS_SCHEMA,
        lambda a, b, m: (a, b, m),
        content_col="embedding",
        node_col=id_col,
        driver_max_payload_bytes=driver_max_payload_bytes,
    )


def _emb_inline_pairs(
    embeddings: ray.data.Dataset,
    planes: np.ndarray,
    salts: np.ndarray,
    threshold: float,
    n_tables: int,
    n_bits: int,
    id_col: str,
    cfg,
    *,
    probe_bits: int = 0,
) -> ray.data.Dataset:
    """Fully distributed fallback: embeddings carried through the bucket
    explode (×``n_tables`` replication — the price of zero driver state),
    capped in-bucket pairing + exact-cosine verify inside ``map_groups``,
    cross-table dedup via the exact composite-key machinery. With
    ``probe_bits=1`` the groupby runs once per bucket bit on the masked
    composite key (one shuffle per probe pass — the documented distributed
    cost of multi-probe) and the per-pass pair tables are unioned before
    the cross-table dedup."""
    planes_ref = ray.put(planes)

    def make_explode(mask):
        def explode_full(batch: pa.Table) -> pa.Table:
            pl = ray.get(planes_ref)
            m = _normalize(_embedding_matrix(batch))
            if mask is None:
                keys = _emb_table_keys(m, pl, n_tables, n_bits, salts)
            else:
                from europa_ray.util import splitmix64

                keys = splitmix64(
                    _emb_raw_keys(m, pl, n_tables, n_bits) & mask
                ).view(np.int64)
            ids = batch[id_col].to_numpy().astype(np.int64)
            emb = batch["embedding"]
            if isinstance(emb, pa.ChunkedArray):
                emb = emb.combine_chunks()
            rep_idx = pa.array(
                np.repeat(np.arange(batch.num_rows, dtype=np.int64), n_tables)
            )
            return pa.table(
                {
                    "band_key": pa.array(keys.ravel()),
                    "node": pa.array(np.repeat(ids, n_tables)),
                    "embedding": emb.take(rep_idx),
                }
            )

        return explode_full

    def pair_bucket(group: pa.Table) -> pa.Table:
        nodes = group["node"].to_numpy()
        uniq, first_idx = np.unique(nodes, return_index=True)
        n = uniq.shape[0]
        if n < 2:
            return EMB_PAIRS_SCHEMA.empty_table()
        m = _normalize(_embedding_matrix(group))[first_idx]
        if n <= cfg.max_band_size:
            iu, ju = np.triu_indices(n, k=1)
        else:
            w = cfg.pair_window
            d = np.repeat(np.arange(1, w + 1), n)
            iu = np.tile(np.arange(n), w)
            ju = iu + d
            ok = ju < n
            iu, ju = iu[ok], ju[ok]
        if iu.shape[0] > cfg.max_pairs_per_band:
            iu, ju = iu[: cfg.max_pairs_per_band], ju[: cfg.max_pairs_per_band]
        vals = np.einsum("ij,ij->i", m[iu], m[ju])
        mask = vals >= threshold
        iu, ju, vals = iu[mask], ju[mask], vals[mask]
        if iu.shape[0] == 0:
            return EMB_PAIRS_SCHEMA.empty_table()
        a, b = uniq[iu], uniq[ju]
        return pa.table(
            {
                "a": pa.array(np.minimum(a, b), pa.int64()),
                "b": pa.array(np.maximum(a, b), pa.int64()),
                "score": pa.array(np.round(vals, 4), pa.float64()),
            }
        )

    masks = [None] if not probe_bits else _probe_masks(n_bits, probe_bits)
    pairs = None
    for mk in masks:
        part = (
            embeddings.map_batches(make_explode(mk), batch_format="pyarrow")
            .groupby("band_key")
            .map_groups(pair_bucket, batch_format="pyarrow")
        )
        pairs = part if pairs is None else pairs.union(part)
    pairs = pairs.materialize()
    n = pairs.count()
    if n == 0:
        return ray.data.from_arrow(EMB_PAIRS_SCHEMA.empty_table())
    if n <= 2_000_000:  # cross-table dedup, size-dispatched like dedupe_pairs
        import pandas as pd

        df = pd.concat(
            [b.to_pandas() for b in pairs.iter_batches(batch_format="pyarrow", batch_size=1 << 20)],
            ignore_index=True,
        )
        ded = df.groupby(["a", "b"], as_index=False).agg(score=("score", "max"))
        return ray.data.from_arrow(pa.Table.from_pandas(ded, preserve_index=False))
    return (
        pairs.groupby(["a", "b"]).max("score").rename_columns({"max(score)": "score"})
    )
