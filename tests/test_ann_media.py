"""ANN (brute-force, LSH and IVF) tests."""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import SF_TINY


@pytest.fixture(scope="module")
def emb(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF_TINY}/embeddings.parquet")


@pytest.fixture(scope="module")
def emb_np():
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF_TINY}/embeddings.parquet")
    ids = t["vec_id"].to_numpy()
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    return ids, mat


def _oracle_topk(ids, mat, qn, qids, k):
    m = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    q = qn / np.linalg.norm(qn, axis=1, keepdims=True)
    out = {}
    for j in range(q.shape[0]):
        sims = m @ q[j]
        order = sorted(range(len(ids)), key=lambda i: (-sims[i], ids[i]))
        order = [i for i in order if ids[i] != qids[j]][:k]
        out[int(qids[j])] = [(int(ids[i]), round(float(sims[i]), 4)) for i in order]
    return out


def test_brute_force_topk_matches_numpy(ray_session, emb, emb_np):
    from europa_ray.stages.ann import brute_force_topk

    ids, mat = emb_np
    qids = ids[:5]
    q = mat[:5]
    got = brute_force_topk(emb, q, qids, k=5).to_pandas()
    want = _oracle_topk(ids, mat, q, qids, 5)
    for qid, grp in got.groupby("query_id"):
        grp = grp.sort_values("rank")
        assert list(zip(grp.neighbor_id, grp.score)) == want[qid]


def test_lsh_topk_finds_planted_neighbors(ray_session, emb_np):
    """LSH top-k targets near-duplicate neighbors: plant noisy copies of the
    query vectors in the corpus — tiny perturbations keep the same sign
    bucket with high probability, so the planted copies must be retrieved."""
    import pyarrow as pa
    import ray.data

    from europa_ray.stages.ann import lsh_topk

    ids, mat = emb_np
    rng = np.random.default_rng(0)
    q = mat[:10]
    qids = ids[:10]
    planted = q + rng.standard_normal(q.shape) * 1e-4
    pids = np.arange(900_000, 900_010)
    all_ids = np.concatenate([ids, pids])
    all_mat = np.vstack([mat, planted])
    tbl = pa.table(
        {
            "vec_id": pa.array(all_ids, pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in all_mat], pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(tbl)
    got = lsh_topk(ds, q, qids, k=3, n_bits=8).to_pandas()
    hits = 0
    for j, qid in enumerate(qids):
        g = set(got[got.query_id == qid].neighbor_id)
        if int(pids[j]) in g:
            hits += 1
    assert hits >= 9, f"planted-neighbor recall {hits}/10"


def test_exact_cosine_pairs_matches_bruteforce(ray_session, emb, emb_np):
    from europa_ray.stages.ann import exact_cosine_pairs

    ids, mat = emb_np
    got = exact_cosine_pairs(emb, threshold=0.9).to_pandas()
    m = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = m @ m.T
    iu, ju = np.triu_indices(len(ids), k=1)
    mask = sims[iu, ju] >= 0.9
    want = {(int(min(a, b)), int(max(a, b))) for a, b in zip(ids[iu[mask]], ids[ju[mask]])}
    assert set(zip(got.a, got.b)) == want


def test_embedding_lsh_pairs_subset_of_exact(ray_session, emb_np):
    """Plant near-identical vector pairs: the LSH-bucketed variant must find
    them (same sign bucket), and never emit a pair the exact op wouldn't."""
    import pyarrow as pa
    import ray.data

    from europa_ray.stages.ann import embedding_near_dup_pairs, exact_cosine_pairs

    ids, mat = emb_np
    rng = np.random.default_rng(1)
    dup = mat[:20] + rng.standard_normal((20, mat.shape[1])) * 1e-4
    all_ids = np.concatenate([ids, np.arange(800_000, 800_020)])
    all_mat = np.vstack([mat, dup])
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(all_ids, pa.int64()),
                "embedding": pa.array(
                    [list(map(float, r)) for r in all_mat], pa.list_(pa.float32())
                ),
            }
        )
    )
    exact = exact_cosine_pairs(ds, threshold=0.98).to_pandas()
    approx = embedding_near_dup_pairs(ds, threshold=0.98, n_bits=4).to_pandas()
    exact_set = set(zip(exact.a, exact.b)) if len(exact) else set()
    approx_set = set(zip(approx.a, approx.b)) if len(approx) else set()
    assert len(exact_set) >= 20  # the planted pairs
    assert approx_set <= exact_set  # no false positives (exact verify in-bucket)
    assert len(approx_set) >= 15  # buckets recover nearly all planted pairs


def test_lsh_topk_matches_per_query_reference(ray_session, emb_np):
    """The vectorized bucket-segment path must equal a plain per-query
    reference: brute-force cosine restricted to the query's exact
    hyperplane bucket, (score DESC, id ASC), self excluded, top k."""
    import pyarrow as pa
    import ray.data

    from europa_ray.stages.ann import _normalize, lsh_topk, make_planes

    ids, mat = emb_np
    q = mat[:25]
    qids = ids[:25]
    n_bits = 4  # coarse buckets: many members per bucket, ties plausible
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [list(map(float, r)) for r in mat], pa.list_(pa.float32())
            ),
        }
    )
    # 5 blocks so the per-batch partial top-k + driver merge is exercised
    ds = ray.data.from_arrow(tbl).repartition(5)
    got = lsh_topk(ds, q, qids, k=3, n_bits=n_bits).to_pandas()

    planes = make_planes(mat.shape[1], n_bits, 42)
    mn = _normalize(mat.astype(np.float64))
    qn = _normalize(q.astype(np.float64))

    def key(m):
        bits = (m @ planes.T) >= 0
        k_ = np.zeros(m.shape[0], dtype=np.uint64)
        for i in range(n_bits):
            k_ = (k_ << np.uint64(1)) | bits[:, i].astype(np.uint64)
        return k_.view(np.int64)

    ck, qk = key(mn), key(qn)
    for j in range(q.shape[0]):
        member = np.nonzero(ck == qk[j])[0]
        sims = mn[member] @ qn[j]
        order = sorted(
            range(member.shape[0]), key=lambda i: (-sims[i], ids[member[i]])
        )
        want = [
            (int(ids[member[i]]), round(float(sims[i]), 4))
            for i in order
            if ids[member[i]] != qids[j]
        ][:3]
        g = got[got.query_id == qids[j]].sort_values("rank")
        assert list(zip(g.neighbor_id, g.score)) == want, f"query {qids[j]}"


def _clustered_embeddings(n_clusters=20, per_cluster=100, dim=32, seed=7):
    """Gaussian clusters on the sphere — data where IVF pruning is the
    right tool (random uniform vectors have no cell structure to exploit)."""
    import pyarrow as pa
    import ray.data

    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    pts = np.repeat(centers, per_cluster, axis=0) + 0.15 * rng.standard_normal(
        (n_clusters * per_cluster, dim)
    )
    ids = np.arange(pts.shape[0], dtype=np.int64)
    t = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array(list(pts), pa.list_(pa.float64())),
        }
    )
    return ray.data.from_arrow(t), pts, ids


def test_ivf_full_probe_equals_brute_force(ray_session, emb, emb_np):
    """nprobe == nlist scores every (query, row) pair exactly once — the
    result must be value-identical to brute force (this equivalence is what
    licenses the shared ann_topk oracle in __ray_entry__)."""
    from europa_ray.stages.ann import brute_force_topk, ivf_topk

    ids, mat = emb_np
    q, qid = mat[:8], ids[:8]
    want = brute_force_topk(emb, q, qid, k=5).to_pandas()
    got = ivf_topk(emb, q, qid, k=5, nlist=16, nprobe=16).to_pandas()
    assert got.equals(want), (got.head(), want.head())


def test_ivf_pruned_probe_recall_on_clustered_data(ray_session):
    """nprobe ≪ nlist on clustered data: recall@10 ≥ 0.95 vs brute force
    while scanning a fraction of the cells."""
    from europa_ray.stages.ann import brute_force_topk, ivf_topk, train_centroids

    ds, pts, ids = _clustered_embeddings()
    q, qid = pts[:25], ids[:25]
    cent = train_centroids(ds, nlist=32, sample_rows=2000, seed=3)
    want = brute_force_topk(ds, q, qid, k=10).to_pandas()
    got = ivf_topk(ds, q, qid, k=10, nprobe=6, centroids=cent).to_pandas()
    truth = {qq: set(g.neighbor_id) for qq, g in want.groupby("query_id")}
    found = {qq: set(g.neighbor_id) for qq, g in got.groupby("query_id")}
    hits = sum(len(truth[qq] & found.get(qq, set())) for qq in truth)
    total = sum(len(v) for v in truth.values())
    recall = hits / total
    assert recall >= 0.95, f"IVF recall {recall:.3f}"


def test_ivf_training_deterministic(ray_session):
    from europa_ray.stages.ann import train_centroids

    ds, _, _ = _clustered_embeddings()
    c1 = train_centroids(ds, nlist=16, sample_rows=1000, seed=11)
    c2 = train_centroids(ds, nlist=16, sample_rows=1000, seed=11)
    assert np.array_equal(c1, c2)
    assert np.allclose(np.linalg.norm(c1, axis=1), 1.0)
