"""Golden end-to-end near-dup test vs a brute-force all-pairs oracle
(SURVEY.md §5.3): dup-pair recall ≥ 0.99 at the north-rule config."""

from __future__ import annotations

import glob

import numpy as np
import pyarrow.parquet as pq
import pytest

from europa_ray.functions.text import shingles, tokenize, unique_per_row
from europa_ray.util import hex_to_u64, sha256_hex

TAU = 0.72


@pytest.fixture(scope="module")
def truth_pairs(tiny_corpus):
    """Brute-force: true Jaccard over all distinct-content pairs."""
    tb = pq.read_table(sorted(glob.glob(tiny_corpus + "/*.parquet")))
    texts = tb["content"].to_pylist()
    sha = sha256_hex(texts)
    seen: dict[str, int] = {}
    for i, h in enumerate(sha):
        if h is not None and h not in seen:
            seen[h] = i
    idx = sorted(seen.values())
    th, off = tokenize([texts[i] for i in idx])
    sh_, soff = shingles(th, off, 5)
    ush, uoff = unique_per_row(sh_, soff)
    sets = [set(ush[uoff[i] : uoff[i + 1]].tolist()) for i in range(len(idx))]
    nodes = hex_to_u64([sha[i] for i in idx]).view(np.int64)
    pairs = set()
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            si, sj = sets[i], sets[j]
            if not si or not sj:
                continue
            inter = len(si & sj)
            if not inter:
                continue
            if inter / (len(si) + len(sj) - inter) >= TAU:
                a, b = int(nodes[i]), int(nodes[j])
                pairs.add((min(a, b), max(a, b)))
    return pairs


@pytest.fixture(scope="module")
def pipeline_out(ray_session, tiny_corpus):
    import ray.data

    from europa_ray.pipelines.neardup import near_dup_pipeline

    fds = ray.data.read_parquet(tiny_corpus)
    out = near_dup_pipeline(fds)
    return {
        "pairs": out["pairs"].to_pandas(),
        "clusters": out["clusters"].to_pandas(),
    }


def test_pair_recall_and_precision(pipeline_out, truth_pairs):
    pairs = pipeline_out["pairs"]
    got = set(zip(pairs.a.tolist(), pairs.b.tolist()))
    tp = len(truth_pairs & got)
    assert truth_pairs, "corpus must plant near-dup pairs"
    recall = tp / len(truth_pairs)
    precision = tp / len(got) if got else 1.0
    assert recall >= 0.99, f"pair recall {recall:.4f} < 0.99"
    assert precision >= 0.95, f"pair precision {precision:.4f}"


def test_cluster_dup_pair_recall(pipeline_out, truth_pairs):
    clusters = pipeline_out["clusters"]
    got_cc = dict(zip(clusters.node.tolist(), clusters.cluster_id.tolist()))
    ok = sum(
        1
        for a, b in truth_pairs
        if got_cc.get(a) is not None and got_cc.get(a) == got_cc.get(b)
    )
    recall = ok / len(truth_pairs)
    assert recall >= 0.99, f"cluster dup-pair recall {recall:.4f} < 0.99"


def test_exact_dup_groups_included(pipeline_out, tiny_corpus):
    """Pure exact-dup groups (≥2 identical rows) appear even without LSH
    edges, with cluster == own node (SimilarImageFinder.cs:119 emit rule)."""
    import duckdb

    clusters = pipeline_out["clusters"]
    oracle = duckdb.sql(
        f"""SELECT path FROM parquet_scan('{tiny_corpus}/*.parquet')
            WHERE length(content) > 0
            QUALIFY count(*) OVER (PARTITION BY sha256(content)) > 1"""
    ).df()
    got_paths = set(clusters.path)
    missing = set(oracle.path) - got_paths
    assert not missing, f"{len(missing)} exact-dup members missing from near-dup output"


def test_output_deterministic_sorted(pipeline_out):
    clusters = pipeline_out["clusters"]
    assert clusters.cluster_id.is_monotonic_increasing
    # singleton suppression: every cluster has >= 2 member rows
    sizes = clusters.groupby("cluster_id").size()
    assert (sizes >= 2).all()


def test_permutation_invariance(ray_session, tiny_corpus, pipeline_out):
    """Shuffling input rows leaves the cluster *sets* unchanged (SURVEY §5.4)."""
    import ray.data

    from europa_ray.pipelines.neardup import near_dup_pipeline

    fds = ray.data.read_parquet(tiny_corpus).random_shuffle(seed=7)
    out = near_dup_pipeline(fds)
    shuffled = out["clusters"].to_pandas()
    base = pipeline_out["clusters"]
    key = lambda df: sorted(zip(df.path, df.cluster_id))
    assert key(shuffled) == key(base)


def test_neighbor_sets_driver_distributed_equivalent(ray_session):
    """Forcing driver_max_rows=0 routes neighbor_sets through the groupby
    path; outputs must match the vectorized driver build."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.neardup import neighbor_sets

    pairs = ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array([1, 1, 2, 5], pa.int64()),
                "b": pa.array([2, 3, 3, 6], pa.int64()),
                "est": pa.array([0.9, 0.8, 0.85, 1.0], pa.float64()),
                "source": pa.array(["lsh"] * 4, pa.string()),
            }
        )
    )
    d1 = neighbor_sets(pairs).to_pandas().sort_values("node").reset_index(drop=True)
    d2 = (
        neighbor_sets(pairs, driver_max_rows=0)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert d1.node.tolist() == d2.node.tolist() == [1, 2, 3, 5, 6]
    assert [sorted(x) for x in d1.neighbors] == [sorted(x) for x in d2.neighbors]
    assert d1.n_neighbors.tolist() == d2.n_neighbors.tolist()


def test_perm_mode_recall(ray_session, tiny_corpus, truth_pairs):
    """The classic num_perm-independent-permutations mode (the golden
    fixtures cover the default OPH mode) meets the same recall bar — both
    MinHash families stay release-quality."""
    import ray.data

    from europa_ray.config import EngineConfig
    from europa_ray.pipelines.neardup import near_dup_pipeline

    cfg = EngineConfig(minhash_mode="perm")
    out = near_dup_pipeline(ray.data.read_parquet(tiny_corpus), cfg)
    pairs = out["pairs"].to_pandas()
    got = set(zip(pairs.a.tolist(), pairs.b.tolist()))
    tp = len(truth_pairs & got)
    recall = tp / len(truth_pairs)
    precision = tp / len(got) if got else 1.0
    assert recall >= 0.99, f"perm pair recall {recall:.4f} < 0.99"
    assert precision >= 0.95, f"perm pair precision {precision:.4f}"


def test_near_dup_representatives_both_paths(ray_session):
    """The deduplicated-corpus materialization keeps exactly one canonical
    representative (min (sha256, id)) per cluster plus every unclustered
    row — driver lexsort path and forced-budget-0 distributed path agree
    with the recomputed truth."""
    import ray.data

    from europa_ray.pipelines.neardup import (
        near_dup_pipeline,
        near_dup_representatives,
    )
    from europa_ray.sources.augment import with_mutants
    from europa_ray.sources.files import read_documents_as_files
    from tests.conftest import SF_TINY

    docs = with_mutants(read_documents_as_files(SF_TINY))
    cl = near_dup_pipeline(docs, id_cols=("doc_id",))["clusters"].to_pandas()
    cl = cl.sort_values(["cluster_id", "sha256", "doc_id"])
    reps = cl.groupby("cluster_id").first().doc_id
    drop = set(cl.doc_id) - set(reps)
    assert drop, "mutant corpus must produce droppable duplicates"
    all_ids = set(docs.select_columns(["doc_id"]).to_pandas().doc_id)
    want = all_ids - drop

    a = near_dup_representatives(docs, id_col="doc_id").to_pandas()
    assert set(a.doc_id) == want
    assert list(a.columns) == ["doc_id", "lang"]

    b = near_dup_representatives(
        docs, id_col="doc_id", driver_max_cluster_rows=0
    ).to_pandas()
    assert set(b.doc_id) == want


def test_exact_verify_mode_equals_truth(ray_session, tiny_corpus, truth_pairs):
    """The oracle config (candidates='all' + verify_mode='exact') produces
    EXACTLY the brute-force true-Jaccard pair set — no estimator margin, no
    banding recall gap — while running the full band-explode → pairing →
    dedupe → verify chain (the ≡-by-construction driver-oracle mode)."""
    import ray.data

    from europa_ray.config import EngineConfig
    from europa_ray.pipelines.neardup import near_dup_pipeline

    cfg = EngineConfig(candidates="all", verify_mode="exact")
    out = near_dup_pipeline(ray.data.read_parquet(tiny_corpus), cfg)
    got = out["pairs"].to_pandas()
    assert set(zip(got.a, got.b)) == truth_pairs


def test_exact_verify_lsh_candidates_subset(ray_session, tiny_corpus, truth_pairs):
    """Exact verification over PRODUCTION banded-LSH candidates: every
    emitted pair is a true pair (precision 1.0 by construction) and recall
    stays at the banding level (≥ 0.99 on this corpus)."""
    import ray.data

    from europa_ray.config import EngineConfig
    from europa_ray.pipelines.neardup import near_dup_pipeline

    cfg = EngineConfig(verify_mode="exact")  # candidates stay 'lsh'
    out = near_dup_pipeline(ray.data.read_parquet(tiny_corpus), cfg)
    got = set(zip(*(lambda d: (d.a, d.b))(out["pairs"].to_pandas())))
    assert got <= truth_pairs
    assert len(got) >= 0.99 * len(truth_pairs)


def _assembled_both_ways():
    """Cluster tables of the broadcast assembly (driver union-find labels)
    and of the join assembly (cc_driver_max_edges=0: distributed CC labels,
    no driver label dict), each collected in row order."""
    from europa_ray.config import EngineConfig
    from europa_ray.pipelines.neardup import near_dup_pipeline
    from europa_ray.sources.augment import with_mutants
    from europa_ray.sources.files import read_documents_as_files
    from tests.conftest import SF_TINY, collect

    docs = with_mutants(read_documents_as_files(SF_TINY))
    base = near_dup_pipeline(docs, id_cols=("doc_id",))["clusters"]
    forced = near_dup_pipeline(
        docs, EngineConfig(cc_driver_max_edges=0), id_cols=("doc_id",)
    )["clusters"]
    return collect(base), collect(forced)


@pytest.fixture(scope="module")
def assembled(ray_session):
    return _assembled_both_ways()


def test_join_assembly_matches_broadcast(assembled):
    """The join-based member assembly gives the broadcast assembly's table,
    row order included."""
    base, forced = assembled
    assert base.num_rows > 0
    assert base.schema == forced.schema
    assert base.equals(forced)


def test_assembly_distributed_sort_matches_driver_sort(assembled, monkeypatch):
    """With the driver-sort budget forced to 0 both assembly branches end in
    ``Dataset.sort``; both give the driver-sorted table, row order included."""
    from europa_ray import util

    monkeypatch.setattr(util, "DRIVER_SORT_MAX_BYTES", 0)
    base, forced = _assembled_both_ways()
    assert base.equals(assembled[0])
    assert forced.equals(assembled[0])


def test_near_dup_representatives_tiny_distributed(ray_session):
    """Tiny corpus on the forced-distributed branch — regression for
    zero-column blocks out of the cluster-min groupby, plus the
    all-singleton zero-drop short-circuit."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.neardup import near_dup_representatives

    def mk(texts):
        n = len(texts)
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(n), pa.int64()),
                    "lang": pa.array(["en"] * n, pa.string()),
                    "content": pa.array(texts, pa.string()),
                }
            )
        ).repartition(3)

    dup = mk(["alpha beta gamma delta epsilon zeta"] * 2 + ["unrelated words here now"])
    got = near_dup_representatives(dup, driver_max_cluster_rows=0)
    df = got.to_pandas() if isinstance(got, ray.data.Dataset) else got.to_pandas()
    assert len(df) == 2  # one rep per dup pair + the singleton

    uniq = mk(["first unique alpha beta gamma", "second unique delta epsilon zeta"])
    got2 = near_dup_representatives(uniq, driver_max_cluster_rows=0)
    df2 = got2.to_pandas() if isinstance(got2, ray.data.Dataset) else got2.to_pandas()
    assert len(df2) == 2  # all singletons kept


def test_hex16_arrow_matches_format():
    """The buffer-built cluster_id strings equal ``f"{c:016x}"`` of the
    uint64 bits, at the edges and on random ids."""
    import pyarrow as pa

    from europa_ray.util import hex16_arrow

    vals = np.array([0, 1, -(2**63), -1, 2**63 - 1], np.int64)
    vals = np.concatenate([vals, np.random.default_rng(0).integers(-(2**63), 2**63 - 1, 500)])
    got = hex16_arrow(vals)
    assert got.type == pa.string()
    assert got.to_pylist() == [f"{c:016x}" for c in vals.view(np.uint64)]
    assert got.to_pylist()[:4] == [
        "0000000000000000", "0000000000000001", "8000000000000000", "ffffffffffffffff",
    ]
    assert hex16_arrow(np.empty(0, np.int64)).to_pylist() == []


def _one_table(ds):
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@pytest.fixture(scope="module")
def family_corpus(tmp_path_factory):
    """8 families of 30 near-identical files (200 words, each file one word
    off its family's base) and 20 unrelated files: ~3,500 verified pairs
    on 260 rows, so any pair-sized array is longer than the corpus."""
    import pyarrow as pa

    rng = np.random.default_rng(5)
    vocab = np.array([f"w{i}" for i in range(2000)])
    docs = []
    for _ in range(8):
        base = rng.integers(0, vocab.shape[0], 200)
        for _ in range(30):
            doc = base.copy()
            doc[rng.integers(0, 200)] = rng.integers(0, vocab.shape[0])
            docs.append(doc)
    docs += [rng.integers(0, vocab.shape[0], 200) for _ in range(20)]
    n = len(docs)
    files = pa.table({
        "repo": [f"r{i % 7}" for i in range(n)],
        "path": [f"src/f{i}.py" for i in range(n)],
        "commit": ["c0"] * n,
        "lang": ["python"] * n,
        "content": [" ".join(vocab[d]) for d in docs],
    })
    out = tmp_path_factory.mktemp("families")
    for s in range(4):
        pq.write_table(files.slice(s * 65, 65), str(out / f"part-{s}.parquet"))
    return str(out)


def _assert_chain_equals_pipeline(files, cfg):
    """The layer-by-layer public entries the benchmark trace calls
    (candidates, then ``verify_pairs_by_signature``, ``components`` and
    ``assemble_members`` with a dict) give the same pair and cluster tables
    as ``near_dup_pipeline`` under ``cfg``, row order included. Returns the
    pair table."""
    import ray.data

    from europa_ray.pipelines.neardup import assemble_members, near_dup_pipeline
    from europa_ray.stages.lsh import candidate_pairs, verify_pairs_by_signature
    from europa_ray.stages.signatures import signatures
    from europa_ray.state.unionfind import components

    out = near_dup_pipeline(files, cfg)

    sigs = signatures(files, cfg, compute_fuzzy=False).materialize()
    cand, aux = candidate_pairs(sigs, cfg, return_aux=True, verify=False)
    pairs = ray.data.from_arrow(
        verify_pairs_by_signature(cand.materialize().to_pandas(), sigs, cfg)
    ).materialize()
    labels = components(pairs)
    assert isinstance(labels, dict)
    clusters = assemble_members(sigs, labels, cfg, dup_nodes=aux["dup_nodes"])

    want_pairs, got_pairs = _one_table(out["pairs"]), _one_table(pairs)
    want_clusters, got_clusters = _one_table(out["clusters"]), _one_table(clusters)
    assert want_pairs.num_rows > 0 and want_clusters.num_rows > 0
    assert got_pairs.equals(want_pairs)
    assert got_clusters.equals(want_clusters)
    return want_pairs


def test_trace_chain_equals_pipeline(ray_session, tiny_corpus):
    """The benchmark's step-by-step path equals the pipeline on the tiny
    planted corpus."""
    import ray.data

    from europa_ray.config import DEFAULT_CONFIG

    _assert_chain_equals_pipeline(ray.data.read_parquet(tiny_corpus), DEFAULT_CONFIG)


def test_trace_chain_equals_pipeline_on_families(ray_session, family_corpus):
    """The same on a corpus whose verified pairs outnumber its rows 5×."""
    import ray.data

    from europa_ray.config import DEFAULT_CONFIG

    files = ray.data.read_parquet(family_corpus)
    pairs = _assert_chain_equals_pipeline(files, DEFAULT_CONFIG)
    assert pairs.num_rows >= 5 * files.count()


@pytest.mark.parametrize("corpus", ["tiny_corpus", "family_corpus"])
def test_trace_chain_equals_pipeline_distributed_cc(ray_session, corpus, request):
    """With ``cc_driver_max_edges=0`` the pipeline runs the distributed
    union-find on the pair table its reduce task left in the object store,
    and still equals the step-by-step path."""
    import ray.data

    from europa_ray.config import EngineConfig

    files = ray.data.read_parquet(request.getfixturevalue(corpus))
    _assert_chain_equals_pipeline(files, EngineConfig(cc_driver_max_edges=0))


def test_no_pair_sized_array_reaches_the_driver(ray_session, family_corpus, monkeypatch):
    """The one-shot pipeline keeps candidate keys, signatures and pair
    tables in tasks: no NumPy array or Arrow table the driver fetches with
    ``ray.get`` is longer than the corpus has rows, though the verified
    pairs outnumber the rows 5×."""
    import pyarrow as pa
    import ray
    import ray.data

    from europa_ray.pipelines.neardup import near_dup_pipeline

    files = ray.data.read_parquet(family_corpus).materialize()
    n_rows = files.count()
    longest = []

    def lengths(x):
        if isinstance(x, (list, tuple)):
            return [n for v in x for n in lengths(v)]
        if isinstance(x, dict):
            return lengths(list(x.values()))
        if isinstance(x, np.ndarray) and x.ndim:
            return [x.shape[0]]
        if isinstance(x, (pa.Table, pa.RecordBatch)):
            return [x.num_rows]
        if isinstance(x, (pa.Array, pa.ChunkedArray)):
            return [len(x)]
        return []

    real_get = ray.get

    def get(refs, *args, **kwargs):
        out = real_get(refs, *args, **kwargs)
        longest.extend(lengths(out))
        return out

    monkeypatch.setattr(ray, "get", get)
    out = near_dup_pipeline(files)
    monkeypatch.undo()
    assert longest and max(longest) <= n_rows, (max(longest), n_rows)
    assert out["pairs"].count() >= 5 * n_rows


def test_pipeline_on_fully_filtered_input(ray_session, tiny_corpus):
    """Filters that drop every row give empty pair and cluster tables, on
    both union-find budgets."""
    import ray.data

    from europa_ray.config import EngineConfig
    from europa_ray.pipelines.neardup import near_dup_pipeline

    files = ray.data.read_parquet(tiny_corpus)
    for cc_max in (5_000_000, 0):
        cfg = EngineConfig(include_langs=("no-such-lang",), cc_driver_max_edges=cc_max)
        out = near_dup_pipeline(files, cfg)
        assert out["pairs"].count() == 0
        assert _one_table(out["clusters"]).num_rows == 0


def test_fully_filtered_corpus_gives_typed_empty_clusters(ray_session, tiny_corpus):
    """A corpus the filters empty gives zero cluster rows with the normal
    cluster columns and types, not a table without columns."""
    import ray.data

    from europa_ray.config import EngineConfig
    from europa_ray.pipelines.neardup import near_dup_pipeline

    files = ray.data.read_parquet(tiny_corpus)
    want = _one_table(near_dup_pipeline(files, EngineConfig())["clusters"]).schema
    out = near_dup_pipeline(files, EngineConfig(include_langs=("no-such-lang",)))
    got = out["clusters"].materialize()
    assert got.count() == 0
    assert got.schema().base_schema == want


def test_assembly_ignores_empty_signature_blocks(ray_session, tiny_corpus):
    """Zero-row signature blocks, with the signature columns or with none
    (as Ray join outputs emit them), add no rows or columns to the
    member table."""
    import pyarrow as pa
    import ray
    import ray.data

    from europa_ray.config import DEFAULT_CONFIG as cfg
    from europa_ray.pipelines.neardup import assemble_members
    from europa_ray.stages.lsh import candidate_pairs
    from europa_ray.stages.signatures import signatures
    from europa_ray.state.unionfind import components

    sigs = signatures(ray.data.read_parquet(tiny_corpus), cfg, compute_fuzzy=False).materialize()
    pairs, aux = candidate_pairs(sigs, cfg, return_aux=True)
    labels = components(pairs.materialize())
    want = _one_table(assemble_members(sigs, labels, cfg, dup_nodes=aux["dup_nodes"]))
    assert want.num_rows > 0

    tables = ray.get(sigs.to_arrow_refs())
    for extra in (tables[0].slice(0, 0), pa.table({})):
        padded = ray.data.from_arrow([extra, *tables, extra]).materialize()
        got = _one_table(assemble_members(padded, labels, cfg, dup_nodes=aux["dup_nodes"]))
        assert got.equals(want)
