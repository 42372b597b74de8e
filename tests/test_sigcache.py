"""Incremental cross-run cache tests (J1/J2/SO2): a grown corpus computes
only the delta; pairs anti-join against the persisted set; counters prove it."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def _sig_key(df):
    cols = [c for c in ("repo", "path", "commit", "node") if c in df.columns]
    return df.sort_values(cols).reset_index(drop=True)


def test_incremental_signatures_delta_only(ray_session, tiny_corpus, tmp_path):
    import pyarrow as pa
    import ray.data

    from europa_ray.state.sigcache import incremental_signatures
    from europa_ray.stages.signatures import signatures

    root = str(tmp_path / "cache")
    files = ray.data.read_parquet(tiny_corpus)

    # run 1: empty cache → everything computed
    sigs1, c1 = incremental_signatures(files, cache_root=root)
    df1 = sigs1.to_pandas()
    assert c1["rows_from_cache"] == 0
    assert c1["sig_nodes_computed"] == df1.node.nunique()

    # parity with the plain signature stage
    direct = signatures(files).materialize().to_pandas()
    a = _sig_key(df1)
    b = _sig_key(direct)
    assert a.node.tolist() == b.node.tolist()
    assert a.sha256.tolist() == b.sha256.tolist()
    assert a.n_tokens.tolist() == b.n_tokens.tolist()
    assert [bytes(x) for x in a.minhash] == [bytes(x) for x in b.minhash]
    assert a.simhash.tolist() == b.simhash.tolist()

    # run 2: same corpus → ZERO recompute, identical output
    sigs2, c2 = incremental_signatures(files, cache_root=root)
    df2 = sigs2.to_pandas()
    assert c2["sig_nodes_computed"] == 0
    assert c2["rows_from_cache"] == len(df2)
    a2 = _sig_key(df2)
    assert a2.node.tolist() == a.node.tolist()
    assert [bytes(x) for x in a2.minhash] == [bytes(x) for x in a.minhash]
    assert a2.simhash.tolist() == a.simhash.tolist()
    assert a2.n_tokens.tolist() == a.n_tokens.tolist()

    # run 3: grown corpus → only the delta is signatured
    extra = pa.table(
        {
            "repo": pa.array(["newrepo"] * 2),
            "path": pa.array(["new/a.py", "new/b.py"]),
            "commit": pa.array(["c1", "c2"]),
            "lang": pa.array(["python", "python"]),
            "content": pa.array(
                ["def brand_new_function():\n    return 42\n" * 20,
                 "class AnotherNewThing:\n    pass\n" * 30]
            ),
        }
    )
    grown = files.union(ray.data.from_arrow(extra))
    sigs3, c3 = incremental_signatures(grown, cache_root=root)
    df3 = sigs3.to_pandas()
    assert c3["sig_nodes_computed"] == 2, c3
    assert len(df3) == len(df1) + 2
    # old rows unchanged
    old = _sig_key(df3[df3.repo != "newrepo"])
    assert old.node.tolist() == a.node.tolist()
    assert [bytes(x) for x in old.minhash] == [bytes(x) for x in a.minhash]


def test_incremental_pairs_anti_join(ray_session, tiny_corpus, tmp_path):
    import ray.data

    from europa_ray.stages.lsh import candidate_pairs
    from europa_ray.state.sigcache import incremental_pairs, incremental_signatures

    root = str(tmp_path / "cache2")
    files = ray.data.read_parquet(tiny_corpus)
    sigs, _ = incremental_signatures(files, cache_root=root)
    sigs = sigs.materialize()

    new_pairs = candidate_pairs(sigs)
    merged1, c1 = incremental_pairs(new_pairs, cache_root=root)
    n1 = merged1.count()
    assert c1["pairs_from_cache"] == 0
    assert c1["pairs_new"] == n1

    # re-run: every pair is already persisted (SO2 MatchExcept → 0 new)
    new_pairs2 = candidate_pairs(sigs)
    merged2, c2 = incremental_pairs(new_pairs2, cache_root=root)
    assert c2["pairs_new"] == 0
    assert c2["pairs_from_cache"] == n1
    assert merged2.count() == n1
    k = lambda df: sorted(zip(df.a, df.b))
    assert k(merged1.to_pandas()) == k(merged2.to_pandas())


def test_incremental_signatures_distributed_paths_equivalent(ray_session, tiny_corpus, tmp_path):
    """Forcing every cache budget to 0 (distributed delta write, distributed
    attach join) must reproduce the driver path's signature table and the
    exact delta counters — the scale shape is equivalence-tested, not just
    present."""
    import pyarrow as pa
    import ray.data

    from europa_ray.state.sigcache import cached_nodes, incremental_signatures

    files = ray.data.read_parquet(tiny_corpus)
    root_drv = str(tmp_path / "cache_drv")
    root_dist = str(tmp_path / "cache_dist")

    # run 1 (cold) on both roots
    s1d, c1d = incremental_signatures(files, cache_root=root_drv)
    s1x, c1x = incremental_signatures(files, cache_root=root_dist, driver_max_rows=0)
    a, b = _sig_key(s1d.to_pandas()), _sig_key(s1x.to_pandas())
    assert a.node.tolist() == b.node.tolist()
    assert [bytes(x) for x in a.minhash] == [bytes(x) for x in b.minhash]
    assert c1d["sig_nodes_computed"] == c1x["sig_nodes_computed"] > 0
    import glob
    import os

    sig_dirs = glob.glob(os.path.join(root_dist, "signatures-*"))
    assert sig_dirs and sorted(
        cached_nodes(sig_dirs[0]).tolist()
    ) == sorted(cached_nodes(glob.glob(os.path.join(root_drv, "signatures-*"))[0]).tolist())

    # run 2 (warm): forced-0 broadcast budget → distributed attach join
    s2, c2 = incremental_signatures(
        files, cache_root=root_dist, driver_max_rows=0, broadcast_max_nodes=0
    )
    d2 = _sig_key(s2.to_pandas())
    assert c2["sig_nodes_computed"] == 0
    assert c2["rows_from_cache"] == len(d2)
    assert d2.node.tolist() == a.node.tolist()
    assert [bytes(x) for x in d2.minhash] == [bytes(x) for x in a.minhash]
    assert d2.simhash.tolist() == a.simhash.tolist()
    assert d2.n_tokens.tolist() == a.n_tokens.tolist()


def test_incremental_pairs_distributed_equivalent(ray_session, tiny_corpus, tmp_path):
    """driver_max_rows=0 forces the left_outer-join anti-join + write_parquet
    delta shape; pair set and counters must match the driver shape."""
    import ray.data

    from europa_ray.stages.lsh import candidate_pairs
    from europa_ray.state.sigcache import incremental_pairs, incremental_signatures

    files = ray.data.read_parquet(tiny_corpus)
    roots = {"drv": str(tmp_path / "p_drv"), "dist": str(tmp_path / "p_dist")}
    merged = {}
    for name, root in roots.items():
        kw = {"driver_max_rows": 0} if name == "dist" else {}
        sigs, _ = incremental_signatures(files, cache_root=root)
        sigs = sigs.materialize()
        m1, c1 = incremental_pairs(candidate_pairs(sigs), cache_root=root, **kw)
        n1 = m1.count()
        assert c1["pairs_from_cache"] == 0 and c1["pairs_new"] == n1 > 0
        m2, c2 = incremental_pairs(candidate_pairs(sigs), cache_root=root, **kw)
        assert c2["pairs_new"] == 0 and c2["pairs_from_cache"] == n1
        merged[name] = m2.to_pandas()
    k = lambda df: sorted(zip(df.a, df.b))
    assert k(merged["drv"]) == k(merged["dist"])


def test_compact_and_gc_cache(ray_session, tiny_corpus, tmp_path):
    """After several appending runs, compaction folds the cache to one part
    per dir with identical contents; GC prunes dirs of dead fingerprints."""
    import glob
    import os

    import pyarrow as pa
    import ray.data

    from europa_ray.config import EngineConfig
    from europa_ray.stages.lsh import candidate_pairs
    from europa_ray.state.sigcache import (
        cached_nodes,
        compact_cache,
        gc_cache,
        incremental_pairs,
        incremental_signatures,
    )

    root = str(tmp_path / "cc")
    files = ray.data.read_parquet(tiny_corpus)
    # three growing runs → ≥3 signature parts
    for i in range(3):
        extra = pa.table(
            {
                "repo": pa.array([f"r{i}"]),
                "path": pa.array([f"grow/{i}.py"]),
                "commit": pa.array([f"c{i}"]),
                "lang": pa.array(["python"]),
                "content": pa.array([f"unique grown content number {i} " * 30]),
            }
        )
        grown = files.union(ray.data.from_arrow(extra))
        sigs, _ = incremental_signatures(grown, cache_root=root)
        incremental_pairs(candidate_pairs(sigs.materialize()), cache_root=root)
    sig_dir = glob.glob(os.path.join(root, "signatures-*"))[0]
    n_parts_before = len(glob.glob(os.path.join(sig_dir, "*.parquet")))
    assert n_parts_before >= 3
    nodes_before = cached_nodes(sig_dir).tolist()

    stats = compact_cache(root, max_parts=1)
    assert os.path.basename(sig_dir) in stats
    assert len(glob.glob(os.path.join(sig_dir, "*.parquet"))) == 1
    assert cached_nodes(sig_dir).tolist() == nodes_before

    # post-compaction warm run: still zero recompute, identical output
    grown = files.union(
        ray.data.from_arrow(
            pa.table(
                {
                    "repo": pa.array(["r0", "r1", "r2"]),
                    "path": pa.array(["grow/0.py", "grow/1.py", "grow/2.py"]),
                    "commit": pa.array(["c0", "c1", "c2"]),
                    "lang": pa.array(["python"] * 3),
                    "content": pa.array(
                        [f"unique grown content number {i} " * 30 for i in range(3)]
                    ),
                }
            )
        )
    )
    _, c = incremental_signatures(grown, cache_root=root)
    assert c["sig_nodes_computed"] == 0

    # GC: a foreign-config cache dir is pruned, the live one kept
    other = EngineConfig(seed=7)
    s_other, _ = incremental_signatures(files, other, cache_root=root)
    s_other.materialize()
    assert len(glob.glob(os.path.join(root, "signatures-*"))) == 2
    removed = gc_cache(root, [EngineConfig()])
    assert len(removed) >= 1
    assert glob.glob(os.path.join(root, "signatures-*")) == [sig_dir]
    _, c2 = incremental_signatures(grown, cache_root=root)
    assert c2["sig_nodes_computed"] == 0, "GC must not touch the live cache"


def test_cli_checkpoint_counters_and_identical_resume(ray_session, tiny_corpus, tmp_path):
    """CLI --checkpoint records non-empty stage counters (A8) and a re-run
    from the populated cache reproduces byte-identical clusters."""
    import glob
    import json
    import os

    import pyarrow.parquet as pq

    from europa_ray.cli import main

    ckpt = str(tmp_path / "ckpt")
    out1 = str(tmp_path / "out1")
    out2 = str(tmp_path / "out2")
    assert main(["neardup", "--input", tiny_corpus, "--output", out1, "--checkpoint", ckpt]) == 0
    man = json.load(open(os.path.join(ckpt, "manifest.json")))
    assert man["signatures"]["counters"]["sig_nodes_computed"] > 0
    assert man["signatures"]["counters"]["rows_from_cache"] == 0
    assert "verified_pairs" in man["pairs"]["counters"]
    assert man["clusters"]["counters"]["clusters_rows"] >= 0
    assert man["clusters"]["partitions"], "per-partition lineage missing"

    assert main(["neardup", "--input", tiny_corpus, "--output", out2, "--checkpoint", ckpt]) == 0
    man2 = json.load(open(os.path.join(ckpt, "manifest.json")))
    # second run reused every signature and discovered no new pairs
    assert man2["signatures"]["counters"]["sig_nodes_computed"] == 0
    assert man2["signatures"]["counters"]["rows_from_cache"] > 0
    assert man2["pairs"]["counters"]["pairs_new"] == 0

    def read_sorted(d):
        files = sorted(glob.glob(os.path.join(d, "clusters", "*.parquet")))
        import pyarrow as pa

        t = pa.concat_tables([pq.read_table(f) for f in files])
        return t.to_pandas().sort_values(["cluster_id", "repo", "path", "commit"]).reset_index(drop=True)

    d1, d2 = read_sorted(out1), read_sorted(out2)
    assert d1.equals(d2), "resumed run must reproduce identical clusters"


_I64 = st.one_of(
    st.integers(min_value=-3, max_value=3),  # many repeats: pairs collide
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 2**63 - 2, 2**63 - 1]),
)
_PAIRS = st.lists(st.tuples(_I64, _I64), max_size=60)


def _structured_known_mask(ca, cb, fa, fb):
    """The field-by-field structured-key anti-join the packed key replaced."""
    dtype = np.dtype([("a", "<i8"), ("b", "<i8")])

    def keys(a, b):
        k = np.empty(a.shape[0], dtype=dtype)
        k["a"], k["b"] = a, b
        return k

    ck = np.unique(keys(ca, cb))
    fk = keys(fa, fb)
    if ck.shape[0] == 0:
        return np.zeros(fk.shape[0], dtype=bool)
    idx = np.searchsorted(ck, fk)
    idx[idx >= ck.shape[0]] = 0
    return ck[idx] == fk


@settings(max_examples=300, deadline=None)
@given(cached=_PAIRS, fresh=_PAIRS, reuse=st.integers(min_value=0, max_value=60))
def test_known_pairs_mask_matches_structured_key(cached, fresh, reuse):
    """The packed-key anti-join marks exactly the fresh pairs the structured
    (a, b) key marks: negative and extreme ids, repeats, either side empty."""
    from europa_ray.state.sigcache import known_pairs_mask

    fresh = fresh + cached[:reuse]  # some fresh pairs are cached ones
    ca, cb = (np.array([p[i] for p in cached], dtype=np.int64) for i in (0, 1))
    fa, fb = (np.array([p[i] for p in fresh], dtype=np.int64) for i in (0, 1))
    got = known_pairs_mask(ca, cb, fa, fb)
    assert got.dtype == bool and got.shape == fa.shape
    assert np.array_equal(got, _structured_known_mask(ca, cb, fa, fb))
