"""Tests for the SimHash pass, shared-substring pass, and exact-Jaccard op."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="module")
def corpus_ds(ray_session, tiny_corpus):
    import ray.data

    return ray.data.read_parquet(tiny_corpus)


@pytest.fixture(scope="module")
def truth(tiny_corpus):
    import pyarrow.parquet as pq

    return pq.read_table(tiny_corpus + "/../truth.parquet").to_pandas()


def test_simhash_finds_close_mutants(ray_session, corpus_ds):
    """SimHash(Hamming ≤ 3) is stricter than MinHash τ=0.72: it must find
    exact-sig matches (distinct contents with near-identical shingle sets)
    without false positives at random."""
    from europa_ray.stages.signatures import signatures
    from europa_ray.stages.simhash_pass import simhash_pairs

    sigs = signatures(corpus_ds).materialize()
    pairs = simhash_pairs(sigs).to_pandas()
    # verify every emitted pair truly has Hamming <= 3 (re-check from sigs)
    sig_df = sigs.select_columns(["node", "simhash"]).to_pandas().drop_duplicates("node")
    sim_map = dict(zip(sig_df.node, sig_df.simhash))
    from europa_ray.functions.sig import hamming64

    for a, b in zip(pairs.a, pairs.b):
        d = hamming64(
            np.array([sim_map[a]], dtype=np.int64).view(np.uint64),
            np.array([sim_map[b]], dtype=np.int64).view(np.uint64),
        )[0]
        assert d <= 3


def test_substring_pass_finds_planted_blocks(ray_session, corpus_ds, truth, tiny_corpus):
    """Planted 'substr' pairs (≥256-token shared blocks, low overall Jaccard)
    must be found by the substring pass."""
    import glob

    import pyarrow.parquet as pq

    from europa_ray.stages.substr import substring_pairs
    from europa_ray.util import hex_to_u64, sha256_hex

    pairs = substring_pairs(corpus_ds).to_pandas()
    got = set(zip(pairs.a, pairs.b))

    files = pq.read_table(sorted(glob.glob(tiny_corpus + "/*.parquet"))).to_pandas()
    merged = files.merge(truth, on=["repo", "path", "commit"])
    sub = merged[merged.klass == "substr"]
    found, total = 0, 0
    for cluster, grp in sub.groupby("truth_cluster"):
        sha = sha256_hex(grp.content.tolist())
        nodes = hex_to_u64(sha).view(np.int64)
        a, b = int(nodes[0]), int(nodes[1])
        total += 1
        if (min(a, b), max(a, b)) in got:
            found += 1
    assert total >= 5
    assert found / total >= 0.95, f"substring recall {found}/{total}"


def test_substring_pass_no_random_false_positives(ray_session, corpus_ds, truth, tiny_corpus):
    """'unique' rows must not be substring-paired with each other."""
    import glob

    import pyarrow.parquet as pq

    from europa_ray.stages.substr import substring_pairs
    from europa_ray.util import hex_to_u64, sha256_hex

    pairs = substring_pairs(corpus_ds).to_pandas()
    files = pq.read_table(sorted(glob.glob(tiny_corpus + "/*.parquet"))).to_pandas()
    merged = files.merge(truth, on=["repo", "path", "commit"])
    uniq = merged[merged.klass == "unique"]
    sha = sha256_hex(uniq.content.tolist())
    uniq_nodes = set(hex_to_u64(sha).view(np.int64).tolist())
    bad = [
        (a, b)
        for a, b in zip(pairs.a, pairs.b)
        if a in uniq_nodes and b in uniq_nodes
    ]
    assert not bad, f"unique rows substring-paired: {bad[:5]}"


def test_exact_jaccard_operator(ray_session, corpus_ds):
    """exact_jaccard_pairs re-verifies candidates with TRUE Jaccard: every
    emitted pair's jaccard ≥ τ by construction (spot-check by brute force)."""
    import glob

    import pyarrow.parquet as pq

    from europa_ray.functions.text import shingles, tokenize, unique_per_row
    from europa_ray.pipelines.neardup import exact_jaccard_pairs
    from europa_ray.util import hex_to_u64, sha256_hex

    pairs = exact_jaccard_pairs(corpus_ds).to_pandas()
    assert len(pairs) > 0
    assert (pairs.jaccard >= 0.72).all()
    # (full brute-force cross-verification is covered by test_neardup's oracle)


def _sorted_pairs(df, cols):
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_substr_distributed_verify_equivalent(ray_session, corpus_ds):
    """Forcing the payload budget to 0 routes verification through the
    cogroup groupby(pair_idx) shuffle — results must be row-identical to
    the driver-gather path."""
    import pandas as pd

    from europa_ray.stages.substr import substring_pairs

    driver = substring_pairs(corpus_ds).to_pandas()
    dist = substring_pairs(corpus_ds, driver_max_payload_bytes=0).to_pandas()
    cols = ["a", "b", "est"]
    pd.testing.assert_frame_equal(_sorted_pairs(driver, cols), _sorted_pairs(dist, cols))


def test_jaccard_distributed_verify_equivalent(ray_session, corpus_ds):
    import pandas as pd

    from europa_ray.pipelines.neardup import exact_jaccard_pairs

    driver = exact_jaccard_pairs(corpus_ds).to_pandas()
    dist = exact_jaccard_pairs(corpus_ds, driver_max_payload_bytes=0).to_pandas()
    assert len(driver) > 0
    cols = ["a", "b", "jaccard"]
    pd.testing.assert_frame_equal(_sorted_pairs(driver, cols), _sorted_pairs(dist, cols))


def test_substr_candidate_chunk_budget_equivalent(ray_session, corpus_ds):
    """chunk_rows=500 splits the ~1400 tiny-corpus candidates into 3 verify
    passes; the pair set must match the single-gather default — the
    candidate driver gather is now an enforced budget, not an inherited
    one."""
    import pandas as pd

    from europa_ray.stages.substr import substring_pairs

    default = substring_pairs(corpus_ds).to_pandas()
    chunked = substring_pairs(corpus_ds, driver_max_cand_rows=500).to_pandas()
    cols = ["a", "b", "est"]
    pd.testing.assert_frame_equal(_sorted_pairs(default, cols), _sorted_pairs(chunked, cols))


def test_jaccard_candidate_chunk_budget_equivalent(ray_session, corpus_ds):
    import pandas as pd

    from europa_ray.pipelines.neardup import exact_jaccard_pairs

    default = exact_jaccard_pairs(corpus_ds).to_pandas()
    chunked = exact_jaccard_pairs(corpus_ds, driver_max_cand_rows=500).to_pandas()
    assert len(default) > 0
    cols = ["a", "b", "jaccard"]
    pd.testing.assert_frame_equal(_sorted_pairs(default, cols), _sorted_pairs(chunked, cols))


@pytest.fixture(scope="module")
def sigs_and_default(corpus_ds):
    """Signatures of the tiny corpus and the default-path verified pairs."""
    from europa_ray.stages.lsh import candidate_pairs
    from europa_ray.stages.signatures import signatures

    sigs = signatures(corpus_ds).materialize()
    default = candidate_pairs(sigs).to_pandas()
    assert len(default) > 0
    return sigs, default


def _assert_inline_fallback(caplog, sigs_and_default, budget, **kw):
    """A forced budget overrun must give the default path's pair set and
    log exactly one fallback warning naming that budget."""
    import logging

    import pandas as pd

    from europa_ray.stages import lsh

    sigs, default = sigs_and_default
    with caplog.at_level(logging.WARNING, logger=lsh.__name__):
        inline = lsh.candidate_pairs(sigs, **kw).to_pandas()
    cols = ["a", "b"]
    pd.testing.assert_frame_equal(_sorted_pairs(default, cols), _sorted_pairs(inline, cols))
    msgs = [r.getMessage() for r in caplog.records if "falling back" in r.getMessage()]
    assert len(msgs) == 1, msgs
    assert budget in msgs[0], msgs


def test_candidate_pairs_row_guard_falls_back_inline(ray_session, sigs_and_default, caplog):
    """driver_max_cand_rows=0 forces the fully-distributed inline band path;
    the verified pair set must match the default path's."""
    _assert_inline_fallback(
        caplog, sigs_and_default, "driver_max_cand_rows=0", driver_max_cand_rows=0
    )


def test_candidate_pairs_kn_guard_falls_back_inline(ray_session, sigs_and_default, caplog):
    """driver_max_kn_rows=0 overruns the (band_key, node) gather before any
    pairing: same pairs as the default path, and a warning."""
    _assert_inline_fallback(
        caplog, sigs_and_default, "driver_max_kn_rows=0", driver_max_kn_rows=0
    )


def test_candidate_pairs_gather_guard_falls_back_inline(
    ray_session, sigs_and_default, caplog, monkeypatch
):
    """A gather-verify overflow (more candidate nodes than
    ``gather_max_nodes``) falls back to the inline path: same pairs as the
    default path, and a warning. ``candidate_pairs`` hands its reduce task
    the budget ``GATHER_MAX_NODES``, read when it submits the task."""
    from europa_ray.stages import lsh

    monkeypatch.setattr(lsh, "GATHER_MAX_NODES", 0)
    _assert_inline_fallback(caplog, sigs_and_default, "gather_max_nodes=0")


def test_pair_nodes_group_capped():
    """_pair_nodes_group honors max_pairs_per_band, keeping the adjacent-link
    chain (distance-major order) so connectivity survives truncation."""
    import pyarrow as pa

    from europa_ray.config import EngineConfig
    from europa_ray.stages.lsh import _pair_nodes_group

    n = 500
    cfg = EngineConfig(max_band_size=64, pair_window=8, max_pairs_per_band=600)
    group = pa.table({"node": pa.array(list(range(n)), pa.int64())})
    out = _pair_nodes_group(group, cfg)
    assert out.num_rows == 600
    a = out["a"].to_numpy()
    b = out["b"].to_numpy()
    # the first n-1 pairs are the full adjacent chain
    assert ((b - a)[: n - 1] == 1).all()
