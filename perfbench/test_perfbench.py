"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from perfbench import gen, jobs

SMALL = {
    "planted-dedup": {"rows": 1500, "wide_tokens": 3000},
    "hot-families": {"families": 20, "family_size": 10, "tokens": 120},
    "incremental-append": {"base": 1500, "delta": 450, "wide_tokens": 3000},
}


@pytest.fixture
def small_sizes(monkeypatch):
    for name, size in SMALL.items():
        monkeypatch.setitem(gen.SIZES, name, size)


def _tables(d: str):
    return pq.read_table(os.path.join(d, "full")), pq.read_table(os.path.join(d, "truth.parquet"))


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generator_deterministic_per_seed(small_sizes, tmp_path, workload):
    gen.generate(workload, 7, str(tmp_path / "a"))
    gen.generate(workload, 7, str(tmp_path / "b"))
    gen.generate(workload, 8, str(tmp_path / "c"))
    fa, ta = _tables(str(tmp_path / "a"))
    fb, tb = _tables(str(tmp_path / "b"))
    fc, _ = _tables(str(tmp_path / "c"))
    assert fa.equals(fb) and ta.equals(tb)
    assert not fa.equals(fc)


def test_cached_inputs_are_digest_checked(small_sizes, tmp_path):
    d = gen.ensure_inputs("hot-families", 3, str(tmp_path))
    assert gen.ensure_inputs("hot-families", 3, str(tmp_path)) == d
    victim = os.path.join(d, "truth.parquet")
    with open(victim, "ab") as f:
        f.write(b"torn")
    assert not gen._valid(d)
    gen.ensure_inputs("hot-families", 3, str(tmp_path))
    assert gen._valid(d)


def test_grey_zone_rows_lie_in_the_band():
    import numpy as np

    rng = np.random.default_rng(0)
    c = gen.Corpus(rng)
    tmpl = gen.draw_docs(rng, np.array([300]))[0]
    fam = c.new_family()
    for rate in gen.MUTANT_TIERS * 20:
        gen.add_mutant(c, tmpl, fam, "near", rate)
    for doc, family, grey in zip(c.docs, c.family, c.grey):
        j = gen.jaccard(doc, tmpl)
        assert grey == (gen.GREY_LO <= j < gen.GREY_HI)
        assert (family == fam) == (j >= gen.GREY_LO)


def test_pair_scores_on_hand_built_truth():
    truth = pd.DataFrame({
        "path": ["a", "b", "c", "d", "e", "f", "g"],
        "family": [1, 1, 1, 2, 2, 3, 4],
        "grey": [False, False, False, False, False, False, True],
        "empty": [False] * 7,
    })
    # a,b together; c alone (misses 2 true pairs); d,e together with f (f is
    # a false member: 2 wrong pairs); g is grey, so its wrong pair with a is
    # left out
    assign = {"a": "X", "b": "X", "g": "X", "d": "Y", "e": "Y", "f": "Y"}
    recall, precision = jobs.pair_scores(assign, truth)
    # true pairs: ab ac bc de = 4; found: ab de = 2
    assert recall == pytest.approx(2 / 4)
    # predicted pairs: ab de df ef = 4; correct: ab de = 2
    assert precision == pytest.approx(2 / 4)
    assert jobs.pair_scores({}, truth) == (0.0, 1.0)


def test_exact_check_rejects_a_missing_member():
    import pyarrow as pa

    truth = pd.DataFrame({
        "path": ["a", "b", "c"], "sha256": ["s1", "s1", "s2"], "empty": [False] * 3,
    })
    good = pa.table({"path": ["a", "b"], "cluster_id": ["s1", "s1"]})
    jobs.check_exact(good, truth)
    with pytest.raises(jobs.CheckFailed):
        jobs.check_exact(good.slice(0, 1), truth)


def test_append_delta_yields_new_pairs(small_sizes, tmp_path):
    from perfbench import run

    d = str(tmp_path / "data")
    gen.generate("incremental-append", 5, d)
    truth = pq.read_table(os.path.join(d, "truth.parquet")).to_pandas()
    run.start_ray(1)
    try:
        seeded = str(tmp_path / "ckpt-seeded")
        ckpt = str(tmp_path / "ckpt")
        out = str(tmp_path / "out")
        jobs.run_checkpoint(os.path.join(d, "base"), str(tmp_path / "seed-out"), seeded)
        jobs.restore(seeded, ckpt)
        jobs.run_checkpoint(os.path.join(d, "full"), out, ckpt)
        clusters, counters = jobs.read_checkpoint_output(out, ckpt)
        assert counters["pairs"]["pairs_new"] > 0
        jobs.check_append_counters(counters, truth)
        oneshot = jobs.collect(jobs.run_oneshot(os.path.join(d, "full")))
        jobs.check_same(jobs.assignment(clusters), jobs.assignment(oneshot), "one-shot")
    finally:
        run.stop_ray()
