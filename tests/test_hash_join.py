"""``util.hash_join``, the one place the engine joins Datasets: the join
arguments it sets by cluster size, and its rows against a pandas merge for
each join type the engine uses."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from europa_ray import util


class _Recorder:
    """Stands in for a Dataset: records the arguments ``join`` gets."""

    def join(self, right, **kwargs):
        self.right, self.kwargs = right, kwargs
        return self


def _join_args(monkeypatch, cpus, **kwargs):
    monkeypatch.setattr(util, "cluster_cpus", lambda: cpus)
    left = _Recorder()
    util.hash_join(left, "right", "inner", ("k",), **kwargs)
    assert left.right == "right"
    return left.kwargs


def test_one_cpu_join_aggregators_ask_no_cpu(monkeypatch):
    got = _join_args(monkeypatch, 1)
    assert got["aggregator_ray_remote_args"] == {"num_cpus": 0}
    assert got["join_type"] == "inner" and got["on"] == ("k",)
    assert got["num_partitions"] == 2


@pytest.mark.parametrize("cpus", [2, 4, 16])
def test_multi_cpu_join_keeps_ray_aggregator_default(monkeypatch, cpus):
    got = _join_args(monkeypatch, cpus)
    assert "aggregator_ray_remote_args" not in got
    assert got["num_partitions"] == util.default_num_partitions()


@pytest.mark.parametrize("cpus", [1, 8])
def test_join_keeps_given_partitions_and_arguments(monkeypatch, cpus):
    got = _join_args(monkeypatch, cpus, num_partitions=5, right_on=("r",))
    assert got["num_partitions"] == 5
    assert got["right_on"] == ("r",)


@pytest.mark.parametrize(
    "cpus, cap, want",
    [(1, 64, 2), (2, 64, 2), (4, 64, 2), (8, 64, 6), (40, 64, 38), (100, 64, 64), (100, 16, 16)],
)
def test_default_num_partitions(monkeypatch, cpus, cap, want):
    monkeypatch.setattr(util, "cluster_cpus", lambda: cpus)
    assert util.default_num_partitions(cap) == want


def _sides(seed: int = 3):
    """Two tables over partly shared keys, duplicate keys on both sides."""
    rng = np.random.default_rng(seed)
    left = pd.DataFrame(
        {"k": rng.integers(0, 40, 300), "j": rng.integers(0, 3, 300), "lv": np.arange(300)}
    )
    right = pd.DataFrame(
        {"k": rng.integers(20, 60, 120), "j": rng.integers(0, 3, 120), "rv": np.arange(120)}
    )
    return left, right


_HOW = {"inner": "inner", "left_outer": "left", "right_outer": "right", "full_outer": "outer"}


@pytest.mark.parametrize("on", [("k",), ("k", "j")], ids=["one_key", "two_keys"])
@pytest.mark.parametrize("join_type", list(_HOW))
def test_hash_join_matches_pandas_merge(ray_session, join_type, on):
    import ray.data

    left, right = _sides()
    if len(on) == 1:
        right = right.drop(columns="j")
    got = util.hash_join(
        ray.data.from_arrow(pa.Table.from_pandas(left, preserve_index=False)),
        ray.data.from_arrow(pa.Table.from_pandas(right, preserve_index=False)),
        join_type,
        on,
    ).to_pandas()
    want = left.merge(right, how=_HOW[join_type], on=list(on))
    cols = sorted(want.columns)
    assert sorted(got.columns) == cols
    assert len(want) > 0 and len(got) == len(want)

    def rows(df):  # every value is >= 0, so -1 stands for a null
        return sorted(
            tuple(-1 if pd.isna(v) else int(v) for v in row)
            for row in df[cols].itertuples(index=False)
        )

    assert rows(got) == rows(want)
