"""util.sort_result: the driver sort and the distributed ``Dataset.sort``
give the same table, row order and ties included."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from tests.conftest import collect


def _keyed(n: int = 3000) -> pa.Table:
    # Few distinct (a, b) keys, so many ties told apart only by `v`, and
    # nulls in the secondary key. The nulls sit in an int64 key: Ray 2.49's
    # Dataset.sort crashes on a null in a string key whenever a sampled
    # boundary's binary search meets it ("'<' not supported between
    # NoneType and str"), so only the driver sort accepts those.
    rng = np.random.default_rng(7)
    a = [f"k{rng.integers(0, 40):02d}" for _ in range(n)]
    b = [None if i % 11 == 0 else int(rng.integers(0, 5)) for i in range(n)]
    return pa.table(
        {"a": pa.array(a, pa.string()), "b": pa.array(b, pa.int64()),
         "v": pa.array(np.arange(n, dtype=np.int64))}
    )


def test_driver_sort_matches_distributed(ray_session, monkeypatch):
    import ray.data

    from europa_ray import util

    ds = ray.data.from_arrow(_keyed()).repartition(7).materialize()
    assert ds.num_blocks() == 7
    driver = collect(util.sort_result(ds, ["a", "b"]))
    monkeypatch.setattr(util, "DRIVER_SORT_MAX_BYTES", 0)
    distributed = collect(util.sort_result(ds, ["a", "b"]))
    assert driver.schema == distributed.schema
    assert driver.equals(distributed)
    assert driver["b"].null_count > 0
    assert driver.num_rows == 3000


def test_empty_input_keeps_schema(ray_session, monkeypatch):
    import ray.data

    from europa_ray import util

    empty = _keyed().slice(0, 0)
    for budget in (util.DRIVER_SORT_MAX_BYTES, 0):
        monkeypatch.setattr(util, "DRIVER_SORT_MAX_BYTES", budget)
        out = util.sort_result(ray.data.from_arrow(empty), ["a", "b"])
        assert out.count() == 0
        assert out.schema().base_schema == empty.schema


def test_small_result_is_one_block(ray_session):
    import ray.data

    from europa_ray import util

    ds = ray.data.from_arrow(_keyed(500)).repartition(5)
    out = util.sort_result(ds, ["a", "b"])
    assert out.num_blocks() == 1
    assert out.count() == 500
