"""Read sizing: the block count follows the input's size
(``util.default_read_blocks``), the listing behind it covers every path
shape the readers accept, and the answers do not depend on it."""

from __future__ import annotations

import logging
import os

import pytest

from tests.conftest import collect


def _cpus() -> int:
    import ray

    return int(ray.cluster_resources()["CPU"])


def test_block_rule_one_cpu_floor_size_cap(monkeypatch, caplog):
    import europa_ray.util as util
    from europa_ray.util import READ_BLOCK_BYTES, READ_BLOCKS_PER_CPU, default_read_blocks

    monkeypatch.setattr(util, "cluster_cpus", lambda: 1)
    caplog.set_level(logging.INFO, logger="europa_ray.util")
    assert default_read_blocks(0) == 1
    assert "set by floor" in caplog.text
    assert default_read_blocks(10) == 1
    assert default_read_blocks(3 * READ_BLOCK_BYTES) == 3
    assert default_read_blocks(3 * READ_BLOCK_BYTES + 1) == 4
    assert "set by size" in caplog.text
    assert default_read_blocks(1 << 50) == READ_BLOCKS_PER_CPU
    assert "set by cap" in caplog.text
    assert f"input_bytes={1 << 50}, cpus=1" in caplog.text


def test_block_rule_multi_cpu_takes_cap(ray_session, caplog):
    """More than one CPU keeps the measured 8×-CPU knee whatever the size."""
    from europa_ray.util import READ_BLOCKS_PER_CPU, default_read_blocks

    cpus = _cpus()
    assert cpus > 1
    caplog.set_level(logging.INFO, logger="europa_ray.util")
    for size in (0, 10, 1 << 30, 1 << 50):
        assert default_read_blocks(size) == READ_BLOCKS_PER_CPU * cpus
    assert "set by cap (multi-CPU)" in caplog.text


def test_input_bytes_dir_file_and_list(tmp_path):
    from europa_ray.sources.files import input_bytes

    (tmp_path / "d" / "sub").mkdir(parents=True)
    (tmp_path / "d" / "a.parquet").write_bytes(b"x" * 100)
    (tmp_path / "d" / "sub" / "b.parquet").write_bytes(b"x" * 30)
    (tmp_path / "d" / "_SUCCESS").write_bytes(b"x" * 5)
    (tmp_path / "e.parquet").write_bytes(b"x" * 7)
    d, e = str(tmp_path / "d"), str(tmp_path / "e.parquet")
    assert input_bytes(d) == 135
    assert input_bytes(d + "/") == 135
    assert input_bytes(e) == 7
    assert input_bytes([d, e]) == 142
    assert input_bytes("file://" + e) == 7
    assert input_bytes(os.path.relpath(e)) == 7


@pytest.mark.parametrize("path", ["nosuchfs://bucket/corpus", "/nonexistent/corpus"])
def test_failed_listing_warns_and_takes_cap(ray_session, caplog, path):
    from europa_ray.sources.files import input_bytes
    from europa_ray.util import READ_BLOCKS_PER_CPU, default_read_blocks

    caplog.set_level(logging.INFO)
    got = input_bytes(path)
    assert got is None
    warned = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 1 and "input listing failed" in warned[0].getMessage()
    assert default_read_blocks(got) == READ_BLOCKS_PER_CPU * _cpus()
    assert "set by cap (input size unknown)" in caplog.text


def test_readers_size_blocks_to_input(ray_session, tiny_corpus, monkeypatch, caplog):
    """On one CPU a small corpus reads as one block, not the cap."""
    import pyarrow.parquet as pq

    import europa_ray.util as util
    from europa_ray.sources.files import read_files

    monkeypatch.setattr(util, "cluster_cpus", lambda: 1)
    caplog.set_level(logging.INFO, logger="europa_ray.util")
    ds = read_files(tiny_corpus).materialize()
    assert ds.num_blocks() == 1
    assert "set by floor" in caplog.text or "set by size" in caplog.text
    files = sorted(os.path.join(tiny_corpus, f) for f in os.listdir(tiny_corpus))
    assert read_files(files).count() == ds.count()
    assert read_files(files[0]).count() == pq.ParquetFile(files[0]).metadata.num_rows


def test_answers_invariant_to_block_count(ray_session, tiny_corpus, monkeypatch):
    """Exact and near-dup cluster tables are the same table, row order
    included, whether the corpus is read as the 1-CPU rule's single block
    or as 64."""
    import ray.data

    import europa_ray.util as util
    from europa_ray.pipelines.exact import exact_dup_clusters
    from europa_ray.pipelines.neardup import near_dup_pipeline
    from europa_ray.sources.files import read_files

    def tables(files):
        exact = collect(exact_dup_clusters(files))
        near = collect(near_dup_pipeline(files)["clusters"])
        return exact, near

    with monkeypatch.context() as m:
        m.setattr(util, "cluster_cpus", lambda: 1)
        ruled = read_files(tiny_corpus).materialize()
    forced = ray.data.read_parquet(tiny_corpus, override_num_blocks=64).materialize()
    assert ruled.num_blocks() == 1
    assert forced.num_blocks() == 64
    (ea, na), (eb, nb) = tables(ruled), tables(forced)
    assert ea.num_rows > 0 and na.num_rows > 0
    assert ea.equals(eb)
    assert na.equals(nb)
