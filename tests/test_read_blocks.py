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


def _part(i: int, n: int = 4):
    import pyarrow as pa

    return pa.table(
        {
            "repo": [f"r{i}"] * n,
            "path": [f"p{i}_{j}.py" for j in range(n)],
            "content": [f"body {i} {j}" for j in range(n)],
        }
    )


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    """A directory with sidecars (``_SUCCESS``, a ``.crc`` file, ``_tmp/``
    and ``.hidden/`` shards) and a nested subdirectory, and a hive layout."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    root = tmp_path_factory.mktemp("layouts")
    flat = root / "flat"
    for sub in ("sub/deeper", "_tmp", ".hidden"):
        (flat / sub).mkdir(parents=True)
    pq.write_table(_part(0), flat / "a.parquet")
    pq.write_table(_part(1, 7), flat / "b.parquet")
    pq.write_table(_part(2), flat / "sub" / "c.parquet")
    pq.write_table(_part(3, 2), flat / "sub" / "deeper" / "d.parquet")
    pq.write_table(_part(8), flat / "_tmp" / "x.parquet")
    pq.write_table(_part(9), flat / ".hidden" / "y.parquet")
    (flat / "_SUCCESS").write_bytes(b"")
    (flat / ".a.parquet.crc").write_bytes(b"crc")
    hive = root / "hive"
    for i, lang in enumerate(("py", "rs", "go")):
        (hive / f"lang={lang}").mkdir(parents=True)
        pq.write_table(_part(4 + i), hive / f"lang={lang}" / "part-0.parquet")
    # numeric data columns; a hive value that reads as a string
    typed = root / "typed" / "year=2020"
    typed.mkdir(parents=True)
    pq.write_table(
        _part(7).append_column("doc_id", pa.array([3, 1, 2, 0], pa.int64())),
        typed / "part-0.parquet",
    )
    return str(flat), str(hive), str(root / "typed")


@pytest.mark.parametrize(
    "case",
    ["dir", "dir/", "file", "list", "columns", "hive", "hive-file", "file-uri", "typed"],
)
def test_reader_matches_read_parquet(ray_session, layouts, case, monkeypatch):
    """``read_files`` reads what ``ray.data.read_parquet`` reads: the same
    table, schema and row order included, and ``schema()`` names it
    without running the read. Both reads keep their blocks in task order
    (concurrent read tasks otherwise finish in any order)."""
    import ray.data

    from europa_ray.sources.files import read_files

    options = ray.data.DataContext.get_current().execution_options
    monkeypatch.setattr(options, "preserve_order", True)

    flat, hive, typed = layouts
    path, columns = {
        "dir": (flat, None),
        "dir/": (flat + "/", None),
        "file": (os.path.join(flat, "b.parquet"), None),
        "list": ([os.path.join(flat, "sub", "c.parquet"), os.path.join(flat, "a.parquet")], None),
        "columns": (flat, ["content", "repo"]),
        "hive": (hive, None),
        "hive-file": (os.path.join(hive, "lang=rs", "part-0.parquet"), None),
        "file-uri": ("file://" + flat, None),
        "typed": (typed, None),
    }[case]
    got = read_files(path, columns=columns)
    planned = got.schema().base_schema
    got = collect(got)
    want = collect(ray.data.read_parquet(path, columns=columns))
    assert got.schema == want.schema == planned
    assert got.equals(want)
    assert got.num_rows == {"file": 7, "hive-file": 4, "list": 8, "hive": 12, "typed": 4}.get(
        case, 17
    )


def test_reader_missing_path_raises(ray_session, tmp_path):
    from europa_ray.sources.files import read_files

    with pytest.raises(FileNotFoundError):
        read_files(str(tmp_path / "nope"))


def test_reader_file_without_a_column_raises(ray_session, tmp_path):
    """A file that lacks a column of the dataset schema fails the read
    instead of reading as nulls."""
    import pyarrow.parquet as pq

    from europa_ray.sources.files import read_files

    pq.write_table(_part(0), tmp_path / "a.parquet")
    pq.write_table(_part(1).drop_columns(["content"]), tmp_path / "b.parquet")
    with pytest.raises(Exception, match="has no column"):
        read_files(str(tmp_path)).materialize()


def test_building_the_read_submits_no_task(ray_session, layouts, monkeypatch):
    """Planning the read and asking its schema start no Ray task (Ray's
    Parquet reader runs sampling tasks here)."""
    from ray.remote_function import RemoteFunction

    from europa_ray.sources.files import read_files

    calls = []
    submit = RemoteFunction._remote

    def counted(self, *args, **kwargs):
        calls.append(self)
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counted)
    ds = read_files(layouts[0])
    assert ds.schema().names == ["repo", "path", "content"]
    assert calls == []


@pytest.mark.parametrize(
    "sizes,n",
    [([5] * 8, 4), ([1, 1, 1, 100], 2), ([100, 1, 1, 1], 3), ([3, 9, 1], 8), ([7], 4), ([], 2),
     ([1] * 10, 1), ([50, 0, 0, 50], 2)],
)
def test_byte_runs_contiguous_nonempty(sizes, n):
    from europa_ray.sources.files import _byte_runs

    runs = _byte_runs(sizes, n)
    assert len(runs) == min(n, len(sizes))
    assert [lo for lo, _ in runs[1:]] == [hi for _, hi in runs[:-1]]
    if sizes:
        assert runs[0][0] == 0 and runs[-1][1] == len(sizes)
    assert all(hi > lo for lo, hi in runs)


def test_byte_runs_balance_bytes():
    from europa_ray.sources.files import _byte_runs

    assert _byte_runs([5] * 8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert _byte_runs([10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], 2) == [(0, 1), (1, 11)]
