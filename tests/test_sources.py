"""Source-format parity: JSONL and CSV corpus readers produce the same
rows and run the same pipeline as the Parquet reader."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def multi_format_corpus(ray_session, tmp_path_factory):
    """The planted corpus written as parquet + jsonl + csv shards."""
    import json

    from europa_ray.corpus import generate_corpus

    t = generate_corpus(n_rows=400, seed=42)["files"]
    # CSV can't carry embedded newlines portably: flatten for this fixture
    import pyarrow.compute as pc

    t = t.set_column(
        t.column_names.index("content"),
        "content",
        pc.replace_substring(t["content"], "\n", " "),
    )
    root = tmp_path_factory.mktemp("formats")
    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq

    pq.write_table(t, str(root / "files.parquet"))
    with open(root / "files.jsonl", "w") as f:
        for row in t.to_pylist():
            f.write(json.dumps(row) + "\n")
    pacsv.write_csv(t, str(root / "files.csv"))
    return str(root), t


def _sorted_rows(ds) -> list[tuple]:
    df = ds.to_pandas()
    cols = ["repo", "path", "commit", "lang", "content"]
    return sorted(map(tuple, df[cols].values))


def test_jsonl_csv_match_parquet(multi_format_corpus):
    import ray.data

    from europa_ray.sources.files import read_files_csv, read_files_jsonl

    root, t = multi_format_corpus
    want = _sorted_rows(ray.data.read_parquet(os.path.join(root, "files.parquet")))
    got_j = _sorted_rows(read_files_jsonl(os.path.join(root, "files.jsonl")))
    got_c = _sorted_rows(read_files_csv(os.path.join(root, "files.csv")))
    assert got_j == want
    assert got_c == want


def test_pipeline_over_jsonl(multi_format_corpus):
    """The exact-dedup pipeline runs unchanged over a JSONL-ingested corpus
    and finds the same clusters as over Parquet."""
    import ray.data

    from europa_ray.pipelines.exact import exact_dup_clusters
    from europa_ray.sources.files import read_files_jsonl

    root, _ = multi_format_corpus
    a = exact_dup_clusters(
        read_files_jsonl(os.path.join(root, "files.jsonl"))
    ).to_pandas()
    b = exact_dup_clusters(
        ray.data.read_parquet(os.path.join(root, "files.parquet"))
    ).to_pandas()
    key = lambda df: sorted(zip(df.sha256, df.path))
    assert key(a) == key(b)
    assert len(a) > 0  # planted exact dups present


def test_missing_column_fails_fast(ray_session):
    import ray.data

    from europa_ray.sources.files import _normalize_files_schema

    ds = ray.data.from_arrow(
        pa.table({"repo": pa.array(["r"]), "content": pa.array(["x"])})
    )
    with pytest.raises(Exception, match="missing required columns"):
        _normalize_files_schema(ds).materialize()


def test_jsonl_csv_skip_sidecar_files(ray_session, tmp_path):
    """A corpus directory named without a trailing slash is read without
    its ``_``/``.``-prefixed sidecars (``_SUCCESS``, ``.crc``, a ``_tmp/``
    shard, a hidden file in a subdirectory), as Parquet discovery skips
    them; data files in subdirectories are still read."""
    import json

    import pyarrow.csv as pacsv

    from europa_ray.sources.files import FILES_COLUMNS, read_files_csv, read_files_jsonl

    def rows(tag, n):
        return [
            {"repo": tag, "path": f"{tag}{i}.py", "commit": "c", "lang": "py", "content": f"x{i}"}
            for i in range(n)
        ]

    def write_jsonl(path, recs):
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))

    def write_csv(path, recs):
        pacsv.write_csv(pa.Table.from_pylist(recs), str(path))

    for ext, write, read in (
        ("jsonl", write_jsonl, read_files_jsonl),
        ("csv", write_csv, read_files_csv),
    ):
        d = tmp_path / ext
        (d / "sub").mkdir(parents=True)
        (d / "_tmp").mkdir()
        write(d / f"a.{ext}", rows("a", 3))
        write(d / "sub" / f"c.{ext}", rows("c", 2))
        write(d / "_tmp" / f"b.{ext}", rows("tmp", 4))
        write(d / "sub" / f".part.{ext}", rows("hidden", 5))
        write(d / f".a.{ext}.crc", rows("crc", 1))
        (d / "_SUCCESS").write_text("")
        got = read(str(d)).to_pandas()
        assert list(got.columns) == FILES_COLUMNS
        assert sorted(got.repo) == ["a"] * 3 + ["c"] * 2, ext
