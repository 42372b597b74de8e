"""End-to-end exact-dedup pipeline tests vs DuckDB oracle (SURVEY.md §3.1)."""

from __future__ import annotations

import duckdb
import pytest

from tests.conftest import SF_SMALL, collect


@pytest.fixture(scope="module")
def files_ds(ray_session, tiny_corpus):
    import ray.data

    return ray.data.read_parquet(tiny_corpus)


def test_exact_clusters_match_duckdb(ray_session, files_ds, tiny_corpus):
    from europa_ray.pipelines.exact import exact_dup_clusters

    got = exact_dup_clusters(files_ds).to_pandas()
    oracle = duckdb.sql(
        f"""
        SELECT repo, path, commit, sha256(content) AS sha256
        FROM parquet_scan('{tiny_corpus}/*.parquet')
        WHERE length(content) > 0
        QUALIFY count(*) OVER (PARTITION BY sha256(content)) > 1
        ORDER BY sha256, repo, path, commit
        """
    ).df()
    # deterministic order: sorted by cluster_id then identity, row for row
    key = lambda df, cid: list(zip(df[cid], df.repo, df.path, df.commit))
    assert key(got, "cluster_id") == key(oracle, "sha256")
    # members of a cluster all share cluster_id == sha256
    assert (got.cluster_id == got.sha256).all()


def test_exact_distributed_fallback_matches_driver(ray_session, files_ds, monkeypatch):
    """DRIVER_MAX_KEYS=0 routes the digest counts through the distributed
    groupby + join: same table as the driver path, row order included."""
    from europa_ray.pipelines import exact

    driver = collect(exact.exact_dup_clusters(files_ds))
    monkeypatch.setattr(exact, "DRIVER_MAX_KEYS", 0)
    distributed = collect(exact.exact_dup_clusters(files_ds))
    assert driver.num_rows > 0
    assert driver.schema == distributed.schema
    assert driver.equals(distributed)


def test_exact_distributed_fallback_no_duplicates(ray_session, monkeypatch):
    """A corpus with no duplicate content: both paths return zero rows with
    the same schema."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines import exact

    files = ray.data.from_arrow(
        pa.table(
            {
                "repo": pa.array(["r1", "r1", "r2"]),
                "path": pa.array(["a.py", "b.py", "c.py"]),
                "commit": pa.array(["c1", "c1", "c2"]),
                "content": pa.array(["one", "two", "three"]),
            }
        )
    ).repartition(2)
    driver = exact.exact_dup_clusters(files)
    monkeypatch.setattr(exact, "DRIVER_MAX_KEYS", 0)
    distributed = exact.exact_dup_clusters(files)
    assert driver.count() == distributed.count() == 0
    assert driver.schema().base_schema == distributed.schema().base_schema
    assert {"cluster_id", "n_members", "repo", "path", "commit"} <= set(
        driver.schema().names
    )


def test_exact_excludes_empty_content(ray_session, files_ds):
    from europa_ray.pipelines.exact import exact_dup_clusters

    got = exact_dup_clusters(files_ds).to_pandas()
    # empty-content rows carry sha=None and are dropped (HashGenerator.cs:18-19);
    # no cluster can be keyed by null
    assert got.sha256.notna().all()


def test_two_pass_equivalence(ray_session, files_ds):
    from europa_ray.config import EngineConfig
    from europa_ray.pipelines.exact import exact_dup_clusters

    base = exact_dup_clusters(files_ds).to_pandas()
    two = exact_dup_clusters(files_ds, EngineConfig(two_pass=True)).to_pandas()
    key = lambda df: sorted(zip(df.repo, df.path, df.commit, df.sha256))
    assert key(base) == key(two)


def test_filters(ray_session, files_ds, tiny_corpus):
    from europa_ray.config import EngineConfig
    from europa_ray.pipelines.exact import dedup_representatives

    # include-list wins; exclude only when include empty (FileFilter.cs:7-17)
    inc = dedup_representatives(
        files_ds, EngineConfig(include_langs=("python",), exclude_langs=("python",))
    ).to_pandas()
    oracle_inc = duckdb.sql(
        f"""SELECT count(DISTINCT sha256(content)) c FROM parquet_scan('{tiny_corpus}/*.parquet')
            WHERE lang='python' AND length(content)>0"""
    ).fetchone()[0]
    assert len(inc) == oracle_inc

    exc = dedup_representatives(files_ds, EngineConfig(exclude_langs=("python",))).to_pandas()
    oracle_exc = duckdb.sql(
        f"""SELECT count(DISTINCT sha256(content)) c FROM parquet_scan('{tiny_corpus}/*.parquet')
            WHERE lang!='python' AND length(content)>0"""
    ).fetchone()[0]
    assert len(exc) == oracle_exc

    sized = dedup_representatives(files_ds, EngineConfig(min_size=100, max_size=1000)).to_pandas()
    oracle_sz = duckdb.sql(
        f"""SELECT count(DISTINCT sha256(content)) c FROM parquet_scan('{tiny_corpus}/*.parquet')
            WHERE length(content) BETWEEN 100 AND 1000"""
    ).fetchone()[0]
    assert len(sized) == oracle_sz


def test_dedup_representatives_on_driver_documents(ray_session):
    from europa_ray.pipelines.exact import dedup_representatives
    from europa_ray.sources.files import read_documents_as_files

    ds = read_documents_as_files(SF_SMALL)
    reps = dedup_representatives(ds, id_col="doc_id").to_pandas()
    oracle = duckdb.sql(
        f"""SELECT sha256(text) AS sha256, min(doc_id) AS doc_id
            FROM '{SF_SMALL}/documents.parquet' WHERE length(text)>0 GROUP BY 1 ORDER BY 1"""
    ).df()
    assert reps.sha256.tolist() == oracle.sha256.tolist()
    assert reps.doc_id.tolist() == oracle.doc_id.tolist()


def test_cross_corpus_new_docs_both_paths(ray_session):
    """Anti-join by content digest: reference-present content drops, new
    content passes; broadcast and forced-budget-0 join paths agree."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.exact import cross_corpus_new_docs

    ref = ray.data.from_arrow(
        pa.table(
            {
                "path": pa.array(["a", "b", "c"]),
                "content": pa.array(["old one", "old two", "old three"]),
            }
        )
    )
    new = ray.data.from_arrow(
        pa.table(
            {
                "path": pa.array(["x", "y", "z", "w"]),
                # y duplicates reference content; w is empty (dropped)
                "content": pa.array(["fresh one", "old two", "fresh two", ""]),
            }
        )
    )
    a = cross_corpus_new_docs(new, ref).to_pandas()
    assert sorted(a.path) == ["x", "z"]
    b = cross_corpus_new_docs(new, ref, broadcast_max_digests=0).to_pandas()
    assert sorted(b.path) == ["x", "z"]
    assert sorted(map(tuple, a[["path", "sha256"]].values)) == sorted(
        map(tuple, b[["path", "sha256"]].values)
    )


def test_dedup_report_within_group_semantics(ray_session):
    """Counts are WITHIN-group: a content duplicated across two repos is
    distinct in each; within-repo copies count as dup mass."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.exact import dedup_report

    files = ray.data.from_arrow(
        pa.table(
            {
                "repo": pa.array(["r1", "r1", "r1", "r2", "r2", "r2"]),
                "path": pa.array([f"{i}.py" for i in range(6)]),
                "content": pa.array(
                    ["same", "same", "only r1", "same", "b", ""]
                ),
            }
        )
    )
    out = dedup_report(files).to_pandas().set_index("repo")
    # r1: 3 files, 2 distinct (two copies of "same")
    assert out.loc["r1"].to_dict() == {
        "n_files": 3, "n_distinct": 2, "dup_rows": 1,
        "dup_rate_ppm": 333_333,
    }
    # r2: empty content dropped -> 2 files, both distinct ("same" is
    # distinct within r2 even though r1 also has it)
    assert out.loc["r2"].to_dict() == {
        "n_files": 2, "n_distinct": 2, "dup_rows": 0, "dup_rate_ppm": 0,
    }


def test_dedup_report_empty_corpus(ray_session):
    """All rows filtered (empty content) → zero groups, schema intact."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.exact import dedup_report

    files = ray.data.from_arrow(
        pa.table(
            {
                "repo": pa.array(["r1", "r2"]),
                "path": pa.array(["a.py", "b.py"]),
                "content": pa.array(["", None], pa.string()),
            }
        )
    )
    out = dedup_report(files)
    tbl = out.to_pandas()
    assert len(tbl) == 0


def test_dedup_report_distributed_equivalent(ray_session):
    """Forced driver_max_rows=0 → the two-shuffle distributed path; output
    equals the driver gather path row-for-row."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.exact import dedup_report

    files = ray.data.from_arrow(
        pa.table(
            {
                "repo": pa.array(["r1", "r1", "r1", "r2", "r2"]),
                "path": pa.array([f"{i}.py" for i in range(5)]),
                "content": pa.array(["same", "same", "x", "same", "y"]),
            }
        )
    )
    a = dedup_report(files).to_pandas()
    b = dedup_report(files, driver_max_rows=0).to_pandas()
    assert a.values.tolist() == b.values.tolist()
    assert list(a.columns) == list(b.columns)


@pytest.mark.parametrize("budget", [50_000_000, 0])
def test_dup_rate_by_lang(ray_session, budget):
    """Hand-computed per-lang dup profile, incl. a digest spanning langs
    (duplicates in each) and excluded empty/null rows."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.exact import dup_rate_by_lang

    t = pa.table(
        {
            "doc_id": pa.array(range(8), pa.int64()),
            "lang": pa.array(
                ["en", "en", "en", "de", "de", "en", "de", "en"], pa.string()
            ),
            "content": pa.array(
                # "dup" ×2 in en; "xlang" in en AND de (cross-lang group);
                # "solo"/"only" unique; empty + null excluded
                ["dup", "dup", "xlang", "xlang", "solo", "only", "", None],
                pa.string(),
            ),
        }
    )
    got = dup_rate_by_lang(
        ray.data.from_arrow(t).repartition(3), driver_max_rows=budget
    )
    df = got.to_pandas() if isinstance(got, ray.data.Dataset) else got.to_pandas()
    assert df.lang.tolist() == ["de", "en"]
    assert df.n_docs.tolist() == [2, 4]          # de: xlang,solo; en: dup×2,xlang,only
    assert df.n_dup_docs.tolist() == [1, 3]      # de: xlang; en: dup×2 + xlang
    assert df.n_dup_groups.tolist() == [1, 2]    # de: {xlang}; en: {dup, xlang}


def _lang_table(langs):
    import pyarrow as pa

    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "content": pa.array(
                ["dup", "dup", "xlang", "xlang", "solo", "dup"][: len(langs)],
                pa.string(),
            ),
        }
    )


@pytest.mark.parametrize("budget", [50_000_000, 0])
def test_dup_rate_by_lang_keeps_null_lang_last(ray_session, budget):
    """A null ``lang`` is its own group, ordered last (DuckDB's GROUP BY
    lang ORDER BY lang), on the driver rollup and the distributed one."""
    import ray.data

    from europa_ray.pipelines.exact import dup_rate_by_lang

    t = _lang_table(["en", "en", None, "de", None, None])
    got = dup_rate_by_lang(
        ray.data.from_arrow(t).repartition(3), driver_max_rows=budget
    )
    df = (got if isinstance(got, ray.data.Dataset) else ray.data.from_arrow(got)).to_pandas()
    assert df.lang.tolist() == ["de", "en", None]
    assert df.n_docs.tolist() == [1, 2, 3]       # null: xlang, solo, dup
    assert df.n_dup_docs.tolist() == [1, 2, 2]   # dup ×3 corpus-wide, xlang ×2
    assert df.n_dup_groups.tolist() == [1, 1, 2]


@pytest.mark.parametrize("budget", [100_000_000, 0])
def test_dedup_report_keeps_null_repo_last(ray_session, budget):
    """A null ``repo`` is its own group, ordered last and apart from the
    empty-string repo (DuckDB's GROUP BY repo ORDER BY repo), on the driver
    rollup and the distributed one."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.exact import dedup_report

    t = pa.table(
        {
            "repo": pa.array(["r1", None, "r1", None, "", None], pa.string()),
            "path": pa.array([f"{i}.py" for i in range(6)]),
            "content": pa.array(["x", "y", "x", "y", "y", "z"]),
        }
    )
    got = dedup_report(ray.data.from_arrow(t).repartition(3), driver_max_rows=budget)
    tbl = collect(got) if isinstance(got, ray.data.Dataset) else got
    assert tbl["repo"].to_pylist() == ["", "r1", None]
    assert tbl["n_files"].to_pylist() == [1, 2, 3]
    assert tbl["n_distinct"].to_pylist() == [1, 1, 2]
    assert tbl["dup_rows"].to_pylist() == [0, 1, 1]
    assert tbl["dup_rate_ppm"].to_pylist() == [0, 500_000, 333_333]


def _sort_budget_pair(monkeypatch, run):
    """``run()``'s table with the driver sort, then with ``Dataset.sort``."""
    from europa_ray import util

    driver = collect(run())
    monkeypatch.setattr(util, "DRIVER_SORT_MAX_BYTES", 0)
    distributed = collect(run())
    return driver, distributed


def test_dedup_representatives_sort_dispatch_same_order(ray_session, files_ds, monkeypatch):
    from europa_ray.pipelines.exact import dedup_representatives

    a, b = _sort_budget_pair(monkeypatch, lambda: dedup_representatives(files_ds))
    assert a.num_rows > 0 and a.equals(b)
    assert a["sha256"].to_pylist() == sorted(a["sha256"].to_pylist())


def test_dedup_report_sort_dispatch_same_order(ray_session, files_ds, monkeypatch):
    from europa_ray.pipelines.exact import dedup_report

    a, b = _sort_budget_pair(
        monkeypatch, lambda: dedup_report(files_ds, driver_max_rows=0)
    )
    assert a.num_rows > 1 and a.equals(b)
    assert a.equals(dedup_report(files_ds))  # the driver rollup's table too


def test_dup_rate_by_lang_sort_dispatch_same_order(ray_session, files_ds, monkeypatch):
    from europa_ray.pipelines.exact import dup_rate_by_lang

    a, b = _sort_budget_pair(
        monkeypatch, lambda: dup_rate_by_lang(files_ds, driver_max_rows=0)
    )
    assert a.num_rows > 1 and a.equals(b)
    assert a.equals(dup_rate_by_lang(files_ds))


def test_exact_attach_matches_distributed_across_blocks(ray_session, files_ds, monkeypatch):
    """The member attach runs as one raw task per hashed block; cut into
    16 blocks (some without any duplicated digest, so their tasks return
    zero rows) it gives the one-block table and the distributed path's
    table, row order included."""
    from europa_ray.pipelines import exact

    one = collect(exact.exact_dup_clusters(files_ds.repartition(1)))
    many = collect(exact.exact_dup_clusters(files_ds.repartition(16)))
    monkeypatch.setattr(exact, "DRIVER_MAX_KEYS", 0)
    distributed = collect(exact.exact_dup_clusters(files_ds.repartition(16)))
    assert one.num_rows > 0
    assert one.equals(many) and one.schema == many.schema
    assert one.equals(distributed)


def test_exact_attach_two_pass_same_table(ray_session, files_ds):
    """With ``two_pass`` the hashed rows come out of joins, whose empty
    partitions are zero-row blocks without columns; the attach reads them
    as the hashed schema and the table is the one-pass table."""
    from europa_ray.config import EngineConfig
    from europa_ray.pipelines.exact import exact_dup_clusters

    base = collect(exact_dup_clusters(files_ds))
    two = collect(exact_dup_clusters(files_ds, EngineConfig(two_pass=True)))
    assert base.num_rows > 0
    assert base.select(two.column_names).equals(two)


def test_exact_attach_sort_dispatch_same_order(ray_session, files_ds, monkeypatch):
    """Attached members sorted above the driver budget (``Dataset.sort``
    over the task outputs) give the driver sort's table."""
    from europa_ray.pipelines.exact import exact_dup_clusters

    a, b = _sort_budget_pair(monkeypatch, lambda: exact_dup_clusters(files_ds))
    assert a.num_rows > 0 and a.equals(b)
    keys = list(zip(*(a[c].to_pylist() for c in ("cluster_id", "repo", "path", "commit"))))
    assert keys == sorted(keys)

