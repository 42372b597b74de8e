"""Driver-gate emulation: run every ``queries()`` entry at sf0.001 and
compare against its ``oracle_sql()`` the way the driver does — row count,
column names, order-insensitive value comparison. The oracle test is
parametrized over ``queries()`` itself, so no entry goes unchecked."""

from __future__ import annotations

import duckdb
import pandas as pd
import pytest

import __ray_entry__
from tests.conftest import SF_TINY


def _to_df(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def _oracle(sql: str, sf_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ["documents", "embeddings", "events"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    return con.execute(sql).df()


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    import __ray_entry__ as e

    return e


def test_all_queries_have_callables(entry_mod):
    qs = entry_mod.queries()
    assert len(qs) >= 15
    oracles = entry_mod.oracle_sql()
    assert set(oracles) <= set(qs)


@pytest.mark.parametrize("name", list(__ray_entry__.queries()))
def test_query_matches_oracle(entry_mod, name):
    fn = entry_mod.queries()[name]
    sql = entry_mod.oracle_sql()[name]
    got = _normalize(_to_df(fn(SF_TINY)))
    want = _normalize(_oracle(sql, SF_TINY))
    assert list(got.columns) == list(want.columns), (got.columns, want.columns)
    assert len(got) == len(want), f"{name}: rows {len(got)} vs oracle {len(want)}"
    if len(got):
        # numeric columns compared with tolerance, strings exactly
        for c in got.columns:
            if got[c].dtype.kind in "fc":
                assert (abs(got[c].to_numpy() - want[c].to_numpy()) < 1e-9).all(), c
            else:
                assert (got[c].astype(str).to_numpy() == want[c].astype(str).to_numpy()).all(), c


# The tiered oracles built by ``_tiered_sql`` and the key each returns one
# row per: the attributions one row per doc_id, the savings rollup one per tier.
_TIER_ORACLE_KEYS = {
    "tiered_dedup": "doc_id",
    "tiered_dedup_longest": "doc_id",
    "tiered_dedup_t2": "doc_id",
    "tier_savings": "tier",
}


@pytest.mark.parametrize("name", list(_TIER_ORACLE_KEYS))
def test_tier_oracle_fits_in_memory(name):
    """Each tiered oracle finishes at sf0.001 under a 2 GB DuckDB memory
    limit (they need at most 1 GB with the survivor and edge CTEs
    materialized; the t2 oracle without that fails even at 3 GB), so a plan
    regression shows as a fast error here, not as an exhausted machine."""
    con = duckdb.connect()
    con.execute("SET memory_limit='2GB'")
    for t in ["documents", "embeddings", "events"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_TINY}/{t}.parquet'")
    df = con.execute(__ray_entry__.oracle_sql()[name]).df()
    key = _TIER_ORACLE_KEYS[name]
    assert len(df) > 0
    assert df[key].is_unique, df[key].value_counts().head()


def test_every_query_is_oracle_checked(entry_mod):
    """Round-4 invariant: EVERY queries() entry has a DuckDB oracle (no
    rows-only queries remain)."""
    assert set(entry_mod.oracle_sql()) == set(entry_mod.queries())


def test_entry_smoke(entry_mod):
    df = entry_mod.entry()
    assert df is not None and len(df.columns) >= 3


def test_entry_sf_dir_cluster_consistency(entry_mod):
    """entry(sf_dir) runs the flagship at the PRODUCTION config (banded
    LSH + estimate verify); the oracle-checked ``minhash_near_dup_clusters``
    runs the ≡-by-construction config. On the planted corpus the two must
    agree on the cluster structure to within the engine's measured
    precision band (pair precision 0.9989 — estimate-verify may admit a
    few borderline pairs the exact config rejects, never miss planted
    ones)."""
    df = entry_mod.entry(SF_TINY)
    oracle = _to_df(entry_mod.queries()["minhash_near_dup_clusters"](SF_TINY))
    n_prod, n_oracle = df["cluster_id"].nunique(), oracle["cluster_id"].nunique()
    assert n_oracle > 0
    assert abs(n_prod - n_oracle) <= max(2, 0.05 * n_oracle), (n_prod, n_oracle)
    # production members must be a superset of the oracle's (recall side)
    assert set(oracle["doc_id"]) <= set(df["doc_id"])


def test_near_dup_queries_nonempty_with_mutants(entry_mod):
    """The mutant augmentation guarantees near-dup structure even on a
    unique-document corpus — the flagship must find it."""
    clusters = _to_df(entry_mod.queries()["minhash_near_dup_clusters"](SF_TINY))
    assert len(clusters) > 0
    pairs = _to_df(entry_mod.queries()["minhash_pairs"](SF_TINY))
    assert len(pairs) > 0


def test_planted_substr_pairs_found_exactly(entry_mod):
    """The substring query must find EXACTLY the planted verbatim-block
    mutant pairs (positive driver signal — 'finds', not just 'runs' —
    with zero false positives on the unique-document corpus)."""
    import hashlib

    import numpy as np
    import pyarrow.parquet as pq

    from europa_ray.sources.augment import _mutant_rows
    from europa_ray.util import hex_to_u64

    got = _to_df(entry_mod.queries()["substr_pairs"](SF_TINY))
    docs = pq.read_table(SF_TINY + "/documents.parquet", columns=["doc_id", "text"])
    batch = docs.rename_columns(["doc_id", "content"])
    expected_pairs = set()
    by_src: dict[int, dict[int, str]] = {}
    for new_id, content in _mutant_rows(batch):
        if new_id < 20_000_000:
            continue  # token-drop mutants aren't substring pairs
        by_src.setdefault(new_id % 10_000_000, {})[new_id // 10_000_000] = content

    def node_of(text: str) -> int:
        h = hashlib.sha256(text.encode()).hexdigest()
        return int(hex_to_u64([h]).view(np.int64)[0])

    for src, two in by_src.items():
        na, nb = node_of(two[2]), node_of(two[3])
        expected_pairs.add((min(na, nb), max(na, nb)))
    assert len(expected_pairs) > 0
    found = set(zip(got.a, got.b))
    assert found == expected_pairs, (len(found), len(expected_pairs))


def test_planted_embedding_dups_found(entry_mod):
    """The embedding near-dup queries must find the planted exact copies
    (score 1.0) — exact and LSH variants agree."""
    exact = _to_df(entry_mod.queries()["embedding_dup_pairs"](SF_TINY))
    lsh = _to_df(entry_mod.queries()["embedding_dup_pairs_lsh"](SF_TINY))
    assert len(exact) > 0
    assert (exact.b - exact.a == 5_000_000).all()
    assert (exact.score == 1.0).all()
    k = lambda df: sorted(zip(df.a, df.b))
    assert k(exact) == k(lsh)
