"""Cross-repository line duplication — the vendored/copied-code signal at
repo granularity: for every repository, how many of its distinct nonblank
lines also appear in at least one OTHER repository.

A high shared fraction marks vendored dependencies, fork debris, and
boilerplate-heavy repos — the repo-level complement of the per-line C4
dedup in :mod:`europa_ray.pipelines.linededup` and the fork detector in
:mod:`europa_ray.pipelines.forks`. The Stack's dedup analysis (Kocetkov et
al. 2022 §3.2) reports exactly this near-dup-by-copying mass between
repositories.

Semantics (exactly SQL-expressible; the DuckDB oracle verifies value for
value):

- a document's lines are its ``'\\n'``-split segments; a line counts iff it
  is *nonblank* (contains at least one non-space/tab character);
- per repo, lines are counted DISTINCT (a line repeated across the repo's
  files counts once);
- a line is *shared* iff it occurs in more than one distinct repo.

100-TB shape: one corpus scan explodes documents into per-batch DISTINCT
(repo, line-sha) pairs — content never enters a shuffle, only 64-hex
digests (the :mod:`linededup` rule). One digest-keyed groupby makes the
pair stream globally distinct; the per-line repo-count table and both
per-repo counts are aggregates over it. Size-dispatched: a driver fast
path under ``driver_max_rows`` pairs (vectorized ``np.unique`` group
counts), a distributed groupby/join fallback above it (equivalence-tested
at forced budget 0).

Reference parity: the reference hashes whole files and groups by hash
(``/root/reference/Api/Implementations/DuplicatesByHash/
DuplicateByHashFinder.cs:29-77``); this operator applies the same
hash-group semantics at line granularity, aggregated per repository.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from europa_ray.util import (
    hash_join,
    scrub_empty_blocks,
    sha256_hex_arrow,
)

NONBLANK_RE = r"[^ \t]"

STATS_SCHEMA = pa.schema(
    [
        pa.field("repo", pa.string()),
        pa.field("n_distinct_lines", pa.int64()),
        pa.field("n_shared_lines", pa.int64()),
    ]
)

_PAIRS_SCHEMA = pa.schema(
    [pa.field("repo", pa.string()), pa.field("line_sha", pa.string())]
)


def _explode_repo_lines(
    batch: pa.Table, *, text_col: str = "content", repo_col: str = "repo"
) -> pa.Table:
    """Per-batch DISTINCT (repo, line_sha) pairs over nonblank lines;
    null/empty content rows excluded (house rule)."""
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    repos = batch[repo_col]
    if isinstance(repos, pa.ChunkedArray):
        repos = repos.combine_chunks()
    valid = pc.and_(pc.is_valid(col), pc.greater(pc.utf8_length(col), 0))
    col = col.filter(valid)
    repos_np = np.asarray(repos.filter(valid).to_pylist(), dtype=object)
    if len(col) == 0:
        return _PAIRS_SCHEMA.empty_table()

    split = pc.split_pattern(col, "\n")
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    n_lines = pc.list_value_length(split).cast(pa.int64()).to_numpy()
    flat = split.flatten()
    row_of = np.repeat(np.arange(len(col), dtype=np.int64), n_lines)
    if len(flat) == 0:
        return _PAIRS_SCHEMA.empty_table()
    nonblank = pc.match_substring_regex(flat, NONBLANK_RE).to_numpy(
        zero_copy_only=False
    )
    flat, row_of = flat.filter(pa.array(nonblank)), row_of[nonblank]
    if len(flat) == 0:
        return _PAIRS_SCHEMA.empty_table()

    shas = np.asarray(sha256_hex_arrow(flat), dtype="S64")
    # in-batch distinct over (repo, sha): repo codes × sha codes packed key
    rcodes_all, rinv = np.unique(repos_np, return_inverse=True)
    rcode = rinv[row_of]
    scodes_all, scode = np.unique(shas, return_inverse=True)
    key = rcode.astype(np.int64) * scodes_all.shape[0] + scode
    uk = np.unique(key)
    return pa.table(
        {
            "repo": pa.array(
                rcodes_all[uk // scodes_all.shape[0]], pa.string()
            ),
            "line_sha": pa.array(
                scodes_all[uk % scodes_all.shape[0]].astype("U64").astype(object),
                pa.string(),
            ),
        }
    )


def _pair_rows(
    files: ray.data.Dataset, *, text_col: str, repo_col: str
) -> ray.data.Dataset:
    return files.map_batches(
        _explode_repo_lines,
        fn_kwargs={"text_col": text_col, "repo_col": repo_col},
        batch_format="pyarrow",
    )


def _stats_table(
    repos: np.ndarray, shas: np.ndarray
) -> pa.Table:
    """Vectorized driver-path group counts over gathered (repo, sha) pairs
    (may still contain cross-batch duplicates)."""
    if repos.shape[0] == 0:
        return STATS_SCHEMA.empty_table()
    rcodes_all, rcode = np.unique(repos, return_inverse=True)
    scodes_all, scode = np.unique(shas, return_inverse=True)
    key = rcode.astype(np.int64) * scodes_all.shape[0] + scode
    uk = np.unique(key)
    ur, us = uk // scodes_all.shape[0], uk % scodes_all.shape[0]
    n_repos_per_sha = np.bincount(us, minlength=scodes_all.shape[0])
    shared = n_repos_per_sha[us] > 1
    n_distinct = np.bincount(ur, minlength=rcodes_all.shape[0]).astype(np.int64)
    n_shared = np.bincount(
        ur[shared], minlength=rcodes_all.shape[0]
    ).astype(np.int64)
    return pa.table(
        {
            "repo": pa.array(rcodes_all, pa.string()),
            "n_distinct_lines": pa.array(n_distinct, pa.int64()),
            "n_shared_lines": pa.array(n_shared, pa.int64()),
        }
    )  # np.unique → repo-sorted


def cross_repo_line_stats(
    files: ray.data.Dataset,
    *,
    text_col: str = "content",
    repo_col: str = "repo",
    driver_max_rows: int = 50_000_000,
    num_partitions: int | None = None,
):
    """Per-repo line-sharing profile: (repo, n_distinct_lines,
    n_shared_lines), sorted by repo. ``n_shared_lines`` counts the repo's
    distinct nonblank lines that occur in >1 distinct repo."""
    pairs = _pair_rows(files, text_col=text_col, repo_col=repo_col)

    # --- driver fast path: gather distinct pairs under budget ---
    repo_p: list[np.ndarray] = []
    sha_p: list[np.ndarray] = []
    total = 0
    for b in pairs.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        total += b.num_rows
        if total > driver_max_rows:
            repo_p = []
            break
        repo_p.append(np.asarray(b["repo"].to_pylist(), dtype=object))
        sha_p.append(b["line_sha"].to_numpy(zero_copy_only=False).astype("S64"))
    else:
        if not repo_p:
            return STATS_SCHEMA.empty_table()
        return _stats_table(np.concatenate(repo_p), np.concatenate(sha_p))

    # --- distributed fallback ---
    distinct = (
        pairs.groupby(["line_sha", "repo"])
        .count()
        .select_columns(["line_sha", "repo"])
        .materialize()
    )
    # hash-shuffle groupby outputs can carry Ray 2.49 zero-column empty
    # blocks (tiny/skewed partitions) that poison downstream joins on
    # EITHER side — scrub every groupby-descended join input
    distinct = scrub_empty_blocks(
        distinct,
        pa.schema(
            [pa.field("line_sha", pa.string()), pa.field("repo", pa.string())]
        ),
    )
    n_distinct = scrub_empty_blocks(
        distinct.groupby("repo")
        .count()
        .rename_columns({"count()": "n_distinct_lines"})
        .materialize(),
        pa.schema(
            [pa.field("repo", pa.string()), pa.field("n_distinct_lines", pa.int64())]
        ),
    )
    shared = (
        distinct.groupby("line_sha")
        .count()
        .rename_columns({"count()": "n_repos"})
        .filter(expr="n_repos > 1")
        .map_batches(
            lambda b: pa.table({"__s": b["line_sha"]}), batch_format="pyarrow"
        )
        .materialize()
    )
    shared = scrub_empty_blocks(shared, pa.schema([pa.field("__s", pa.string())]))
    if shared.count() == 0:
        return n_distinct.map_batches(
            lambda b: pa.table(
                {
                    "repo": b["repo"],
                    "n_distinct_lines": b["n_distinct_lines"].cast(pa.int64()),
                    "n_shared_lines": pa.array(
                        np.zeros(b.num_rows, np.int64)
                    ),
                }
            ),
            batch_format="pyarrow",
        ).sort("repo")
    n_shared = (
        hash_join(
            distinct, shared, "inner", ("line_sha",), right_on=("__s",),
            num_partitions=num_partitions,
        )
        .groupby("repo")
        .count()
        .rename_columns({"count()": "n_shared_lines"})
        .map_batches(
            lambda b: pa.table(
                {
                    "__r": b["repo"],
                    "n_shared_lines": b["n_shared_lines"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_shared = scrub_empty_blocks(
        n_shared,
        pa.schema(
            [pa.field("__r", pa.string()), pa.field("n_shared_lines", pa.int64())]
        ),
    )
    joined = hash_join(
        n_distinct, n_shared, "left_outer", ("repo",), right_on=("__r",),
        num_partitions=num_partitions,
    )
    joined = scrub_empty_blocks(joined.materialize(), STATS_SCHEMA)

    def finish(b: pa.Table) -> pa.Table:
        ns = b["n_shared_lines"]
        if isinstance(ns, pa.ChunkedArray):
            ns = ns.combine_chunks()
        return pa.table(
            {
                "repo": b["repo"],
                "n_distinct_lines": b["n_distinct_lines"].cast(pa.int64()),
                "n_shared_lines": pc.fill_null(ns, 0).cast(pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow").sort("repo")
