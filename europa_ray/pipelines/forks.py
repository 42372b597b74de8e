"""Repository-level fork detection: set similarity over per-repo file-hash
sets.

The corpus-level sibling of the reference's per-file duplicate grouping
(``Api/Implementations/DuplicatesByHash/DuplicateByHashFinder.cs:29-77``):
instead of clustering FILES by content digest, cluster REPOSITORIES by the
Jaccard similarity of their file-content-digest sets — the "fork / mirror /
vendored-copy" structure a source-code training corpus must collapse before
file-level dedup rates mean anything (forks dominate public code corpora;
see Kocetkov et al., "The Stack", 2022, which dedups at exactly this
granularity).

Engine shape (all digest-space — content never enters a shuffle)::

    files → map_batches(sha256, keep repo) → groupby(repo, sha256) distinct
         → df-cap filter (boilerplate suppression, see below)
         → per-sha repo pairs → groupby(repo_a, repo_b).count = |A∩B|
         → attach |A|,|B| → jaccard ≥ τ

Skew (the north-rule's "boilerplate/license clusters"): a digest present in
R repos emits R·(R−1)/2 pairs, so one vendored license file across 10⁶
repos would emit 5·10¹¹ pairs. Digests with repo-frequency >
``max_repos_per_sha`` are EXCLUDED from the similarity universe entirely
(both intersection and union, so the measure stays a true Jaccard over the
capped universe) — they are boilerplate and carry no fork signal. The cap
is part of the operator's definition and is mirrored exactly by the DuckDB
oracle (``oracle_sql()['repo_fork_pairs']``).

Size dispatch (house pattern, e.g. ``pipelines/exact.py``): the distinct
(repo, digest) table is ≪ corpus (32 B + repo key per distinct file per
repo). Below ``driver_max_rows`` it is gathered and resolved with one
lexsort + grouped ``triu_indices`` expansion (no per-row Python); above it,
a fully relational path (distinct → df-join → self-join on digest →
pair-count groupby) runs distributed — forced-budget-0 equivalence tested
in ``tests/test_forks.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from europa_ray.stages.hash_stage import add_sha256
from europa_ray.util import hash_join, hex_to_u256_arrow

DEFAULT_THRESHOLD = 0.5
DEFAULT_MAX_REPOS_PER_SHA = 16

_PAIR_SCHEMA = pa.schema(
    [
        ("repo_a", pa.string()),
        ("repo_b", pa.string()),
        ("n_common", pa.int64()),
        ("n_a", pa.int64()),
        ("n_b", pa.int64()),
        ("jaccard", pa.float64()),
    ]
)


def _distinct_repo_digests(files: ray.data.Dataset) -> ray.data.Dataset:
    """(repo, sha256) distinct over nonempty-content rows — one groupby;
    content is projected away in the hash stage so the shuffle moves
    ~(repo key + 64 hex) bytes per row."""

    def nonempty(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        c = batch["content"]
        mask = pc.and_kleene(pc.is_valid(c), pc.greater(pc.utf8_length(c), 0))
        return batch.filter(pc.fill_null(mask, False))

    hashed = files.map_batches(nonempty, batch_format="pyarrow").map_batches(
        add_sha256, fn_kwargs={"keep_cols": ("repo",)}, batch_format="pyarrow"
    )
    return (
        hashed.groupby(["repo", "sha256"])
        .count()
        .select_columns(["repo", "sha256"])
        .materialize()
    )


def _pairs_from_arrays(
    repo_codes: np.ndarray,
    repo_names: np.ndarray,
    shas: np.ndarray,
    threshold: float,
    max_repos_per_sha: int,
) -> pa.Table:
    """Vectorized driver-path resolution over factorized (repo, sha) rows."""
    order = np.argsort(shas, kind="stable")
    shas = shas[order]
    repo_codes = repo_codes[order]
    new_g = np.ones(shas.shape[0], dtype=bool)
    new_g[1:] = shas[1:] != shas[:-1]
    starts = np.flatnonzero(new_g)
    sizes = np.diff(np.append(starts, shas.shape[0]))

    # df cap: drop whole sha groups with too many repos (boilerplate)
    keep_group = sizes <= max_repos_per_sha
    keep_row = np.repeat(keep_group, sizes)
    repo_codes_kept = repo_codes[keep_row]
    n_by_repo = np.bincount(repo_codes_kept, minlength=repo_names.shape[0])

    starts = starts[keep_group & (sizes >= 2)]
    gsizes = sizes[keep_group & (sizes >= 2)]
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for s in np.unique(gsizes):
        st = starts[gsizes == s]
        iu, ju = np.triu_indices(int(s), k=1)
        ca = repo_codes[(st[:, None] + iu[None, :]).ravel()]
        cb = repo_codes[(st[:, None] + ju[None, :]).ravel()]
        lo = np.minimum(ca, cb)
        hi = np.maximum(ca, cb)
        out_a.append(lo)
        out_b.append(hi)
    if not out_a:
        return _PAIR_SCHEMA.empty_table()
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    key = a.astype(np.int64) * repo_names.shape[0] + b
    uk, n_common = np.unique(key, return_counts=True)
    ua = (uk // repo_names.shape[0]).astype(np.int64)
    ub = (uk % repo_names.shape[0]).astype(np.int64)
    n_a = n_by_repo[ua]
    n_b = n_by_repo[ub]
    jac = n_common / (n_a + n_b - n_common)
    sel = jac >= threshold
    ra = repo_names[ua[sel]]
    rb = repo_names[ub[sel]]
    # canonical output order: lexical (repo_a, repo_b)
    order = np.lexsort((rb, ra))
    return pa.table(
        {
            "repo_a": pa.array(ra[order], pa.string()),
            "repo_b": pa.array(rb[order], pa.string()),
            "n_common": pa.array(n_common[sel][order], pa.int64()),
            "n_a": pa.array(n_a[sel][order], pa.int64()),
            "n_b": pa.array(n_b[sel][order], pa.int64()),
            "jaccard": pa.array(jac[sel][order], pa.float64()),
        }
    )


def repo_fork_pairs(
    files: ray.data.Dataset,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    max_repos_per_sha: int = DEFAULT_MAX_REPOS_PER_SHA,
    driver_max_rows: int = 50_000_000,
    num_partitions: int | None = None,
) -> pa.Table | ray.data.Dataset:
    """Repo pairs with file-hash-set Jaccard ≥ ``threshold``.

    Output columns: ``repo_a, repo_b, n_common, n_a, n_b, jaccard`` with
    ``repo_a < repo_b`` lexically; sizes/intersections count DISTINCT
    content digests within the df-capped universe (see module docstring).
    """

    # Driver path: stream the RAW (repo, digest) rows (metadata-only,
    # ~100 B/row) and do the DISTINCT in numpy — a cold Ray hash-shuffle
    # groupby costs tens of seconds of aggregator-actor startup that a
    # small/medium corpus never amortizes (measured 38 s for 10k rows in a
    # fresh session vs <1 s for this gather). The budget check is on raw
    # rows, stricter than the distinct count it bounds.
    def nonempty(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        c = batch["content"]
        mask = pc.and_kleene(pc.is_valid(c), pc.greater(pc.utf8_length(c), 0))
        return batch.filter(pc.fill_null(mask, False))

    hashed = files.map_batches(nonempty, batch_format="pyarrow").map_batches(
        add_sha256, fn_kwargs={"keep_cols": ("repo",)}, batch_format="pyarrow"
    ).select_columns(["repo", "sha256"])

    repo_parts: list[np.ndarray] = []
    sha_parts: list[np.ndarray] = []
    total = 0
    over = False
    for b in hashed.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        total += b.num_rows
        if total > driver_max_rows:
            over = True
            break
        repo_parts.append(np.asarray(b["repo"].to_pylist(), dtype=object))
        sha_parts.append(hex_to_u256_arrow(b["sha256"]))

    if not over:
        if not repo_parts:
            return _PAIR_SCHEMA.empty_table()
        repos = np.concatenate(repo_parts)
        shas = np.concatenate(sha_parts)
        repo_names, repo_codes = np.unique(repos, return_inverse=True)
        # distinct (repo, sha): one structured sort + adjacent-dedup
        rec = np.empty(
            repos.shape[0],
            dtype=[("s", shas.dtype), ("c", np.int64)],
        )
        rec["s"] = shas
        rec["c"] = repo_codes
        rec = np.unique(rec)
        return _pairs_from_arrays(
            rec["c"], repo_names, rec["s"], threshold, max_repos_per_sha
        )

    distinct = _distinct_repo_digests(files)

    # --- distributed path: all-relational, digest-keyed ---
    df = (
        distinct.groupby("sha256")
        .count()
        .rename_columns({"count()": "repo_df"})
        .filter(expr=f"repo_df <= {max_repos_per_sha}")
        .materialize()
    )
    capped = hash_join(
        distinct, df, "inner", ("sha256",), num_partitions=num_partitions
    ).materialize()
    # per-repo set sizes: one row per repo (repos ≪ corpus — the operator's
    # core cardinality assumption, same as the driver path's name table).
    # Broadcast once via ray.put and attached with a vectorized searchsorted
    # inside the finish map — the house broadcast-small-side pattern
    # (cf. exact.py:cross_corpus_new_docs); two hash-shuffle joins of
    # aggregate-sized tables would cost more and trip Ray 2.49's
    # schema-less-empty-partition join bug besides.
    sizes = (
        capped.groupby("repo")
        .count()
        .rename_columns({"count()": "n_files"})
        .materialize()
    )
    name_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    for b in sizes.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        name_parts.append(np.asarray(b["repo"].to_pylist(), dtype=object))
        count_parts.append(b["n_files"].to_numpy().astype(np.int64))
    size_names = np.concatenate(name_parts) if name_parts else np.empty(0, object)
    size_counts = np.concatenate(count_parts) if count_parts else np.empty(0, np.int64)
    order = np.argsort(size_names)
    sizes_ref = ray.put((size_names[order], size_counts[order]))
    shared = capped.filter(expr="repo_df >= 2")
    rhs = shared.select_columns(["repo", "sha256"]).rename_columns(
        {"repo": "repo_b"}
    )
    lhs = shared.select_columns(["repo", "sha256"]).rename_columns({"repo": "repo_a"})
    joined = hash_join(lhs, rhs, "inner", ("sha256",), num_partitions=num_partitions)
    cross = joined.filter(expr="repo_a < repo_b")
    inter = (
        cross.groupby(["repo_a", "repo_b"])
        .count()
        .rename_columns({"count()": "n_common"})
        # pair-count aggregate (≪ corpus); consumed twice (count + sort)
        .materialize()
    )
    def finish(batch: pa.Table) -> pa.Table:
        names, counts = ray.get(sizes_ref)
        nc = batch["n_common"].to_numpy().astype(np.int64)
        ra = np.asarray(batch["repo_a"].to_pylist(), dtype=object)
        rb = np.asarray(batch["repo_b"].to_pylist(), dtype=object)
        na = counts[np.searchsorted(names, ra)]
        nb = counts[np.searchsorted(names, rb)]
        jac = nc / (na + nb - nc)
        out = pa.table(
            {
                "repo_a": batch["repo_a"],
                "repo_b": batch["repo_b"],
                "n_common": pa.array(nc, pa.int64()),
                "n_a": pa.array(na, pa.int64()),
                "n_b": pa.array(nb, pa.int64()),
                "jaccard": pa.array(jac, pa.float64()),
            }
        )
        return out.filter(pa.array(jac >= threshold))

    out = inter.map_batches(finish, batch_format="pyarrow")
    if out.count() == 0:
        return _PAIR_SCHEMA.empty_table()
    return out.sort(["repo_a", "repo_b"])
