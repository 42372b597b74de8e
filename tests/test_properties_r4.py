"""Property-based tests (hypothesis) for the final-round-4 pure kernels:
cross-repo driver rollup and per-lang dup-rate rollup. All Ray-free."""

from __future__ import annotations

import hashlib
from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

pair_lists = st.lists(
    st.tuples(st.sampled_from(["r1", "r2", "r3"]), st.integers(0, 6)),
    min_size=0,
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(pair_lists)
def test_crossrepo_stats_table_matches_brute_force(pairs):
    from europa_ray.pipelines.crossrepo import _stats_table

    # gathered stream may repeat pairs across batches — kernel must dedupe
    repos = np.asarray([r for r, _ in pairs], dtype=object)
    shas = np.asarray(
        [hashlib.sha256(str(x).encode()).hexdigest().encode() for _, x in pairs],
        dtype="S64",
    )
    per_repo: dict[str, set] = defaultdict(set)
    for r, x in pairs:
        per_repo[r].add(x)
    line_repos: dict[int, set] = defaultdict(set)
    for r, x in pairs:
        line_repos[x].add(r)
    got = _stats_table(repos, shas)
    assert got["repo"].to_pylist() == sorted(per_repo)
    for i, r in enumerate(got["repo"].to_pylist()):
        lines = per_repo[r]
        assert got["n_distinct_lines"][i].as_py() == len(lines)
        assert got["n_shared_lines"][i].as_py() == sum(
            1 for x in lines if len(line_repos[x]) > 1
        )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["en", "de", "fr", None]),
            st.integers(0, 5),
            st.integers(1, 4),
        ),
        min_size=0,
        max_size=30,
    )
)
def test_dup_rate_table_matches_brute_force(rows):
    """(lang, content-id, partial-count) rows → per-lang profile."""
    from europa_ray.pipelines.exact import _dup_rate_table

    langs = np.asarray([l for l, _, _ in rows], dtype=object)
    shas = np.asarray(
        [hashlib.sha256(str(x).encode()).hexdigest().encode() for _, x, _ in rows],
        dtype="S64",
    )
    cs = np.array([c for _, _, c in rows], np.int64)

    total: dict[int, int] = defaultdict(int)
    per: dict[tuple[str, int], int] = defaultdict(int)
    for l, x, c in rows:
        total[x] += c
        per[(l, x)] += c
    got = _dup_rate_table(shas, langs, cs)
    present = {l for l, _, _ in rows}
    langs_u = sorted(present - {None}) + [None] * (None in present)
    assert got["lang"].to_pylist() == langs_u
    for i, l in enumerate(got["lang"].to_pylist()):
        n_docs = sum(c for (ll, _), c in per.items() if ll == l)
        n_dup = sum(c for (ll, x), c in per.items() if ll == l and total[x] > 1)
        n_groups = sum(1 for (ll, x) in per if ll == l and total[x] > 1)
        assert got["n_docs"][i].as_py() == n_docs
        assert got["n_dup_docs"][i].as_py() == n_dup
        assert got["n_dup_groups"][i].as_py() == n_groups
