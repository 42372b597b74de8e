"""Sampling operators: deterministic hash sampling and token-budget
sampling, checked against brute-force oracles (the SQL parity check lives
in tests/test_entry.py)."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from europa_ray.pipelines.sampling import hash_sample, token_budget_sample


def _mk_files(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    langs = np.array(["en", "de", "fr", "zh"])[rng.integers(0, 4, n)]
    words = np.array(["alpha", "beta", "gamma", "delta", "eps", "zeta"])
    texts = [
        " ".join(words[rng.integers(0, len(words), int(rng.integers(1, 40)))])
        for _ in range(n)
    ]
    # planted edge rows: empty + null + one exact duplicate pair
    texts[0] = ""
    texts[1] = None
    texts[3] = texts[2]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "lang": pa.array(langs.tolist(), pa.string()),
            "content": pa.array(texts, pa.string()),
        }
    )


def _u64(text: str) -> int:
    return int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


def test_hash_sample_matches_bruteforce_and_is_deterministic(ray_session):
    import ray.data

    t = _mk_files(400)
    rates = {"en": 0.5, "de": 0.125}
    got1 = hash_sample(
        ray.data.from_arrow(t), rates=rates, default_rate=0.25
    ).to_pandas()
    got2 = hash_sample(
        ray.data.from_arrow(t), rates=rates, default_rate=0.25
    ).to_pandas()
    want = set()
    for d, lang, txt in zip(
        t["doc_id"].to_pylist(), t["lang"].to_pylist(), t["content"].to_pylist()
    ):
        if not txt:
            continue
        thr = int(rates.get(lang, 0.25) * (1 << 64))
        if _u64(txt) < thr:
            want.add((d, lang))
    assert set(zip(got1.doc_id, got1.lang)) == want
    assert set(zip(got2.doc_id, got2.lang)) == want  # rerun-identical
    # content-hash keyed: the exact-duplicate pair is in or out together
    dup_in = {2, 3} & set(got1.doc_id)
    assert dup_in in (set(), {2, 3})


def test_hash_sample_rate_extremes(ray_session):
    import ray.data

    t = _mk_files(100)
    assert hash_sample(ray.data.from_arrow(t), default_rate=0.0).count() == 0
    full = hash_sample(ray.data.from_arrow(t), default_rate=1.0).count()
    nonempty = sum(1 for x in t["content"].to_pylist() if x)
    assert full == nonempty
    with pytest.raises(ValueError):
        hash_sample(ray.data.from_arrow(t), default_rate=1.5).count()


def _budget_bruteforce(t: pa.Table, budget: int) -> set[tuple]:
    from europa_ray.functions.text import tokenize

    rows = []
    for d, lang, txt in zip(
        t["doc_id"].to_pylist(), t["lang"].to_pylist(), t["content"].to_pylist()
    ):
        if not txt:
            continue
        _, off = tokenize([txt])
        rows.append((lang, _u64(txt), d, int(off[1] - off[0])))
    want = set()
    for lang in sorted({r[0] for r in rows}):
        cum = 0
        for _, u, d, n in sorted(r for r in rows if r[0] == lang):
            cum += n
            if cum > budget:
                break
            want.add((d, lang, n))
    return want


@pytest.mark.parametrize("budget,gather_max", [(300, 1_000_000), (300, 2), (0, 4), (10**9, 4)])
def test_token_budget_matches_bruteforce(ray_session, budget, gather_max):
    """Value-exact vs the driver-side sort+cumsum oracle — including forced
    multi-level boundary refinement (gather_max=2 descends several hash
    bytes) and the keep-none / keep-all extremes."""
    import ray.data

    t = _mk_files(300)
    got = token_budget_sample(
        ray.data.from_arrow(t), budget=budget, boundary_gather_max=gather_max
    ).to_pandas()
    want = _budget_bruteforce(t, budget)
    got_set = (
        set() if got.empty else set(zip(got.doc_id, got.lang, got.n_tokens))
    )  # zero-row to_pandas drops column names
    assert got_set == want


def test_token_budget_sf001_mixed_boundary_magnitudes(ray_session):
    """Regression (round-3 driver dry run): when one language's boundary
    falls back to a region-start key ≥ 2^63 (kept==0 in its straddling
    bucket) while another's exact boundary key is < 2^63, the per-language
    lookup must stay uint64-exact — a default-dtype np.array degraded the
    mixed magnitudes to float64 and silently dropped the boundary row."""
    import duckdb
    import ray.data

    from europa_ray.sources.files import read_documents_as_files
    from tests.conftest import SF_SMALL

    got = token_budget_sample(
        read_documents_as_files(SF_SMALL), budget=2000
    ).to_pandas()
    want = duckdb.sql(
        f"""WITH m AS (SELECT doc_id, lang,
             CAST(length(regexp_extract_all(text, '\\w+|[^\\w\\s]')) AS BIGINT) AS n_tokens,
             ('0x' || substr(sha256(text), 1, 16))::UBIGINT AS u
           FROM '{SF_SMALL}/documents.parquet'
           WHERE text IS NOT NULL AND length(text) > 0)
           SELECT doc_id, lang, n_tokens FROM m
           QUALIFY sum(n_tokens) OVER (
             PARTITION BY lang ORDER BY u, doc_id ROWS UNBOUNDED PRECEDING) <= 2000"""
    ).df()
    assert set(zip(got.doc_id, got.lang, got.n_tokens)) == set(
        zip(want.doc_id, want.lang, want.n_tokens)
    )


def test_token_budget_order_invariant(ray_session):
    """Hash-ordered selection is independent of input row order/partitioning."""
    import ray.data

    t = _mk_files(200)
    a = token_budget_sample(ray.data.from_arrow(t), budget=250).to_pandas()
    perm = np.random.default_rng(3).permutation(t.num_rows)
    b = token_budget_sample(
        ray.data.from_arrow(t.take(perm)).repartition(7), budget=250
    ).to_pandas()
    key = lambda df: sorted(zip(df.doc_id, df.lang, df.n_tokens))
    assert key(a) == key(b)


def _mk_dup_heavy(n_dup: int, lang: str = "en", extra: int = 0) -> pa.Table:
    """``n_dup`` rows of IDENTICAL content (identical sha64 — the pre-dedup
    skew case) plus ``extra`` distinct rows in a second language."""
    texts = ["alpha beta gamma"] * n_dup + [
        f"unique text number {i} with some words" for i in range(extra)
    ]
    langs = [lang] * n_dup + ["de"] * extra
    return pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "lang": pa.array(langs, pa.string()),
            "content": pa.array(texts, pa.string()),
        }
    )


@pytest.mark.parametrize("budget", [50, 1, 10**9])
def test_token_budget_identical_hash_skew(ray_session, budget):
    """Regression (round-4 advice): a straddling region of identical-hash
    rows cannot be split by refinement — it used to exit at level 8, build
    the prefix lookup as int64 (OverflowError on full-64-bit prefixes
    ≥ 2^63) and gather the whole region unbounded. Now that region streams
    through a distributed id-sort with a bounded driver cumsum."""
    import ray.data

    t = _mk_dup_heavy(50)
    got = token_budget_sample(
        ray.data.from_arrow(t).repartition(5),
        budget=budget,
        boundary_gather_max=2,  # force refinement past every hash byte
    ).to_pandas()
    want = _budget_bruteforce(t, budget)
    got_set = set() if got.empty else set(zip(got.doc_id, got.lang, got.n_tokens))
    assert got_set == want


def test_token_budget_skew_plus_gatherable_lang(ray_session):
    """Identical-hash skew in one language must not break the normal
    gather path of another language refined to the same (full) prefix
    depth — the gatherable branch now compares full-u64 prefixes."""
    import ray.data

    t = _mk_dup_heavy(40, extra=30)
    budget = 60  # straddles both languages' regions
    got = token_budget_sample(
        ray.data.from_arrow(t).repartition(4),
        budget=budget,
        boundary_gather_max=2,
    ).to_pandas()
    want = _budget_bruteforce(t, budget)
    got_set = set() if got.empty else set(zip(got.doc_id, got.lang, got.n_tokens))
    assert got_set == want


# ------------------------------------------------------------- mixture_sample

def _mixture_bruteforce(t: pa.Table, weights: dict[str, float]) -> set[tuple]:
    """Reference: per-lang token totals → scale = min(total/w) → per-lang
    floor(scale*w) budgets → hash-order prefix per lang."""
    import math

    from europa_ray.functions.text import tokenize

    rows = []
    for d, lang, txt in zip(
        t["doc_id"].to_pylist(), t["lang"].to_pylist(), t["content"].to_pylist()
    ):
        if not txt or lang not in weights or weights[lang] <= 0:
            continue
        _, off = tokenize([txt])
        rows.append((lang, _u64(txt), d, int(off[1] - off[0])))
    pos = {l: w for l, w in weights.items() if w > 0}
    totals = {l: sum(r[3] for r in rows if r[0] == l) for l in pos}
    scale = min(totals[l] / w for l, w in pos.items())
    budgets = {l: int(math.floor(scale * w)) for l, w in pos.items()}
    want = set()
    for lang in pos:
        cum = 0
        for _, u, d, n in sorted(r for r in rows if r[0] == lang):
            cum += n
            if cum > budgets[lang]:
                break
            want.add((d, lang, n))
    return want


@pytest.mark.parametrize("gather_max", [1_000_000, 2])
def test_mixture_sample_matches_bruteforce(ray_session, gather_max):
    """Value-exact vs the scale/budget/prefix reference; unlisted langs
    ('zh') are dropped entirely; forced multi-level refinement agrees."""
    import ray.data

    from europa_ray.pipelines.sampling import mixture_sample

    t = _mk_files(300)
    weights = {"en": 5.0, "de": 3.0, "fr": 2.0}
    got = mixture_sample(
        ray.data.from_arrow(t), weights=weights, boundary_gather_max=gather_max
    ).to_pandas()
    want = _mixture_bruteforce(t, weights)
    got_set = set() if got.empty else set(zip(got.doc_id, got.lang, got.n_tokens))
    assert got_set == want
    assert "zh" not in (set() if got.empty else set(got.lang))


def test_mixture_sample_proportions_hit_binding_language(ray_session):
    """The binding language is kept (near-)whole and every other language's
    kept tokens are within one doc of its proportional share."""
    import ray.data

    from europa_ray.pipelines.sampling import mixture_sample

    t = _mk_files(600, seed=11)
    weights = {"en": 1.0, "de": 1.0, "fr": 1.0}
    got = mixture_sample(ray.data.from_arrow(t), weights=weights).to_pandas()
    kept = got.groupby("lang").n_tokens.sum().to_dict()
    want = _mixture_bruteforce(t, weights)
    scalebound = min(kept.values()) if kept else 0
    # equal weights → every language keeps ~the same token mass: each is
    # the longest hash-order prefix under the SAME budget
    assert set(zip(got.doc_id, got.lang, got.n_tokens)) == want
    assert max(kept.values()) - scalebound <= max(got.n_tokens)


def test_mixture_sample_scale_invariance(ray_session):
    """Only weight ratios matter: {2,1} and {0.4,0.2} select identical
    subsets."""
    import ray.data

    from europa_ray.pipelines.sampling import mixture_sample

    t = _mk_files(250, seed=3)
    a = mixture_sample(
        ray.data.from_arrow(t), weights={"en": 2.0, "de": 1.0}
    ).to_pandas()
    b = mixture_sample(
        ray.data.from_arrow(t), weights={"en": 0.4, "de": 0.2}
    ).to_pandas()
    assert set(zip(a.doc_id, a.lang)) == set(zip(b.doc_id, b.lang))


def test_mixture_sample_missing_language_is_empty(ray_session):
    """A listed language with no corpus rows makes the mixture unachievable:
    scale = 0 → only zero-token docs could remain (none here) → empty."""
    import ray.data

    from europa_ray.pipelines.sampling import mixture_sample

    t = _mk_files(100)
    got = mixture_sample(
        ray.data.from_arrow(t), weights={"en": 1.0, "xx": 1.0}
    ).to_pandas()
    assert len(got) == 0


def test_mixture_sample_validation(ray_session):
    import ray.data

    from europa_ray.pipelines.sampling import mixture_sample

    t = _mk_files(10)
    with pytest.raises(ValueError):
        mixture_sample(ray.data.from_arrow(t), weights={})
    with pytest.raises(ValueError):
        mixture_sample(ray.data.from_arrow(t), weights={"en": -1.0})
    with pytest.raises(ValueError):
        mixture_sample(ray.data.from_arrow(t), weights={"en": 0.0})
    with pytest.raises(ValueError):
        mixture_sample(
            ray.data.from_arrow(t), weights={"en": float("inf"), "de": 1.0}
        )
    with pytest.raises(ValueError):
        mixture_sample(ray.data.from_arrow(t), weights={"en": float("nan")})


# --------------------------------------------------------- temperature_sample

def _temperature_bruteforce(t: pa.Table, alpha: float) -> set[tuple]:
    """Reference: per-lang totals → weights T^alpha → mixture rule."""
    import math

    from europa_ray.functions.text import tokenize

    rows = []
    for d, lang, txt in zip(
        t["doc_id"].to_pylist(), t["lang"].to_pylist(), t["content"].to_pylist()
    ):
        if not txt:
            continue
        _, off = tokenize([txt])
        rows.append((lang, _u64(txt), d, int(off[1] - off[0])))
    totals = {}
    for lang, _, _, n in rows:
        totals[lang] = totals.get(lang, 0) + n
    pos = {l: tt for l, tt in totals.items() if tt > 0}
    if not pos:
        return set()
    w = {
        l: (math.sqrt(float(tt)) if alpha == 0.5 else float(tt) ** alpha)
        for l, tt in pos.items()
    }
    scale = min(pos[l] / w[l] for l in pos)
    budgets = {l: int(math.floor(scale * w[l])) for l in pos}
    want = set()
    for lang in pos:
        cum = 0
        for _, u, d, n in sorted(r for r in rows if r[0] == lang):
            cum += n
            if cum > budgets[lang]:
                break
            want.add((d, lang, n))
    return want


@pytest.mark.parametrize("alpha,gather_max", [(0.5, 1_000_000), (0.5, 2), (0.7, 1_000_000)])
def test_temperature_sample_matches_bruteforce(ray_session, alpha, gather_max):
    import ray.data

    from europa_ray.pipelines.sampling import temperature_sample

    t = _mk_files(300)
    got = temperature_sample(
        ray.data.from_arrow(t), alpha=alpha, boundary_gather_max=gather_max
    ).to_pandas()
    want = _temperature_bruteforce(t, alpha)
    got_set = set() if got.empty else set(zip(got.doc_id, got.lang, got.n_tokens))
    assert got_set == want


def test_temperature_sample_alpha_extremes(ray_session):
    """alpha=1 keeps every tokenized doc; alpha=0 equalizes per-lang token
    mass (each language's kept tokens within one doc of the smallest
    language's total)."""
    import ray.data

    from europa_ray.pipelines.sampling import temperature_sample

    t = _mk_files(400, seed=19)
    full = temperature_sample(ray.data.from_arrow(t), alpha=1.0).to_pandas()
    assert set(zip(full.doc_id, full.lang, full.n_tokens)) == (
        _temperature_bruteforce(t, 1.0)
    )
    nonempty = sum(1 for x in t["content"].to_pylist() if x)
    assert len(full) == nonempty

    eq = temperature_sample(ray.data.from_arrow(t), alpha=0.0).to_pandas()
    kept = eq.groupby("lang").n_tokens.sum()
    tot = full.groupby("lang").n_tokens.sum()
    floor_budget = int(tot.min())
    assert (kept <= floor_budget).all()
    assert (floor_budget - kept <= int(full.n_tokens.max())).all()


def test_temperature_sample_binding_language_whole(ray_session):
    """For alpha<1 the smallest language is binding and kept whole."""
    import ray.data

    from europa_ray.pipelines.sampling import temperature_sample

    t = _mk_files(500, seed=23)
    full = _temperature_bruteforce(t, 1.0)
    tot = {}
    for _, lang, n in full:
        tot[lang] = tot.get(lang, 0) + n
    smallest = min(tot, key=lambda l: tot[l])
    got = temperature_sample(ray.data.from_arrow(t), alpha=0.5).to_pandas()
    kept_small = got[got.lang == smallest]
    assert int(kept_small.n_tokens.sum()) == tot[smallest]


def test_temperature_sample_validation(ray_session):
    import ray.data

    from europa_ray.pipelines.sampling import temperature_sample

    t = _mk_files(10)
    with pytest.raises(ValueError):
        temperature_sample(ray.data.from_arrow(t), alpha=-0.1)
    with pytest.raises(ValueError):
        temperature_sample(ray.data.from_arrow(t), alpha=1.5)


# ---------------------------------------------------------------------------
# split_assign
# ---------------------------------------------------------------------------


def _brute_split(t: pa.Table, fracs) -> dict[int, str]:
    cum = np.cumsum([f for _, f in fracs])
    bounds = [int(min(c, 1.0) * (1 << 64)) for c in cum]
    out = {}
    for d, txt in zip(t["doc_id"].to_pylist(), t["content"].to_pylist()):
        if not txt:
            continue
        u = _u64(txt)
        for (name, _), b in zip(fracs, bounds):
            if u < b or b == bounds[-1]:
                out[d] = name
                break
    return out


@pytest.mark.parametrize("n_blocks", [1, 5])
def test_split_assign_matches_bruteforce(ray_session, n_blocks):
    import ray.data

    from europa_ray.pipelines.sampling import split_assign

    fracs = (("train", 0.6), ("val", 0.2), ("test", 0.2))
    t = _mk_files(400)
    ds = ray.data.from_arrow(t).repartition(n_blocks)
    got = split_assign(ds, fractions=fracs).to_pandas()
    want = _brute_split(t, fracs)
    assert dict(zip(got.doc_id, got.split)) == want
    # all three splits non-empty at n=400
    assert set(got.split) == {"train", "val", "test"}


def test_split_assign_duplicates_share_split(ray_session):
    """Exact duplicates (rows 2/3 of the fixture) must land in the same
    split — the leakage guard the content-hash key exists for."""
    import ray.data

    from europa_ray.pipelines.sampling import split_assign

    t = _mk_files(50)
    got = split_assign(ray.data.from_arrow(t)).to_pandas().set_index("doc_id")
    assert got.loc[2, "split"] == got.loc[3, "split"]
    # empty/null content excluded
    assert 0 not in got.index and 1 not in got.index


def test_split_assign_oracle_literals_are_engine_thresholds():
    """The ``split_assign`` DuckDB oracle embeds its two split bounds as
    integer literals; they are the thresholds ``split_assign`` computes
    for its default 90/5/5 fractions."""
    import re

    import __ray_entry__
    from europa_ray.pipelines.sampling import _rate_to_threshold

    sql = __ray_entry__.oracle_sql()["split_assign"]
    literals = [int(x) for x in re.findall(r"(\d+)::UBIGINT", sql)]
    assert literals == [16602069666338596864, 17524406870024075264]
    cum = np.cumsum([0.9, 0.05, 0.05])[:-1]
    assert literals == [int(_rate_to_threshold(float(c))) for c in cum]


def test_split_assign_validation(ray_session):
    import ray.data

    from europa_ray.pipelines.sampling import split_assign

    with pytest.raises(ValueError):
        split_assign(
            ray.data.from_arrow(_mk_files(10)),
            fractions=(("a", 0.5), ("b", 0.4)),
        )


def test_priority_sample_matches_brute_force(ray_session):
    """Integer DLT priorities vs an independent hashlib/regex truth,
    partition-invariant; zero-token and empty docs excluded."""
    import hashlib
    import re

    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.sampling import priority_sample

    TOK = re.compile(r"\w+|[^\w\s]")
    texts = [f"doc {'word ' * (i % 7)}{i}" for i in range(30)] + ["", None, "   "]

    def brute(k):
        rows = []
        for i, t in enumerate(texts):
            if not t:
                continue
            n = len(TOK.findall(t))
            if n == 0:
                continue
            u = int(hashlib.sha256(t.encode()).hexdigest()[:16], 16)
            rows.append((u // n, i, n))
        return sorted(rows)[:k]

    want = brute(8)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "content": pa.array(texts, pa.string()),
            }
        )
    ).repartition(5)
    got = priority_sample(ds, k=8)
    assert list(
        zip(got["priority"].to_pylist(), got["doc_id"].to_pylist(), got["n_tokens"].to_pylist())
    ) == want
