"""Corpus sampling operators — the subsetting passes a pre-training data
pipeline runs after cleaning/dedup: deterministic hash sampling (stratified
Bernoulli by content hash, the reproducible alternative to random sampling)
and token-budget sampling (per-language "take documents in canonical hash
order until a token budget is filled" — the data-mixture knob).

Both are hash-ordered, so results are independent of row order, partition
layout and cluster size — rerunning on a repartitioned 100-TB corpus selects
the same documents (the property that makes training-data subsets
reproducible and resumable).

Scale notes:

- :func:`hash_sample` is one stateless ``map_batches`` pass — no shuffle,
  no driver state; trivially 100-TB-safe.
- :func:`token_budget_sample` needs a per-language *prefix-sum cutoff* in
  hash order. Instead of a global sort (all-to-all shuffle) it runs the
  distributed-quantile trick: one metadata pass builds a per-(lang,
  hash-byte-bucket) token histogram (a ≤ ``n_langs × 256``-row aggregate);
  the driver walks each language's buckets to find the one straddling the
  budget; the straddling bucket is *recursively refined* one hash byte at a
  time (each refinement is another tiny filtered histogram over rows that
  match the boundary prefix — a vanishing fraction of the corpus) until the
  region is small enough to gather; the exact boundary key found there turns
  the whole selection into a broadcast per-language ``(sha, doc) ≤ bound``
  filter. Total cost: O(levels) metadata scans + one bounded gather —
  no content shuffle, no driver-side corpus materialization.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray.data

from europa_ray.util import hex_to_u64

_U64 = np.uint64


def _rate_to_threshold(rate: float) -> np.uint64:
    """Exact u64 threshold for ``P(keep) = rate``: keep iff
    ``u64(sha256[:16]) < rate * 2^64`` (computed in exact integer arithmetic
    so the DuckDB oracle can use the same literal)."""
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"sampling rate must be in [0, 1], got {rate}")
    return _U64(min(int(rate * (1 << 64)), (1 << 64) - 1))


def _sha_u64_valid(batch: pa.Table, content_col: str = "content"):
    """(keep_mask, u64-of-leading-16-hex) for non-null/non-empty content —
    empty content has a null hash and is excluded, like the reference's
    empty-file rule (``HashGenerator.cs:18-19``)."""
    from europa_ray.util import sha256_hex_arrow

    sha = sha256_hex_arrow(batch[content_col])
    keep = np.array([h is not None for h in sha], dtype=bool)
    u = hex_to_u64([h for h in sha if h is not None])
    return keep, u


def _lang_lookup(batch: pa.Table, lang_col: str, table: dict, default, dtype=None):
    """Per-row values from a per-language dict, vectorized via dictionary
    encoding (the Python loop touches only the ≤ n_langs dictionary).

    ``dtype`` must be passed for integer tables that may hold values above
    int64 range (full u64 boundary keys): without it NumPy silently falls
    back to float64 on mixed magnitudes, corrupting exact comparisons."""
    import pyarrow.compute as pc

    col = batch[lang_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = pc.dictionary_encode(col)
    vocab = enc.dictionary.to_pylist()
    per_code = np.array([table.get(v, default) for v in vocab], dtype=dtype)
    codes = enc.indices.to_numpy(zero_copy_only=False)
    return per_code[codes]


def hash_sample(
    files: ray.data.Dataset,
    *,
    rates: dict[str, float] | None = None,
    default_rate: float = 0.25,
    id_col: str = "doc_id",
    lang_col: str = "lang",
    content_col: str = "content",
    keep_cols: tuple[str, ...] | None = None,
) -> ray.data.Dataset:
    """Deterministic stratified Bernoulli sample: keep a row iff the leading
    64 bits of ``sha256(content)`` fall below the language's rate threshold.

    Content-hash keyed (not id-keyed), so exact duplicates are sampled
    together and the subset is stable across re-crawls that renumber ids.
    One stateless vectorized pass — no shuffle, no state. ``keep_cols``
    overrides the output projection (default ``(id_col, lang_col)``).
    """
    rate_map = dict(rates or {})
    thresholds = {k: _rate_to_threshold(v) for k, v in rate_map.items()}
    default_thr = _rate_to_threshold(default_rate)
    out_cols = list(keep_cols) if keep_cols else [id_col, lang_col]

    def sample(batch: pa.Table) -> pa.Table:
        keep, u = _sha_u64_valid(batch, content_col)
        out = batch.select(out_cols).filter(pa.array(keep))
        thr = _lang_lookup(out, lang_col, thresholds, default_thr, dtype=_U64)
        return out.filter(pa.array(u < thr))

    return files.map_batches(sample, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# token-budget sampling (distributed quantile over (lang, sha-order))
# ---------------------------------------------------------------------------

# per-language boundary rule: keep everything / nothing / keys ≤ (sha, doc)
_KEEP_ALL = "all"
_KEEP_NONE = "none"
_KEEP_LE = "le"


def _budget_meta(batch: pa.Table, *, id_col: str, lang_col: str,
                 content_col: str) -> pa.Table:
    """Metadata projection: (id, lang, n_tokens, sha64-as-int64-bits).
    Content never leaves this stage."""
    from europa_ray.functions.text import token_count_arrow

    keep, u = _sha_u64_valid(batch, content_col)
    mask = pa.array(keep)
    n_tokens = np.asarray(token_count_arrow(batch[content_col]), dtype=np.int64)[keep]
    return pa.table(
        {
            id_col: batch[id_col].filter(mask),
            lang_col: batch[lang_col].filter(mask),
            "n_tokens": pa.array(n_tokens),
            # int64 bit-view for Arrow/shuffle friendliness; every comparison
            # views back to uint64 first
            "sha64": pa.array(u.view(np.int64)),
        }
    )


def _prefix_histogram(meta: ray.data.Dataset, lang_col: str, level: int,
                      boundary: dict[str, int] | None) -> dict[tuple[str, int], tuple[int, int]]:
    """(lang, next-hash-byte) → (token_sum, row_count), restricted at
    ``level > 0`` to rows whose sha64 high bytes match the language's
    boundary prefix. The groupby output is ≤ n_langs × 256 rows."""
    shift = _U64(64 - 8 * (level + 1))

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        u = batch["sha64"].to_numpy().view(_U64)
        langs = batch[lang_col]
        if isinstance(langs, pa.ChunkedArray):
            langs = langs.combine_chunks()
        tok = batch["n_tokens"].to_numpy()
        if boundary is not None:
            pref = _lang_lookup(batch, lang_col, boundary, -1, dtype=np.int64)
            sel = (u >> _U64(64 - 8 * level)).astype(np.int64) == pref
            u, tok = u[sel], tok[sel]
            langs = langs.filter(pa.array(sel))
        bucket = (u >> shift).astype(np.int64) & 0xFF
        if len(u) == 0:
            return pa.table({"lb": pa.array([], pa.string()),
                             "tok_sum": pa.array([], pa.int64()),
                             "n_rows": pa.array([], pa.int64())})
        # combine inside the batch (partial aggregation before the shuffle)
        key = pc.binary_join_element_wise(
            langs.cast(pa.string()),
            pa.array(bucket).cast(pa.string()),
            ":",
        )
        t = pa.table({"lb": key, "tok": pa.array(tok),
                      "one": pa.array(np.ones(len(u), np.int64))})
        # select aggregate outputs BY NAME (pyarrow group_by column order has
        # differed across releases; positional rename would swap columns)
        g = t.group_by("lb").aggregate([("tok", "sum"), ("one", "sum")])
        return pa.table({"lb": g["lb"], "tok_sum": g["tok_sum"],
                         "n_rows": g["one_sum"]})

    agg = (
        meta.map_batches(partial, batch_format="pyarrow")
        .groupby("lb")
        .sum(["tok_sum", "n_rows"])
    )
    out: dict[tuple[str, int], tuple[int, int]] = {}
    for b in agg.iter_batches(batch_format="pyarrow", batch_size=65536):
        for lb, ts, nr in zip(
            b["lb"].to_pylist(),
            b["sum(tok_sum)"].to_pylist(),
            b["sum(n_rows)"].to_pylist(),
        ):
            lang, bucket = lb.rsplit(":", 1)
            out[(lang, int(bucket))] = (int(ts), int(nr))
    return out


def token_budget_sample(
    files: ray.data.Dataset,
    *,
    budget: int = 2000,
    id_col: str = "doc_id",
    lang_col: str = "lang",
    content_col: str = "content",
    boundary_gather_max: int = 1_000_000,
) -> ray.data.Dataset:
    """Per-language token-budget subset: order documents by
    ``(u64(sha256), id)`` within each language and keep the longest prefix
    whose cumulative token count stays ≤ ``budget`` (SQL: a windowed
    running sum with QUALIFY). See the module docstring for the
    distributed-quantile shape; ``boundary_gather_max`` bounds the final
    exact-boundary gather, forcing another refinement level when the
    straddling bucket is still too populous.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    meta = files.map_batches(
        _budget_meta,
        fn_kwargs={"id_col": id_col, "lang_col": lang_col, "content_col": content_col},
        batch_format="pyarrow",
    ).materialize()  # tiny (~40 B/row); reused by histogram + refine + filter
    return _token_budget_from_meta(
        meta, budget, id_col=id_col, lang_col=lang_col,
        boundary_gather_max=boundary_gather_max,
    )


def mixture_sample(
    files: ray.data.Dataset,
    *,
    weights: dict[str, float],
    id_col: str = "doc_id",
    lang_col: str = "lang",
    content_col: str = "content",
    boundary_gather_max: int = 1_000_000,
) -> ray.data.Dataset:
    """Target-mixture subset (the data-mixing step of a training-data
    pipeline): keep the LARGEST corpus whose per-language token totals
    match the relative ``weights`` exactly — the binding language (the one
    with the least data relative to its weight) is kept whole, every other
    listed language is downsampled to ``floor(scale * w_l)`` tokens with
    ``scale = min_l(total_l / w_l)``. Only weight RATIOS matter
    (normalization cancels out of ``floor(scale * w)``). Languages absent
    from ``weights`` (or with weight 0) are dropped entirely; a listed
    language missing from the corpus makes the mixture unachievable and
    the result empty (scale 0) rather than silently skewed.

    Document selection within a language is the deterministic
    ``(u64(sha256), id)`` prefix order of :func:`token_budget_sample`,
    so the subset is stable across re-crawls and partition layouts.
    Scale shape: one metadata pass (content never leaves it), one
    lang-cardinality aggregate for the totals, then the distributed-
    quantile boundary machinery — no shuffle of the corpus itself.
    """
    if not weights:
        raise ValueError("weights must be a non-empty {lang: weight} dict")
    if any(w < 0 or not math.isfinite(w) for w in weights.values()):
        raise ValueError("weights must be finite and >= 0")
    pos = {l: float(w) for l, w in weights.items() if w > 0}
    if not pos:
        raise ValueError("at least one weight must be > 0")

    member = {l: True for l in pos}

    def keep_listed(batch: pa.Table) -> pa.Table:
        m = _lang_lookup(batch, lang_col, member, False, dtype=bool)
        return batch.filter(pa.array(m))

    # single metadata pass: extract (id, lang, n_tokens, sha64) and drop
    # unlisted languages before the one materialize that the boundary
    # machinery re-scans
    meta = (
        files.map_batches(
            _budget_meta,
            fn_kwargs={
                "id_col": id_col, "lang_col": lang_col, "content_col": content_col,
            },
            batch_format="pyarrow",
        )
        .map_batches(keep_listed, batch_format="pyarrow")
        .materialize()
    )

    totals = {l: 0 for l in pos}
    agg = meta.groupby(lang_col).sum("n_tokens")
    for row in agg.take_all():  # lang-cardinality rows only
        totals[row[lang_col]] = int(row["sum(n_tokens)"])
    # double-precision chain mirrors the SQL oracle exactly: int64→double
    # conversion is exact below 2^53 and min/mul/floor are order-free
    scale = min(totals[l] / w for l, w in pos.items())
    budgets = {l: int(math.floor(scale * w)) for l, w in pos.items()}
    return _token_budget_from_meta(
        meta, budgets, id_col=id_col, lang_col=lang_col,
        boundary_gather_max=boundary_gather_max,
    )


def temperature_sample(
    files: ray.data.Dataset,
    *,
    alpha: float = 0.5,
    id_col: str = "doc_id",
    lang_col: str = "lang",
    content_col: str = "content",
    boundary_gather_max: int = 1_000_000,
) -> ray.data.Dataset:
    """Temperature-smoothed multilingual sampling (the ``p_l ∝ q_l^α``
    exponential smoothing of mBERT / XLM-R; Conneau & Lample, NeurIPS
    2019 §3.1): per-language weights are the corpus's OWN token totals
    raised to ``alpha``, then the largest corpus matching those ratios is
    kept via the :func:`mixture_sample` rule — ``scale = min_l(T_l /
    T_l^α) = (min_l T_l)^(1-α)`` for α<1, so the SMALLEST language is the
    binding one (kept whole) and dominant languages are downsampled
    toward it. ``alpha=1`` keeps everything; ``alpha=0`` equalizes token
    counts across languages. Languages whose token total is 0 are dropped
    (they contribute no trainable tokens and 0^α would poison the scale).

    ``alpha=0.5`` (and 0, 1) is reproducible bit-exactly against the SQL
    oracle: IEEE-754 ``sqrt`` is correctly rounded, so numpy/libm and
    DuckDB agree to the last ulp; arbitrary ``alpha`` uses ``pow``, whose
    last-ulp behavior is libm-specific (a ~1e-10 chance per language of a
    one-token budget difference — fine in practice, noted for oracles).

    Same scale shape as :func:`mixture_sample`: one metadata pass, one
    lang-cardinality aggregate, then the distributed-quantile boundary
    machinery — no shuffle of the corpus itself.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must be in [0, 1]")

    meta = files.map_batches(
        _budget_meta,
        fn_kwargs={
            "id_col": id_col, "lang_col": lang_col, "content_col": content_col,
        },
        batch_format="pyarrow",
    ).materialize()

    totals: dict[str, int] = {}
    for row in meta.groupby(lang_col).sum("n_tokens").take_all():
        totals[row[lang_col]] = int(row["sum(n_tokens)"])
    pos = {l: t for l, t in totals.items() if t > 0}
    if not pos:
        return _token_budget_from_meta(
            meta.filter(expr="n_tokens < 0"),  # provably empty, schema kept
            0, id_col=id_col, lang_col=lang_col,
            boundary_gather_max=boundary_gather_max,
        )
    # sqrt is IEEE-correctly-rounded (bit-identical to the oracle);
    # alpha 0/1 are exact; general alpha documented above
    if alpha == 0.5:
        weights = {l: math.sqrt(float(t)) for l, t in pos.items()}
    else:
        weights = {l: float(t) ** alpha for l, t in pos.items()}
    scale = min(pos[l] / w for l, w in weights.items())
    budgets = {l: int(math.floor(scale * w)) for l, w in weights.items()}

    if len(pos) != len(totals):  # drop zero-total languages' rows
        member = {l: True for l in pos}

        def keep_pos(batch: pa.Table) -> pa.Table:
            m = _lang_lookup(batch, lang_col, member, False, dtype=bool)
            return batch.filter(pa.array(m))

        meta = meta.map_batches(keep_pos, batch_format="pyarrow").materialize()

    return _token_budget_from_meta(
        meta, budgets, id_col=id_col, lang_col=lang_col,
        boundary_gather_max=boundary_gather_max,
    )


def _token_budget_from_meta(
    meta: ray.data.Dataset,
    budgets: int | dict[str, int],
    *,
    id_col: str,
    lang_col: str,
    boundary_gather_max: int,
) -> ray.data.Dataset:
    """The distributed-quantile boundary machinery over a prepared
    ``(id, lang, n_tokens, sha64)`` metadata Dataset. ``budgets`` is one
    budget for every language (int) or per-language (dict — callers must
    have already restricted ``meta`` to the dict's languages)."""

    def _bud(lang: str) -> int:
        return budgets if isinstance(budgets, int) else budgets[lang]

    # level-0 histogram over the high byte; refine the straddling bucket one
    # byte at a time until each language's boundary region is gatherable
    rules: dict[str, tuple] = {}
    remaining_base: dict[str, int] = {}  # tokens kept below the region
    boundary_prefix: dict[str, int] = {}  # matched high-byte prefix so far
    active: set[str] = set()

    hist = _prefix_histogram(meta, lang_col, 0, None)
    langs = sorted({k[0] for k in hist})
    region_rows: dict[str, int] = {}
    for lang in langs:
        cum = 0
        hit = None
        for bucket in range(256):
            ts, nr = hist.get((lang, bucket), (0, 0))
            if cum + ts > _bud(lang):
                hit = (bucket, nr)
                break
            cum += ts
        if hit is None:
            rules[lang] = (_KEEP_ALL,)
        else:
            active.add(lang)
            remaining_base[lang] = cum
            boundary_prefix[lang] = hit[0]
            region_rows[lang] = hit[1]

    level = 1
    while active and level < 8:
        # all active languages refine together (one more hash byte each) so
        # every boundary prefix has exactly `level` bytes at gather time;
        # refining an already-small region costs one more tiny metadata scan
        if all(region_rows.get(l, 0) <= boundary_gather_max for l in active):
            break
        hist = _prefix_histogram(
            meta, lang_col, level, {l: boundary_prefix[l] for l in active}
        )
        for lang in sorted(active):
            cum = remaining_base[lang]
            hit = None
            for bucket in range(256):
                ts, nr = hist.get((lang, bucket), (0, 0))
                if cum + ts > _bud(lang):
                    hit = (bucket, nr)
                    break
                cum += ts
            if hit is None:
                # the whole refined region fits: boundary is the region end
                pref = boundary_prefix[lang] + 1
                shift = 64 - 8 * level
                end = _U64(pref) << _U64(shift) if pref < (1 << (8 * level)) else None
                if end is None:
                    rules[lang] = (_KEEP_ALL,)
                else:
                    rules[lang] = (_KEEP_LE, int(end - _U64(1)), np.iinfo(np.int64).max)
                active.discard(lang)
            else:
                remaining_base[lang] = cum
                boundary_prefix[lang] = (boundary_prefix[lang] << 8) | hit[0]
                region_rows[lang] = hit[1]
        level += 1

    # exact boundary inside each remaining region: gather region rows
    # (≤ boundary_gather_max per language by construction), sort, cut.
    # Languages whose region is STILL above the gather budget after 8
    # refinement levels (identical-hash skew: the 8-byte prefix pins sha64
    # exactly, so the region cannot be split further by hash) take a
    # streaming path instead — no unbounded driver gather.
    if active:
        shift = _U64(64 - 8 * level)
        gatherable = sorted(
            l for l in active if region_rows.get(l, 0) <= boundary_gather_max
        )
        oversized = sorted(set(active) - set(gatherable))
        if gatherable:
            # boundary prefixes are unsigned and reach the full 64 bits at
            # level 8 — keep the lookup and the shifted compare in uint64
            # (an int64 lookup overflows on prefixes >= 2^63). Language
            # membership is a separate boolean mask so no sentinel value
            # can collide with a real prefix.
            prefixes = {l: boundary_prefix[l] for l in gatherable}
            member = {l: True for l in gatherable}

            def region(batch: pa.Table) -> pa.Table:
                u = batch["sha64"].to_numpy().view(_U64)
                pref = _lang_lookup(batch, lang_col, prefixes, 0, dtype=_U64)
                act = _lang_lookup(batch, lang_col, member, False, dtype=bool)
                sel = act & ((u >> shift) == pref)
                return batch.filter(pa.array(sel))

            gathered = pa.concat_tables(
                list(
                    meta.map_batches(region, batch_format="pyarrow").iter_batches(
                        batch_format="pyarrow", batch_size=65536
                    )
                )
            )
            gl = gathered[lang_col].to_pylist()
            gu = gathered["sha64"].to_numpy().view(_U64)
            gid = gathered[id_col].to_numpy()
            gtok = gathered["n_tokens"].to_numpy()
            for lang in gatherable:
                sel = np.array([x == lang for x in gl], dtype=bool)
                u, ids, tok = gu[sel], gid[sel], gtok[sel]
                order = np.lexsort((ids, u))
                cum = remaining_base[lang] + np.cumsum(tok[order])
                kept = int(np.searchsorted(cum, _bud(lang), side="right"))
                if kept == 0:
                    lo = _U64(prefixes[lang]) << shift
                    if lo == _U64(0):
                        rules[lang] = (_KEEP_NONE,)
                    else:
                        rules[lang] = (_KEEP_LE, int(lo - _U64(1)), np.iinfo(np.int64).max)
                else:
                    last = order[kept - 1]
                    rules[lang] = (_KEEP_LE, int(u[last]), int(ids[last]))
        for lang in oversized:
            # level == 8 by construction: the prefix IS the sha64 value and
            # within-region order is by id alone. Distributed sort by id,
            # then stream batches through a running cumsum until the budget
            # is hit — driver memory bounded by one batch.
            sha_val = _U64(boundary_prefix[lang])

            def one_region(batch: pa.Table, *, _lang=lang, _sha=sha_val) -> pa.Table:
                import pyarrow.compute as pc

                u = batch["sha64"].to_numpy().view(_U64)
                sel = pa.array(u == _sha)
                sel = pc.and_(sel, pc.equal(batch[lang_col], _lang))
                return batch.filter(sel)

            region_ds = meta.map_batches(
                one_region, batch_format="pyarrow"
            ).sort(id_col)
            cum = remaining_base[lang]
            boundary_id = None
            for b in region_ds.iter_batches(
                batch_format="pyarrow", batch_size=65536
            ):
                if b.num_rows == 0:
                    continue
                c = cum + np.cumsum(b["n_tokens"].to_numpy())
                ids = b[id_col].to_numpy()
                kept = int(np.searchsorted(c, _bud(lang), side="right"))
                if kept < len(ids):
                    if kept > 0:
                        boundary_id = int(ids[kept - 1])
                    break
                cum = int(c[-1])
                boundary_id = int(ids[-1])
            if boundary_id is None:
                # not even the first region row fits: keep everything below
                if sha_val == _U64(0):
                    rules[lang] = (_KEEP_NONE,)
                else:
                    rules[lang] = (_KEEP_LE, int(sha_val - _U64(1)),
                                   np.iinfo(np.int64).max)
            else:
                rules[lang] = (_KEEP_LE, int(sha_val), boundary_id)

    # broadcast filter: keep iff (sha, id) ≤ the language's boundary
    modes = {l: r[0] for l, r in rules.items()}
    sha_b = {l: r[1] for l, r in rules.items() if r[0] == _KEEP_LE}
    id_b = {l: r[2] for l, r in rules.items() if r[0] == _KEEP_LE}

    def final(batch: pa.Table) -> pa.Table:
        u = batch["sha64"].to_numpy().view(_U64)
        ids = batch[id_col].to_numpy()
        mode = _lang_lookup(batch, lang_col, modes, _KEEP_NONE)
        keep = mode == _KEEP_ALL
        le = mode == _KEEP_LE
        if le.any():
            # boundary sha values are full u64s (possibly ≥ 2^63): build the
            # lookup as uint64 directly — a default-dtype np.array would
            # degrade mixed magnitudes to float64 and break exact equality
            sb = _lang_lookup(batch, lang_col, sha_b, 0, dtype=_U64)
            ib = _lang_lookup(batch, lang_col, id_b, -1, dtype=np.int64)
            keep = keep | (le & ((u < sb) | ((u == sb) & (ids <= ib))))
        return batch.filter(pa.array(keep)).select([id_col, lang_col, "n_tokens"])

    return meta.map_batches(final, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# deterministic train/val/test split assignment
# ---------------------------------------------------------------------------


def split_assign(
    files: ray.data.Dataset,
    *,
    fractions: tuple[tuple[str, float], ...] = (
        ("train", 0.9),
        ("val", 0.05),
        ("test", 0.05),
    ),
    id_col: str = "doc_id",
    lang_col: str = "lang",
    content_col: str = "content",
) -> ray.data.Dataset:
    """Deterministic train/val/test split: assign each document to the split
    whose cumulative-fraction interval contains ``u64(sha256(content)[:16])``
    (the :func:`hash_sample` key). Content-hash keyed, NOT id-keyed, so
    exact duplicates always land in the SAME split — the standard guard
    against train/test leakage through duplicated documents (run this
    before or after dedup; either way a surviving copy can't straddle the
    split boundary). Empty/null content is excluded (house predicate).

    Partition- and order-independent, one stateless vectorized pass — no
    shuffle, no state, resumable for free. Thresholds are exact u64
    integers (``_rate_to_threshold``) so the DuckDB oracle can embed the
    same literals. Output: ``(id, lang, split)``.
    """
    names = [n for n, _ in fractions]
    fracs = [f for _, f in fractions]
    if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must be >= 0 and sum to 1, got {fracs}")
    # cumulative thresholds; the last bucket catches everything remaining
    # (no rounding gap at 2^64 - 1)
    cum = np.cumsum(fracs)[:-1]
    bounds = np.array([_rate_to_threshold(float(c)) for c in cum], dtype=_U64)
    names_arr = np.asarray(names, dtype=object)

    def assign(batch: pa.Table) -> pa.Table:
        keep, u = _sha_u64_valid(batch, content_col)
        out = batch.select([id_col, lang_col]).filter(pa.array(keep))
        idx = np.searchsorted(bounds, u, side="right")
        return out.append_column("split", pa.array(names_arr[idx], pa.string()))

    return files.map_batches(assign, batch_format="pyarrow")


PRIORITY_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("n_tokens", pa.int64()),
        pa.field("priority", pa.uint64()),
    ]
)


def _priority_partial(
    batch: pa.Table, *, k: int, id_col: str, content_col: str
) -> pa.Table:
    """Per-batch bottom-k by priority = hash // weight (ties → min id);
    zero-token docs are excluded (no weight to divide by)."""
    import pyarrow.compute as pc

    from europa_ray.functions.text import token_count_arrow
    from europa_ray.util import sha256_hex_arrow

    col = batch[content_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    valid = pc.and_(pc.is_valid(col), pc.greater(pc.utf8_length(col), 0))
    batch = batch.filter(valid)
    if batch.num_rows == 0:
        return PRIORITY_SCHEMA.empty_table()
    col = col.filter(valid)
    tok = token_count_arrow(col).astype(np.int64)
    keep = tok > 0
    if not keep.any():
        return PRIORITY_SCHEMA.empty_table()
    ids = batch[id_col].to_numpy()[keep]
    tok = tok[keep]
    sha = np.asarray(sha256_hex_arrow(col), dtype="U64")[keep]
    u = np.array([int(h[:16], 16) for h in sha], dtype=_U64)
    prio = u // tok.astype(_U64)
    order = np.lexsort((ids, prio))[:k]
    return pa.table(
        {
            "doc_id": pa.array(ids[order], pa.int64()),
            "n_tokens": pa.array(tok[order], pa.int64()),
            "priority": pa.array(prio[order], pa.uint64()),
        }
    )


def priority_sample(
    files: ray.data.Dataset,
    *,
    k: int = 100,
    id_col: str = "doc_id",
    content_col: str = "content",
) -> pa.Table:
    """Weight-proportional sample without replacement via PRIORITY
    SAMPLING (Duffield–Lund–Thorup, JACM 2007): keep the ``k`` documents
    with the smallest ``u64(sha256(content)[:16]) // n_tokens`` — the
    integer-floor form of u/w priorities, so longer documents are
    proportionally more likely to be kept and the whole draw is a pure
    function of the input (deterministic, value-checked exactly; ties →
    min id).

    Scale shape: the per-batch bottom-k combiner caps every block's
    contribution at k rows, and the driver folds block samples with an
    O(k) merge — no shuffle at any corpus size (the KMV fold shape).
    Output: (id, n_tokens, priority), (priority, id)-sorted."""
    parts = files.map_batches(
        _priority_partial,
        fn_kwargs={"k": k, "id_col": id_col, "content_col": content_col},
        batch_format="pyarrow",
        batch_size=None,
    )
    ids = np.empty(0, np.int64)
    toks = np.empty(0, np.int64)
    prios = np.empty(0, _U64)
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=1 << 16):
        if b.num_rows == 0:
            continue
        ids = np.concatenate([ids, b["doc_id"].to_numpy()])
        toks = np.concatenate([toks, b["n_tokens"].to_numpy()])
        prios = np.concatenate([prios, b["priority"].to_numpy().view(_U64)])
        order = np.lexsort((ids, prios))[:k]
        ids, toks, prios = ids[order], toks[order], prios[order]
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(toks, pa.int64()),
            "priority": pa.array(prios, pa.uint64()),
        }
    )
