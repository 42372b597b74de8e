"""Exact set-similarity self-join candidates via prefix filtering
(AllPairs / PPJoin).

Candidate generation for TRUE Jaccard >= tau over per-document k-gram
shingle sets with a **completeness guarantee**: every qualifying pair is
produced (no LSH recall gap), so the exact n-gram Jaccard operator built on
top is deterministically equal to an all-pairs SQL oracle.

Published algorithms (public work):
- Bayardo, Ma, Srikant, "Scaling Up All Pairs Similarity Search", WWW 2007
  (AllPairs prefix filter).
- Xiao, Wang, Lin, Yu, "Efficient Similarity Joins for Near Duplicate
  Detection", WWW 2008 (PPJoin; we use its prefix + length filters, not the
  positional filter).

Prefix-filter lemma: order every shingle universe by one fixed total order
(ascending 64-bit shingle hash here). If ``J(A, B) >= tau`` then the first
``|A| - ceil(tau * |A|) + 1`` elements of A and the first
``|B| - ceil(tau * |B|) + 1`` elements of B share at least one element.
Proof sketch: ``J >= tau`` forces ``|A ∩ B| >= tau * max(|A|, |B|)``; if the
two prefixes were disjoint, whichever prefix ends at the globally smaller
boundary element would contain only elements outside the other SET's prefix
— counting elements below that boundary in both sets shows more than
``(1 - tau)`` of one set lies outside the intersection, contradiction.
(Golden-tested against brute force in ``tests/test_ppjoin.py``.)

Length filter: ``J(A, B) <= min/max`` of the two set sizes, so pairs with
``min_size < tau * max_size`` are dropped before verification.

Scale shape: the prefix explode is (gram, node, size) = 24 B/row,
~``(1 - tau)``·|shingles| rows — a data-proportional shuffle (word-count
class), the price of exactness vs the MinHash band explode's 16 B × bands
per DOC. Dispatch mirrors ``stages/lsh.py:candidate_pairs``: below the row
budget the explode is gathered once and grouped/paired in vectorized driver
NumPy; above it, duplicated gram keys are detected distributed, the explode
is semi-joined to them and paired inside ``groupby(gram)`` groups
(equivalence-tested by forcing the budget to 0).

Token order (``cfg.ppjoin_order``): the prefix lemma holds under ANY fixed
total order, so the order is a pure performance knob. ``'df'`` is the
classic **df-ascending** ordering (rarest grams first, Bayardo WWW'07 §3.1
/ Xiao WWW'08): one budgeted gram-frequency pass builds a broadcast table
of the hot grams (df ≥ ``df_min``, capped at the hottest ``df_table_max``);
prefixes then sort those LAST, so a gram shared by k documents stops
appearing in k prefixes and the ``groupby(gram)`` buckets the distributed
path shuffles shrink from clique-sized to ~df_min. Because correctness is
order-independent, the df pass may stop at ``df_gather_max`` rows (a
corpus-prefix sample) — a stale or partial table only costs candidates,
never completeness. ``'hash'`` (default) skips the extra pass (ascending
64-bit shingle hash — random gram popularity). Measured on the bench
corpus (round 4): identical pair output; bucket quadratic work
``Σ C(n,2)`` 3.73e8 → 3.19e8 under 'df', but the dominant 3000-doc
FULL-clique bucket is order-invariant (identical gram sets reorder
identically — no order can split it; the distinct-group/union-merge
machinery below is what handles cliques), and the extra corpus pass cost
more than the ~15 % bucket saving — hence the 'hash' default. 'df' wins
when hot grams are PARTIALLY shared (boilerplate header + distinct
bodies): there it collapses the header buckets from corpus-sized to
~df_min (demonstrated in tests/test_ppjoin.py).

Reference parity: the reference verifies near-duplicates by similarity
search over signatures (`/root/reference/Api/Client/QdrantRepository.cs`
range search); this operator strengthens the engine's n-gram Jaccard pass
from "LSH candidates re-verified" to exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from europa_ray.config import DEFAULT_CONFIG, EngineConfig
from europa_ray.stages.lsh import dedupe_pair_arrays

PAIR_AB_SCHEMA = pa.schema([pa.field("a", pa.int64()), pa.field("b", pa.int64())])


def prefix_lengths(sizes: np.ndarray, tau: float) -> np.ndarray:
    """Vectorized prefix length ``n - ceil(tau * n) + 1`` (clipped to
    [1, n]). The epsilon guards float error in ``tau * n`` downward only:
    a too-LARGE prefix is always sound (more candidates), a too-small one
    is not."""
    p = sizes - np.ceil(tau * sizes - 1e-9).astype(np.int64) + 1
    return np.clip(p, 1, np.maximum(sizes, 1))


_DF_TABLE_CACHE: list = [None, None]  # [ref_hex, (hot_grams, hot_keys)]


def _resolve_df_table(df_table):
    """fn_kwargs carry the df table as a ``ray.ObjectRef`` (broadcast once
    via ``ray.put``, zero-copy from the local object store); a 1-entry
    per-process cache skips the per-batch ``ray.get`` round trip."""
    if df_table is None or isinstance(df_table, tuple):
        return df_table
    import ray

    key = df_table.hex()
    if _DF_TABLE_CACHE[0] != key:
        _DF_TABLE_CACHE[0] = key
        _DF_TABLE_CACHE[1] = ray.get(df_table)
    return _DF_TABLE_CACHE[1]


def _order_keys(ushu: np.ndarray, df_table) -> np.ndarray:
    """uint64 sort key realizing the df-ascending total order: grams absent
    from the hot table keep (hash >> 1) ∈ [0, 2^63) — rare, hash-ordered,
    FIRST; hot grams get 2^63 + df_rank — demoted to the back, rarest hot
    gram first. Ties (the >>1 bit loss) are broken by the gram value in the
    caller's lexsort, keeping the order total and globally consistent."""
    hot_g, hot_k = df_table
    key = ushu >> np.uint64(1)
    if hot_g.shape[0] and ushu.shape[0]:
        pos = np.searchsorted(hot_g, ushu)
        posc = np.minimum(pos, hot_g.shape[0] - 1)
        hit = hot_g[posc] == ushu
        if hit.any():
            key[hit] = hot_k[posc[hit]]
    return key


def explode_prefix(
    batch: pa.Table,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    content_col: str = "content",
    df_table=None,
) -> pa.Table:
    """(gram, node, size) prefix explode of one batch.

    node = int64 view of the content sha256's leading 64 bits (the engine's
    node id everywhere); gram = int64 view of a shingle hash; size = number
    of unique shingles of the doc. Shingle sets come ascending-hash sorted
    (``unique_per_row``); with ``df_table`` set each row segment is
    re-sorted by the df-ascending key first, so the prefix is the first
    ``p`` elements of the segment under the configured total order. The
    emitted gram IDENTITY is always the raw shingle hash — the order only
    decides which grams make the prefix."""
    from europa_ray.functions.text import shingles, tokenize_arrow, unique_per_row
    from europa_ray.stages.hash_stage import add_sha256
    from europa_ray.stages.pairverify import _ranges_gather
    from europa_ray.util import hex_to_u64_arrow

    empty = pa.table(
        {
            "gram": pa.array([], pa.int64()),
            "node": pa.array([], pa.int64()),
            "size": pa.array([], pa.int64()),
        }
    )
    if batch.num_rows == 0:
        return empty
    hashed = add_sha256(batch, drop_content=False, keep_cols=(content_col,))
    col = hashed[content_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    th, off = tokenize_arrow(col)
    sh, soff = shingles(th, off, cfg.shingle_k)
    ush, uoff = unique_per_row(sh, soff)
    sizes = np.diff(uoff)
    node = hex_to_u64_arrow(hashed["sha256"]).view(np.int64)
    nz = sizes > 0
    if not nz.any():
        return empty
    df_table = _resolve_df_table(df_table)
    if df_table is not None and ush.shape[0]:
        ushu = ush.view(np.uint64)
        key = _order_keys(ushu, df_table)
        row_of = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
        order = np.lexsort((ushu, key, row_of))
        ush = ush[order]
    p = np.where(nz, prefix_lengths(sizes, cfg.jaccard_threshold), 0)
    idx = _ranges_gather(uoff[:-1], p)
    return pa.table(
        {
            "gram": pa.array(ush[idx].view(np.int64)),
            "node": pa.array(np.repeat(node, p)),
            "size": pa.array(np.repeat(sizes, p)),
        }
    )


def explode_unique_grams(
    batch: pa.Table,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    content_col: str = "content",
) -> pa.Table:
    """(gram,) per-doc-unique shingle explode — feeds the df pass only (no
    sha256, no sizes: document frequency is all it needs)."""
    from europa_ray.functions.text import shingles, tokenize_arrow, unique_per_row

    if batch.num_rows == 0:
        return pa.table({"gram": pa.array([], pa.int64())})
    col = batch[content_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    th, off = tokenize_arrow(col)
    sh, soff = shingles(th, off, cfg.shingle_k)
    ush, _ = unique_per_row(sh, soff)
    return pa.table({"gram": pa.array(ush.view(np.int64))})


def gram_df_table(
    ds,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    content_col: str = "content",
    df_min: int = 4,
    df_table_max: int = 4_000_000,
    df_gather_max: int = 200_000_000,
) -> tuple[np.ndarray, np.ndarray] | None:
    """One budgeted gram-frequency pass → the df-ascending hot-gram table:
    ``(hot_grams sorted-by-gram, hot_keys)`` uint64 arrays, or None when no
    gram reaches ``df_min`` (ordering then stays pure hash order).

    Only grams with df ≥ ``df_min`` need demoting — a df < df_min gram's
    bucket is at most df_min−1 rows, already cheap — so the broadcast table
    is hot-grams-only (≤ ``df_table_max`` entries ≈ 64 MB, hottest kept on
    overflow). The gather stops at ``df_gather_max`` explode rows: a
    corpus-prefix SAMPLE, sound because completeness holds under any fixed
    total order (module docstring)."""
    kn = ds.map_batches(
        explode_unique_grams,
        fn_kwargs={"cfg": cfg, "content_col": content_col},
        batch_size=cfg.batch_size,
        batch_format="pyarrow",
    )
    parts: list[np.ndarray] = []
    total = 0
    for bt in kn.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        parts.append(bt["gram"].to_numpy())
        total += parts[-1].shape[0]
        if total > df_gather_max:
            break
    if not parts:
        return None
    g = np.concatenate(parts).view(np.uint64)
    uniq, cnt = np.unique(g, return_counts=True)
    hot = cnt >= max(df_min, 2)
    uniq, cnt = uniq[hot], cnt[hot]
    if uniq.shape[0] == 0:
        return None
    if uniq.shape[0] > df_table_max:
        top = np.argpartition(-cnt, df_table_max)[:df_table_max]
        uniq, cnt = uniq[top], cnt[top]
    order = np.lexsort((uniq, cnt))  # df ascending, gram value tiebreak
    ranked = uniq[order]
    keys = (np.uint64(1) << np.uint64(63)) + np.arange(
        ranked.shape[0], dtype=np.uint64
    )
    by_gram = np.argsort(ranked)  # searchsorted layout
    return ranked[by_gram], keys[by_gram]


def _length_filter(
    na: np.ndarray, nb: np.ndarray, sa: np.ndarray, sb: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Keep canonical (min, max) node pairs whose set sizes can still reach
    ``tau`` (PPJoin length filter, epsilon-guarded like ``prefix_lengths``)."""
    keep = np.minimum(sa, sb) >= tau * np.maximum(sa, sb) - 1e-9
    na, nb, = na[keep], nb[keep]
    sa, sb = sa[keep], sb[keep]
    return np.minimum(na, nb), np.maximum(na, nb)


_SIDES_CACHE: list = [None, None]  # [ref_hex, (left_nodes, right_nodes)]


def _resolve_sides(sides):
    """``cross_sides`` as plain tuple or broadcast ``ray.ObjectRef`` (same
    1-entry per-process cache trick as ``_resolve_df_table``)."""
    if sides is None or isinstance(sides, tuple):
        return sides
    import ray

    key = sides.hex()
    if _SIDES_CACHE[0] != key:
        _SIDES_CACHE[0] = key
        _SIDES_CACHE[1] = ray.get(sides)
    return _SIDES_CACHE[1]


def _cross_pair_keep(
    a: np.ndarray, b: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Keep pairs with one side ∈ left corpus and the other ∈ right corpus
    (a node present in BOTH corpora satisfies either role)."""
    from europa_ray.util import sorted_member

    al, bl = sorted_member(left, a), sorted_member(left, b)
    ar, br = sorted_member(right, a), sorted_member(right, b)
    return (al & br) | (bl & ar)


def _pair_prefix_group(group: pa.Table, *, tau: float, sides=None) -> pa.Table:
    """All qualifying-size pairs within one colliding gram bucket —
    UNCAPPED (exactness; see module docstring on hash-order bucket sizes).
    With ``sides`` (cross-corpus mode): one-sided buckets are skipped
    entirely and only cross-oriented pairs are emitted — within-corpus
    near-dup cliques never generate candidates."""
    from europa_ray.util import sorted_member

    nd = group["node"].to_numpy()
    sz = group["size"].to_numpy()
    nd, first = np.unique(nd, return_index=True)
    sz = sz[first]
    if sides is not None:
        left, right = _resolve_sides(sides)
        isl = sorted_member(left, nd)
        isr = sorted_member(right, nd)
        if not (isl.any() and isr.any()):
            return PAIR_AB_SCHEMA.empty_table()
    n = nd.shape[0]
    if n < 2:
        return PAIR_AB_SCHEMA.empty_table()
    iu, ju = np.triu_indices(n, k=1)
    a, b = _length_filter(nd[iu], nd[ju], sz[iu], sz[ju], tau)
    if sides is not None:
        keep = _cross_pair_keep(a, b, left, right)
        a, b = a[keep], b[keep]
    return pa.table({"a": pa.array(a), "b": pa.array(b)})


def _grouped_all_pairs(
    gid: np.ndarray, nd: np.ndarray, sz: np.ndarray, tau: float,
    *, large_group: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized all-pairs within every group of a (sorted-by-gid, deduped)
    stream: groups are batched by SIZE so each distinct group size is one
    ``triu_indices`` broadcast — no per-group Python loop.

    Groups of ≥ ``large_group`` nodes (boilerplate cliques) are the
    quadratic regime: k docs sharing a header put ~the same grams in every
    prefix, so many near-identical k-node groups each regenerate ~k²/2
    mostly-duplicate pairs. Large groups overlapping ≥ 50 % are merged
    (union-find) and their node UNION paired ONCE — a candidate SUPERSET
    (any extra pair is discarded by exact verification; completeness is the
    invariant, and the union covers every member group), generated 1×
    instead of once per hot gram."""
    counts = np.bincount(gid)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    large_ids = np.nonzero(counts >= max(large_group, 2))[0]
    for m in np.unique(counts):
        if m < 2 or m >= max(large_group, 2):
            continue
        s = starts[counts == m]  # (g,) start offsets of all size-m groups
        iu, ju = np.triu_indices(m, k=1)  # (p,)
        ra = (s[:, None] + iu[None, :]).ravel()
        rb = (s[:, None] + ju[None, :]).ravel()
        a, b = _length_filter(nd[ra], nd[rb], sz[ra], sz[rb], tau)
        out_a.append(a)
        out_b.append(b)
    if large_ids.shape[0] > 64:
        # degenerate corpus (hundreds of distinct large groups): the O(L²)
        # overlap scan would dominate — pair each group directly instead
        for i in large_ids:
            seg_n = nd[starts[i] : starts[i] + counts[i]]
            seg_s = sz[starts[i] : starts[i] + counts[i]]
            iu, ju = np.triu_indices(seg_n.shape[0], k=1)
            a, b = _length_filter(seg_n[iu], seg_n[ju], seg_s[iu], seg_s[ju], tau)
            out_a.append(a)
            out_b.append(b)
        large_ids = np.empty(0, np.int64)
    if large_ids.shape[0]:
        segs = [  # (sorted nodes, sizes) per large group — rows are
            # lexsorted by (gram, node), so each segment is node-sorted
            (
                nd[starts[i] : starts[i] + counts[i]],
                sz[starts[i] : starts[i] + counts[i]],
            )
            for i in large_ids
        ]
        parent = list(range(len(segs)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                ri, rj = find(i), find(j)
                if ri == rj:
                    continue
                inter = np.intersect1d(
                    segs[i][0], segs[j][0], assume_unique=True
                ).shape[0]
                if inter * 2 >= min(segs[i][0].shape[0], segs[j][0].shape[0]):
                    parent[rj] = ri
        merged: dict[int, list[int]] = {}
        for i in range(len(segs)):
            merged.setdefault(find(i), []).append(i)
        for members in merged.values():
            un = np.concatenate([segs[i][0] for i in members])
            us = np.concatenate([segs[i][1] for i in members])
            uu, first = np.unique(un, return_index=True)
            usz = us[first]
            iu, ju = np.triu_indices(uu.shape[0], k=1)
            a, b = _length_filter(uu[iu], uu[ju], usz[iu], usz[ju], tau)
            out_a.append(a)
            out_b.append(b)
    if not out_a:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_a), np.concatenate(out_b)


_SET_HASH_SEED2 = np.uint64(0xA5A5A5A5DEADBEEF)


def _set_hash_pair(nd_u64: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """Two INDEPENDENT order-free 64-bit set hashes per group (sum of
    splitmix64 over two seeded streams, size folded in) — a combined
    128-bit identity, so two DIFFERENT node sets colliding on both halves
    is ~n²/2^128: negligible at any corpus size, unlike a single 64-bit
    hash whose birthday collision becomes material around 10⁹ distinct
    prefix groups (the distributed path's operating regime) and would
    silently drop a gram bucket from the COMPLETE candidate set."""
    from europa_ray.util import splitmix64

    with np.errstate(over="ignore"):
        h1 = splitmix64(nd_u64)
        h2 = splitmix64(nd_u64 ^ _SET_HASH_SEED2)
        if nd_u64.shape[0]:
            s1 = np.add.reduceat(h1, starts)
            s2 = np.add.reduceat(h2, starts)
        else:
            s1 = s2 = np.empty(0, np.uint64)
        cu = counts.astype(np.uint64)
        sig1 = splitmix64(s1 ^ splitmix64(cu))
        sig2 = splitmix64(s2 ^ splitmix64(cu ^ _SET_HASH_SEED2))
    return sig1, sig2


def _distinct_group_rows(gid: np.ndarray, nd: np.ndarray) -> np.ndarray:
    """Boolean row mask keeping ONE representative group per distinct node
    SET. Boilerplate cliques make many prefix grams share the identical
    member set (k docs sharing a header put the same ~(1−τ)·|header| grams
    in every prefix); pairing each such group repeats the same k²/2 pairs
    per gram, only for ``dedupe_pair_arrays`` to discard the copies — on a
    3 000-doc clique that is ~85× the useful work (hundreds of millions of
    rows).
    Two groups are equal iff their sorted node arrays match; a 128-bit set
    hash (``_set_hash_pair``) identifies them without materializing
    per-group tuples."""
    counts = np.bincount(gid)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    sig1, sig2 = _set_hash_pair(nd.view(np.uint64), starts, counts)
    order = np.lexsort((sig2, sig1))
    s1o, s2o = sig1[order], sig2[order]
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = (s1o[1:] != s1o[:-1]) | (s2o[1:] != s2o[:-1])
    keep_group = np.zeros(counts.shape[0], dtype=bool)
    keep_group[order[first]] = True
    return keep_group[gid]


def prefix_candidate_pairs(
    ds,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    content_col: str = "content",
    num_partitions: int | None = None,
    driver_max_explode_rows: int = 100_000_000,
    large_group: int = 512,
    cross_sides=None,
):
    """Filtered corpus Dataset → COMPLETE candidate (a, b) pair Dataset for
    TRUE-Jaccard >= ``cfg.jaccard_threshold`` (prefix + length filters; no
    estimate column — candidates carry no score until exact verification).

    Driver path (explode <= ``driver_max_explode_rows`` ≈ 2.4 GB): one
    gather, vectorized group/pair/dedupe. Fallback: distributed duplicated-
    gram detection + ``groupby(gram)`` pairing + distinct
    (forced-budget-0 equivalence-tested).

    ``cross_sides`` (cross-corpus join mode): a ``(left_nodes, right_nodes)``
    tuple of SORTED distinct int64 node arrays — or a ``ray.ObjectRef`` to
    one (broadcast once) — switches the self-join to a CROSS join: only
    pairs with one side in each corpus are produced, and one-sided gram
    groups are pruned BEFORE pairing, so within-corpus near-dup cliques
    (e.g. a self-similar reference corpus, or the new corpus's own dups in
    decontamination runs where ref ≪ new) never pay the quadratic pairing
    or the pair shuffle at all. Completeness for cross pairs is invariant:
    a qualifying cross pair shares a prefix gram (prefix-filter lemma), and
    that gram's group contains members of both corpora, hence survives the
    prune."""
    import ray.data

    from europa_ray.util import default_num_partitions

    if num_partitions is None:
        num_partitions = default_num_partitions()
    tau = cfg.jaccard_threshold
    df_ref = None
    if cfg.ppjoin_order == "df":
        import ray

        df_table = gram_df_table(ds, cfg, content_col=content_col)
        if df_table is not None:
            df_ref = ray.put(df_table)  # broadcast ONCE, read per worker
    kn = ds.map_batches(
        explode_prefix,
        fn_kwargs={"cfg": cfg, "content_col": content_col, "df_table": df_ref},
        batch_size=cfg.batch_size,
        batch_format="pyarrow",
    )

    g_parts: list[np.ndarray] = []
    n_parts: list[np.ndarray] = []
    s_parts: list[np.ndarray] = []
    total = 0
    over = False
    for bt in kn.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        total += bt.num_rows
        if total > driver_max_explode_rows:
            over = True
            break
        g_parts.append(bt["gram"].to_numpy())
        n_parts.append(bt["node"].to_numpy())
        s_parts.append(bt["size"].to_numpy())
    if over:
        return _prefix_pairs_distributed(
            kn, cfg, num_partitions, sides_ref=cross_sides
        )
    if not g_parts:
        return ray.data.from_arrow(PAIR_AB_SCHEMA.empty_table())
    g = np.concatenate(g_parts)
    nd = np.concatenate(n_parts)
    sz = np.concatenate(s_parts)

    order = np.lexsort((nd, g))
    g, nd, sz = g[order], nd[order], sz[order]
    keep = np.ones(g.shape[0], dtype=bool)  # drop (gram, node) dups (exact-dup contents)
    keep[1:] = (g[1:] != g[:-1]) | (nd[1:] != nd[:-1])
    g, nd, sz = g[keep], nd[keep], sz[keep]

    newg = np.ones(g.shape[0], dtype=bool)
    newg[1:] = g[1:] != g[:-1]
    gid = np.cumsum(newg) - 1
    dmask = _distinct_group_rows(gid, nd)
    g, nd, sz = g[dmask], nd[dmask], sz[dmask]
    newg = np.ones(g.shape[0], dtype=bool)
    newg[1:] = g[1:] != g[:-1]
    gid = np.cumsum(newg) - 1
    sides = _resolve_sides(cross_sides)
    if sides is not None:
        # cross mode: drop one-sided gram groups BEFORE pairing (their
        # pairs can never be cross-oriented — membership is a node-global
        # property), then keep cross-oriented pairs only
        from europa_ray.util import sorted_member

        left, right = sides
        isl = sorted_member(left, nd)
        isr = sorted_member(right, nd)
        counts = np.bincount(gid)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        mixed = np.logical_or.reduceat(isl, starts) & np.logical_or.reduceat(
            isr, starts
        )
        rowkeep = mixed[gid]
        g, nd, sz = g[rowkeep], nd[rowkeep], sz[rowkeep]
        if g.shape[0] == 0:
            return ray.data.from_arrow(PAIR_AB_SCHEMA.empty_table())
        newg = np.ones(g.shape[0], dtype=bool)
        newg[1:] = g[1:] != g[:-1]
        gid = np.cumsum(newg) - 1
    a, b = _grouped_all_pairs(gid, nd, sz, tau, large_group=large_group)
    if sides is not None and a.shape[0]:
        keep = _cross_pair_keep(a, b, sides[0], sides[1])
        a, b = a[keep], b[keep]
    if a.shape[0] == 0:
        return ray.data.from_arrow(PAIR_AB_SCHEMA.empty_table())
    a, b = dedupe_pair_arrays(a, b)
    return ray.data.from_arrow(pa.table({"a": pa.array(a), "b": pa.array(b)}))


def _group_set_hash(group: pa.Table) -> pa.Table:
    """(gram, 128-bit hash of the group's distinct node SET as two int64
    columns) — one row per gram group. Same ``_set_hash_pair`` construction
    as ``_distinct_group_rows``, computed over the np.unique'd nodes to
    match ``_pair_prefix_group``'s within-group dedup; 128 bits because a
    64-bit birthday collision at ~10⁹ distinct groups would silently drop
    a gram bucket from the COMPLETE candidate set."""
    nd = np.unique(group["node"].to_numpy())
    sig1, sig2 = _set_hash_pair(
        nd.view(np.uint64),
        np.zeros(1, np.int64),
        np.array([nd.shape[0]], np.int64),
    )
    return pa.table(
        {
            "gram": group["gram"][:1],
            "sethash1": pa.array(sig1.view(np.int64)),
            "sethash2": pa.array(sig2.view(np.int64)),
        }
    )


def _prefix_pairs_distributed(
    kn, cfg: EngineConfig, num_partitions: int, sides_ref=None
):
    """Fully distributed shape: duplicated gram keys (driver count below its
    own budget, Ray count-aggregate above) → broadcast/distributed semi-join
    → distinct-group dedup (one representative gram per distinct node set —
    the driver path's boilerplate-clique guard, distributed: a k-doc clique
    sharing g prefix grams would otherwise pair the same k²/2 nodes g times)
    → ``groupby(gram)`` pairing → distinct (a, b). ``sides_ref`` (cross
    mode, a broadcast ObjectRef or tuple of sorted node arrays) is applied
    INSIDE the per-gram pairing: one-sided buckets emit nothing."""
    import ray.data

    from europa_ray.stages.lsh import duplicated_keys, filter_by_key_array, semi_join_keys

    tau = cfg.jaccard_threshold
    dup = duplicated_keys(kn.select_columns(["gram"]), "gram")
    if dup is not None:
        if dup.shape[0] == 0:
            return ray.data.from_arrow(PAIR_AB_SCHEMA.empty_table())
        hot = filter_by_key_array(kn, dup, "gram")
    else:
        collisions = (
            kn.select_columns(["gram"])
            .groupby("gram")
            .count()
            .rename_columns({"count()": "gram_n"})
            .filter(expr="gram_n > 1")
            .materialize()  # Ray 2.49 join quirk: materialize small sides
        )
        if collisions.count() == 0:
            return ray.data.from_arrow(PAIR_AB_SCHEMA.empty_table())
        hot = semi_join_keys(kn, collisions, "gram", num_partitions=num_partitions)
    hot = hot.materialize()  # consumed twice: set-hash pass + pairing
    # one representative gram per distinct node set: pairs from a dropped
    # group are exactly the kept representative's pairs (same node set ⇒
    # same pair set), so completeness is invariant — metadata-only shuffles
    set_hashes = hot.groupby("gram").map_groups(
        _group_set_hash, batch_format="pyarrow"
    )
    reps = set_hashes.groupby(["sethash1", "sethash2"]).min("gram")
    rep_grams = reps.map_batches(
        lambda b: pa.table({"gram": b["min(gram)"]}), batch_format="pyarrow"
    )
    hot = semi_join_keys(
        hot, rep_grams.materialize(), "gram", num_partitions=num_partitions
    )
    pairs = hot.groupby("gram").map_groups(
        _pair_prefix_group,
        fn_kwargs={"tau": tau, "sides": sides_ref},
        batch_format="pyarrow",
    )
    # distinct (a, b) on the REAL composite key (no hashed-key chimeras)
    pairs = pairs.materialize()
    if pairs.count() == 0:
        return ray.data.from_arrow(PAIR_AB_SCHEMA.empty_table())
    return (
        pairs.groupby(["a", "b"])
        .count()
        .select_columns(["a", "b"])
    )
