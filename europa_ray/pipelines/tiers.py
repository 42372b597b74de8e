"""Tiered dedup — the full attribution pipeline: exact → normalization →
near-dup, each tier running only over the previous tier's survivors, every
document labeled with the tier that removed it and the surviving document
it duplicates.

This is how large code-corpus dedups are actually staged (The Stack /
BigCode run byte-exact, then formatting-normalized-exact, then MinHash
near-dedup): each tier is strictly cheaper per candidate than the next, so
running them in order shrinks the expensive near-dup stage's input to the
distinct-normalized corpus. Reference parity: the exact tier is the
reference's group-by-digest pass
(``/root/reference/Api/Implementations/DuplicatesByHash/DuplicateByHashFinder.cs:29-77``),
the near tier its similarity-cluster pass
(``/root/reference/Api/Implementations/SimilarImages/SimilarImageFinder.cs:340-411``);
the exact-before-similar staging mirrors the reference's exact-dup
coalescing before similarity search (``SimilarImageFinder.cs:161-165``).

Output: one row per input document — ``(id, tier, dup_of)`` where

* ``tier = 'exact'``: another doc with byte-identical content survives;
  ``dup_of`` = the minimum-id doc of the digest group.
* ``tier = 'norm'``: survived exact, but another exact-survivor shares its
  NORMALIZED content (comment strip → lower → whitespace collapse → trim,
  :func:`europa_ray.pipelines.normdedup.normalize_code_arrow`); ``dup_of``
  = the minimum-id exact-survivor of the normalization group.
* ``tier = 'near'``: survived both exact tiers, but sits in a near-dup
  cluster (true/estimated shingle Jaccard ≥ τ connected components, the
  flagship pipeline) with a smaller-id survivor; ``dup_of`` = the
  minimum-id member of the cluster.
* ``tier = 'kept'``: the surviving corpus (``dup_of`` = own id — the
  table is a TOTAL doc → canonical-representative mapping). Empty/null
  content never dedups (``HashGenerator.cs:18-19``) and is always kept.

Representative rule (``rep_rule``): which member of a group survives.

* ``"min_id"`` (default): minimum id at every tier.
* ``"longest"``: the member with the most content BYTES (ties → min id) —
  The Stack-style "keep the most complete variant" policy. The exact tier
  is unaffected (byte-identical members have equal length, so the tie
  rule = min id applies); the norm and near tiers pick the longest
  survivor of their group.

Both rules are deterministic and transitively safe (``dup_of`` always
names a doc that itself survives its own tier's grouping).

Scale shape: content is read once (the digest pass) plus once more for the
near tier's signature stage over survivors only; every shuffle is
digest/id-only (~100 B/row). Both the exact/norm attribution and the final
assembly are budget-dispatched: a driver path (one structured-key lexsort
+ first-of-group pick per tier — no shuffle at all) below
``driver_max_keys`` rows, and a fully distributed path (two digest-keyed
``groupby().aggregate(Min)`` + hash joins, broadcast-or-join survivor
semi-join, left-outer kept-marker join) above it, equivalence-tested by
forcing the budget to 0.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from europa_ray.config import DEFAULT_CONFIG, EngineConfig
from europa_ray.util import (
    default_num_partitions,
    hash_join,
    hex_to_u256_arrow,
    scrub_empty_blocks,
)

TIERS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("tier", pa.string()),
        pa.field("dup_of", pa.int64()),
    ]
)


def _group_first(
    keys: np.ndarray, tiebreaks: tuple[np.ndarray, ...], take: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group representative over an UNSORTED stream: sort rows by
    ``(keys, *tiebreaks)`` and take the first row of each key group.

    ``keys`` is the structured U256 digest array; ``tiebreaks`` order rows
    within a group (e.g. ``(ids,)`` for min-id, ``(-lens, ids)`` for
    keep-longest). Returns ``(order, group_index_per_sorted_row,
    take[first_of_group])`` — one ``np.lexsort``, no Python loops.
    """
    order = np.lexsort(
        (*reversed(tiebreaks), keys["q3"], keys["q2"], keys["q1"], keys["q0"])
    )
    ks = keys[order]
    starts_mask = np.ones(ks.shape[0], dtype=bool)
    starts_mask[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(starts_mask)
    gidx = np.cumsum(starts_mask) - 1
    reps = take[order][starts]
    return order, gidx, reps


# the composite string repkey: lexicographic min == (most bytes, then min
# id); 16 digits bound nbytes < 10^15 (a petabyte-scale single doc) and 20
# digits bound int64 ids. Shared by the distributed norm/near rep joins.
_LEN_CEIL = 10**15


def _repkey_longest(nbytes, ids):
    """Vectorized Arrow composite key: zero-padded (10^15 − nbytes) ++
    order-preserving 20-digit id key (``util.int64_lexkey_arrow`` — a raw
    signed lpad breaks on negative ids, which the CLI's hash-derived
    row_ids produce). min(key) = longest content, ties by min id; the id
    is recoverable from the last 20 characters."""
    import pyarrow.compute as pc

    from europa_ray.util import int64_lexkey_arrow

    inv = pc.subtract(pa.scalar(_LEN_CEIL, pa.int64()), pc.cast(nbytes, pa.int64()))
    a = pc.utf8_lpad(pc.cast(inv, pa.string()), 16, "0")
    ids_arr = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids
    b = int64_lexkey_arrow(pc.cast(ids_arr, pa.int64()))
    return pc.binary_join_element_wise(a, b, "")


def _repkey_id(key_col) -> "pa.Array":
    """Recover the int64 id from a ``_repkey_longest`` composite key."""
    import pyarrow.compute as pc

    from europa_ray.util import int64_from_lexkey

    return int64_from_lexkey(pc.utf8_slice_codeunits(key_col, 16, 36))


def _near_tier_drops(
    surv_files: ray.data.Dataset,
    cfg: EngineConfig,
    id_col: str,
    nparts: int,
    rep_rule: str = "min_id",
    lens_ds: ray.data.Dataset | None = None,
    progress=None,
) -> ray.data.Dataset:
    """Near-dup tier over the exact/norm survivors: flagship clusters →
    per-cluster representative → ``(id, 'near', dup_of)`` rows for every
    non-representative member.

    The cluster table holds duplicate members only (≪ corpus), so the
    representative choice is one aggregate-sized ``groupby(cluster_id)``
    min + an inner join back — both metadata-only. ``rep_rule="longest"``
    adds one (id, nbytes)-metadata join to attach content lengths and
    minimizes the composite ``_repkey_longest`` key instead of the raw id.
    """
    import pyarrow.compute as pc

    from europa_ray.pipelines.neardup import near_dup_pipeline

    clusters = near_dup_pipeline(
        surv_files, cfg, id_cols=(id_col,), progress=progress
    )["clusters"].materialize()
    if clusters.count() == 0:
        return ray.data.from_arrow(TIERS_SCHEMA.empty_table())

    if rep_rule == "longest":
        if lens_ds is None:
            # fallback only — callers pass the digest-stage lengths so the
            # corpus content is not re-scanned just to measure it
            def id_len(batch: pa.Table) -> pa.Table:
                return pa.table(
                    {
                        id_col: batch[id_col],
                        "__nb": pc.cast(
                            pc.binary_length(batch["content"]), pa.int64()
                        ),
                    }
                )

            lens_ds = surv_files.map_batches(id_len, batch_format="pyarrow")
        clusters = scrub_empty_blocks(
            hash_join(clusters, lens_ds, "inner", (id_col,), num_partitions=nparts)
            .map_batches(
                lambda b: pa.table(
                    {
                        id_col: b[id_col],
                        "cluster_id": b["cluster_id"],
                        "__repkey": _repkey_longest(b["__nb"], b[id_col]),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize(),
            pa.schema(
                [
                    pa.field(id_col, pa.int64()),
                    pa.field("cluster_id", pa.string()),
                    pa.field("__repkey", pa.string()),
                ]
            ),
        )
        reps = scrub_empty_blocks(
            clusters.groupby("cluster_id")
            .min("__repkey")
            .rename_columns({"min(__repkey)": "__repmin"})
            .materialize(),
            pa.schema(
                [pa.field("cluster_id", pa.string()), pa.field("__repmin", pa.string())]
            ),
        )

        def to_drops(batch: pa.Table) -> pa.Table:
            keep = batch.filter(pc.not_equal(batch["__repkey"], batch["__repmin"]))
            return pa.table(
                {
                    "doc_id": pc.cast(keep[id_col], pa.int64()),
                    "tier": pa.array(["near"] * keep.num_rows, pa.string()),
                    "dup_of": _repkey_id(keep["__repmin"]),
                }
            )

    else:
        reps = (
            clusters.groupby("cluster_id")
            .min(id_col)
            .rename_columns({f"min({id_col})": "__rep"})
            .materialize()
        )

        def to_drops(batch: pa.Table) -> pa.Table:
            keep = batch.filter(pc.not_equal(batch[id_col], batch["__rep"]))
            return pa.table(
                {
                    "doc_id": pc.cast(keep[id_col], pa.int64()),
                    "tier": pa.array(["near"] * keep.num_rows, pa.string()),
                    "dup_of": pc.cast(keep["__rep"], pa.int64()),
                }
            )

    drops = (
        hash_join(clusters, reps, "inner", ("cluster_id",), num_partitions=nparts)
        .map_batches(to_drops, batch_format="pyarrow")
        .materialize()
    )
    return scrub_empty_blocks(drops, TIERS_SCHEMA)


def tiered_dedup(
    files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    id_col: str = "doc_id",
    num_partitions: int | None = None,
    driver_max_keys: int = 100_000_000,
    rep_rule: str = "min_id",
    with_type2: bool = False,
    t2_min_tokens: int = 5,
    progress=None,
    return_lens: bool = False,
) -> ray.data.Dataset:
    """Per-document tier attribution table ``(doc_id, tier, dup_of)``,
    sorted by id. The output id column is always named ``doc_id``
    regardless of ``id_col`` (the CLI feeds a derived ``row_id``). See the
    module docstring for semantics.

    ``with_type2=True`` inserts the Type-2 (consistent-rename) tier between
    norm and near: survivors of both exact tiers whose parameterized
    canonical form (:mod:`europa_ray.pipelines.clones`) matches a surviving
    smaller/longer doc's are dropped with ``tier='t2'``. The P-digest is a
    function of the normalized content, so the tier attributes over
    DISTINCT norm digests exactly as norm attributes over distinct raw
    digests — the chain exact ⊆ norm ⊆ t2 stays one lexsort per tier on the
    driver path and one extra digest-keyed Min-groupby + join distributed.
    ``t2_min_tokens`` guards the tier's destructiveness: only docs with at
    least that many tokens AND at least one repeated token are grouped (an
    all-distinct-token canonical form is a pure token-count class — e.g.
    any two unrelated 2-token files would otherwise merge); 0 disables the
    guard. Ineligible docs keep their norm identity.

    Config filters (lang include/exclude, size range) are applied ONCE up
    front so every tier sees the same universe; rows a filter excludes do
    not appear in the output at all (the near tier's internal
    ``apply_filters`` is then a no-op)."""
    from europa_ray.pipelines.normdedup import _add_both_digests
    from europa_ray.stages.filters import apply_filters

    if rep_rule not in ("min_id", "longest"):
        raise ValueError(f"rep_rule must be 'min_id' or 'longest', got {rep_rule!r}")
    longest = rep_rule == "longest"
    files = apply_filters(files, cfg)
    nparts = num_partitions or default_num_partitions()
    # with_len also when the caller wants the lengths back (tier_savings):
    # binary_length on the already-decoded digest batches is ~free, and it
    # saves the caller a third full-corpus content scan
    digests = files.map_batches(
        _add_both_digests,
        fn_kwargs={
            "id_col": id_col,
            "with_len": longest or return_lens,
            "with_param": with_type2,
            "t2_min_tokens": t2_min_tokens,
        },
        batch_format="pyarrow",
    ).materialize()

    def _ret(out: ray.data.Dataset):
        if not return_lens:
            return out
        import pyarrow.compute as _pc

        lens_ds = digests.map_batches(
            lambda b: pa.table(
                {
                    "doc_id": _pc.cast(b[id_col], pa.int64()),
                    "__nb": _pc.cast(b["nbytes"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        return out, lens_ds

    # ---- budget check: stream ids + digests to the driver if small
    ids_p: list[np.ndarray] = []
    sha_p: list[np.ndarray] = []
    nsha_p: list[np.ndarray] = []
    psha_p: list[np.ndarray] = []
    len_p: list[np.ndarray] = []
    total, over = 0, False
    for b in digests.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        total += b.num_rows
        if total > driver_max_keys:
            over = True
            break
        ids_p.append(b[id_col].to_numpy())
        sha_p.append(hex_to_u256_arrow(b["sha256"]))
        nsha_p.append(hex_to_u256_arrow(b["norm_sha256"]))
        if with_type2:
            psha_p.append(hex_to_u256_arrow(b["p_sha256"]))
        if longest:
            len_p.append(b["nbytes"].to_numpy())

    if over:
        return _ret(
            _tiered_dedup_distributed(
                files, digests, cfg, id_col, nparts, rep_rule, progress,
                with_type2=with_type2,
            )
        )

    if not ids_p:
        # no hashable content at all: every input row is kept
        return _ret(_all_kept(files, id_col))

    ids = np.concatenate(ids_p)
    sha = np.concatenate(sha_p)
    nsha = np.concatenate(nsha_p)

    # tier 1 — exact: rep1 = min id per raw digest (byte-identical members
    # have equal length, so BOTH rep rules reduce to the min-id tiebreak)
    order, gidx, rep1_g = _group_first(sha, (ids,), ids)
    ids_s = ids[order]
    rep1 = rep1_g[gidx]
    # tier 2 — norm, over DISTINCT raw digests only (norm digest is a
    # function of content, so it is constant within each sha group)
    starts = np.flatnonzero(np.r_[True, gidx[1:] != gidx[:-1]])
    nsha_g = nsha[order][starts]
    lens_g = np.concatenate(len_p)[order][starts] if longest else None
    if longest:
        o2, g2idx, rep2_n = _group_first(
            nsha_g, (np.negative(lens_g), rep1_g), rep1_g
        )
    else:
        o2, g2idx, rep2_n = _group_first(nsha_g, (rep1_g,), rep1_g)
    rep2_g = np.empty_like(rep1_g)
    rep2_g[o2] = rep2_n[g2idx]
    rep2 = rep2_g[gidx]

    # tier 2.5 — Type-2 (parameterized), over DISTINCT norm digests only
    # (the P-digest is a function of the normalized content, so it is
    # constant within each norm group — same reduction norm applies to sha)
    rep3 = None
    if with_type2:
        psha_g = np.concatenate(psha_p)[order][starts]  # per distinct sha
        starts2 = np.flatnonzero(np.r_[True, g2idx[1:] != g2idx[:-1]])
        psha_ng = psha_g[o2][starts2]  # per distinct norm group
        if longest:
            # first row of each norm group under the (-len, id) tiebreak IS
            # the group rep, so its length rides along at starts2
            replen_ng = lens_g[o2][starts2]
            o3, g3idx, rep3_n = _group_first(
                psha_ng, (np.negative(replen_ng), rep2_n), rep2_n
            )
        else:
            o3, g3idx, rep3_n = _group_first(psha_ng, (rep2_n,), rep2_n)
        rep3_ng = np.empty_like(rep2_n)
        rep3_ng[o3] = rep3_n[g3idx]
        rep3_g = np.empty_like(rep1_g)
        rep3_g[o2] = rep3_ng[g2idx]
        rep3 = rep3_g[gidx]

    exact_mask = ids_s != rep1
    norm_mask = (~exact_mask) & (rep1 != rep2)
    if with_type2:
        t2_mask = (~exact_mask) & (~norm_mask) & (rep2 != rep3)
    else:
        t2_mask = np.zeros_like(exact_mask)
    surv_ids = np.sort(ids_s[(~exact_mask) & (~norm_mask) & (~t2_mask)])

    from europa_ray.stages.lsh import filter_by_key_array

    surv_files = filter_by_key_array(files, surv_ids, id_col)
    lens_ds = (
        digests.select_columns([id_col, "nbytes"]).rename_columns({"nbytes": "__nb"})
        if longest
        else None
    )
    near_drops = _near_tier_drops(
        surv_files, cfg, id_col, nparts, rep_rule, lens_ds, progress
    )

    nd_id_p, nd_rep_p = [], []
    for b in near_drops.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        nd_id_p.append(b["doc_id"].to_numpy())
        nd_rep_p.append(b["dup_of"].to_numpy())
    nd_ids = np.concatenate(nd_id_p) if nd_id_p else np.empty(0, np.int64)
    nd_reps = np.concatenate(nd_rep_p) if nd_rep_p else np.empty(0, np.int64)

    # kept = every input id (including empty/null-content rows absent from
    # the digest table) minus all dropped ids
    all_ids = _gather_ids(files, id_col)
    t2_dups = rep3[t2_mask] if with_type2 else np.empty(0, np.int64)
    drop_ids = np.concatenate(
        [ids_s[exact_mask], ids_s[norm_mask], ids_s[t2_mask], nd_ids]
    )
    kept_ids = np.setdiff1d(all_ids, drop_ids)

    out_ids = np.concatenate(
        [ids_s[exact_mask], ids_s[norm_mask], ids_s[t2_mask], nd_ids, kept_ids]
    )
    out_tier = np.concatenate(
        [
            np.full(int(exact_mask.sum()), "exact", dtype="U5"),
            np.full(int(norm_mask.sum()), "norm", dtype="U5"),
            np.full(int(t2_mask.sum()), "t2", dtype="U5"),
            np.full(nd_ids.shape[0], "near", dtype="U5"),
            np.full(kept_ids.shape[0], "kept", dtype="U5"),
        ]
    )
    out_dup = np.concatenate(
        [rep1[exact_mask], rep2[norm_mask], t2_dups, nd_reps, kept_ids]
    )
    final = np.argsort(out_ids, kind="stable")
    tbl = pa.table(
        {
            "doc_id": pa.array(out_ids[final], pa.int64()),
            "tier": pa.array(out_tier[final].tolist(), pa.string()),
            "dup_of": pa.array(out_dup[final], pa.int64()),
        }
    )
    return _ret(ray.data.from_arrow(tbl))


def _gather_ids(files: ray.data.Dataset, id_col: str) -> np.ndarray:
    parts = [
        b[id_col].to_numpy()
        for b in files.select_columns([id_col]).iter_batches(
            batch_format="pyarrow", batch_size=1 << 20
        )
    ]
    return np.concatenate(parts) if parts else np.empty(0, np.int64)


def _all_kept(files: ray.data.Dataset, id_col: str) -> ray.data.Dataset:
    def mark(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": pc.cast(batch[id_col], pa.int64()),
                "tier": pa.array(["kept"] * batch.num_rows, pa.string()),
                "dup_of": pc.cast(batch[id_col], pa.int64()),
            }
        )

    return files.map_batches(mark, batch_format="pyarrow").sort("doc_id")


def _tiered_dedup_distributed(
    files: ray.data.Dataset,
    digests: ray.data.Dataset,
    cfg: EngineConfig,
    id_col: str,
    nparts: int,
    rep_rule: str = "min_id",
    progress=None,
    *,
    with_type2: bool = False,
) -> ray.data.Dataset:
    """Shuffle-based path for corpora beyond the driver budget: two
    digest-keyed Min-aggregates + joins attribute the exact/norm tiers, a
    broadcast-or-join semi-join feeds the near tier, and a left-outer
    marker join labels the kept rows. ``with_type2`` adds one more
    digest-keyed Min-groupby + join level (over the P-digest of the
    distinct-norm reps). Every shuffled table is digest/id metadata only."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Min

    from europa_ray.stages.lsh import semi_join_keys

    if digests.count() == 0:
        return _all_kept(files, id_col)

    longest = rep_rule == "longest"
    aggs = [Min(id_col), Min("norm_sha256")]
    renames = {f"min({id_col})": "__rep1", "min(norm_sha256)": "__nsha"}
    if with_type2:
        # p_sha256 is constant within a raw-digest group; Min selects it
        aggs.append(Min("p_sha256"))
        renames["min(p_sha256)"] = "__psha"
    if longest:
        # nbytes is constant within a digest group; Min just selects it
        aggs.append(Min("nbytes"))
        renames["min(nbytes)"] = "__nb"
    g1 = (
        digests.groupby("sha256")
        .aggregate(*aggs)
        .rename_columns(renames)
        .materialize()
    )
    if longest:
        # norm rep = the LONGEST exact-survivor of the group (ties → min
        # id): minimize the composite repkey, then recover the id
        def rk_fn(b: pa.Table) -> pa.Table:
            cols = {
                "__nsha": b["__nsha"],
                "__rk": _repkey_longest(b["__nb"], b["__rep1"]),
            }
            if with_type2:
                cols["__psha"] = b["__psha"]
            return pa.table(cols)

        rk = g1.map_batches(rk_fn, batch_format="pyarrow")
        g2_aggs = [Min("__rk")] + ([Min("__psha")] if with_type2 else [])

        def g2_fn(b: pa.Table) -> pa.Table:
            cols = {"__nsha": b["__nsha"], "__rep2": _repkey_id(b["min(__rk)"])}
            if with_type2:
                # the group-min composite key rides along: the T2 level
                # minimizes the SAME key over the norm-group reps
                cols["__rk2"] = b["min(__rk)"]
                cols["__psha"] = b["min(__psha)"]
            return pa.table(cols)

        g2_schema = [pa.field("__nsha", pa.string()), pa.field("__rep2", pa.int64())]
        if with_type2:
            g2_schema += [pa.field("__rk2", pa.string()), pa.field("__psha", pa.string())]
        # scrubbed: empty aggregator blocks skip the projection UDF and
        # would otherwise enter the next join with the pre-projection schema
        g2 = scrub_empty_blocks(
            rk.groupby("__nsha")
            .aggregate(*g2_aggs)
            .map_batches(g2_fn, batch_format="pyarrow")
            .materialize(),
            pa.schema(g2_schema),
        )
    else:
        if with_type2:
            g2 = (
                g1.groupby("__nsha")
                .aggregate(Min("__rep1"), Min("__psha"))
                .rename_columns(
                    {"min(__rep1)": "__rep2", "min(__psha)": "__psha"}
                )
                .materialize()
            )
        else:
            g2 = (
                g1.groupby("__nsha")
                .min("__rep1")
                .rename_columns({"min(__rep1)": "__rep2"})
                .materialize()
            )

    # ---- Type-2 level: group the norm-group reps by P-digest
    if with_type2:
        if longest:
            g3 = scrub_empty_blocks(
                g2.groupby("__psha")
                .min("__rk2")
                .map_batches(
                    lambda b: pa.table(
                        {"__psha": b["__psha"], "__rep3": _repkey_id(b["min(__rk2)"])}
                    ),
                    batch_format="pyarrow",
                )
                .materialize(),
                pa.schema(
                    [pa.field("__psha", pa.string()), pa.field("__rep3", pa.int64())]
                ),
            )
        else:
            g3 = (
                g2.groupby("__psha")
                .min("__rep2")
                .rename_columns({"min(__rep2)": "__rep3"})
                .materialize()
            )
        h2 = hash_join(g2, g3, "inner", ("__psha",), num_partitions=nparts).materialize()
        # g1 and g2 both carry __psha — project it off g1 so the exact- and
        # norm-attribution joins below have no non-key column collision
        g1 = g1.select_columns(["sha256", "__rep1", "__nsha"]).materialize()
    # The exact tier joins the corpus digests against the materialized
    # GROUPBY output only (the exact.py-proven pattern) — never against a
    # join output: Ray 2.49's hash-shuffle planner silently drops a
    # select_columns pushed onto a join output and then fails the next
    # join with "no match or multiple matches for key field", so every
    # join output here is consumed by map_batches / iter_batches instead.
    att1 = hash_join(digests, g1, "inner", ("sha256",), num_partitions=nparts)

    def exact_drops_fn(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.not_equal(batch[id_col], batch["__rep1"]))
        return pa.table(
            {
                "doc_id": pc.cast(keep[id_col], pa.int64()),
                "tier": pa.array(["exact"] * keep.num_rows, pa.string()),
                "dup_of": pc.cast(keep["__rep1"], pa.int64()),
            }
        )

    drops_exact = att1.map_batches(exact_drops_fn, batch_format="pyarrow")

    # The norm tier only ever drops exact-tier SURVIVORS — and those are
    # exactly the __rep1 values — so its attribution lives entirely on the
    # distinct-digest table: no second corpus-wide join needed.
    h = hash_join(g1, g2, "inner", ("__nsha",), num_partitions=nparts)

    def norm_drops_fn(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.not_equal(batch["__rep1"], batch["__rep2"]))
        return pa.table(
            {
                "doc_id": pc.cast(keep["__rep1"], pa.int64()),
                "tier": pa.array(["norm"] * keep.num_rows, pa.string()),
                "dup_of": pc.cast(keep["__rep2"], pa.int64()),
            }
        )

    def surv_fn(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.equal(batch["__rep1"], batch["__rep2"]))
        return pa.table({id_col: keep["__rep1"]})

    h = h.materialize()
    drops_norm = h.map_batches(norm_drops_fn, batch_format="pyarrow")
    drops_pre = drops_exact.union(drops_norm)
    if with_type2:
        # norm-tier survivors are exactly the __rep2 values (one per
        # distinct norm digest = one h2 row), so the T2 attribution and the
        # surviving set both live on h2 — no further corpus-wide join
        def t2_drops_fn(batch: pa.Table) -> pa.Table:
            keep = batch.filter(pc.not_equal(batch["__rep2"], batch["__rep3"]))
            return pa.table(
                {
                    "doc_id": pc.cast(keep["__rep2"], pa.int64()),
                    "tier": pa.array(["t2"] * keep.num_rows, pa.string()),
                    "dup_of": pc.cast(keep["__rep3"], pa.int64()),
                }
            )

        def surv_fn_t2(batch: pa.Table) -> pa.Table:
            keep = batch.filter(pc.equal(batch["__rep2"], batch["__rep3"]))
            return pa.table({id_col: pc.cast(keep["__rep2"], pa.int64())})

        drops_pre = drops_pre.union(
            h2.map_batches(t2_drops_fn, batch_format="pyarrow")
        )
        surv_src = h2.map_batches(surv_fn_t2, batch_format="pyarrow")
    else:
        surv_src = h.map_batches(surv_fn, batch_format="pyarrow")
    drops_en = scrub_empty_blocks(drops_pre.materialize(), TIERS_SCHEMA)
    surv_ids = scrub_empty_blocks(
        surv_src.materialize(),
        pa.schema([pa.field(id_col, pa.int64())]),
    )
    surv_files = semi_join_keys(files, surv_ids, id_col, num_partitions=nparts)
    lens_ds = (
        digests.select_columns([id_col, "nbytes"]).rename_columns({"nbytes": "__nb"})
        if longest
        else None
    )
    near_drops = _near_tier_drops(
        surv_files, cfg, id_col, nparts, rep_rule, lens_ds, progress
    )

    drops = scrub_empty_blocks(drops_en.union(near_drops).materialize(), TIERS_SCHEMA)
    all_ids = files.select_columns([id_col]).map_batches(
        lambda b: pa.table({"doc_id": pc.cast(b[id_col], pa.int64())}),
        batch_format="pyarrow",
    )
    if drops.count() == 0:
        return _all_kept(files, id_col)
    out = hash_join(all_ids, drops, "left_outer", ("doc_id",), num_partitions=nparts)

    def fill_kept(batch: pa.Table) -> pa.Table:
        tier = pc.coalesce(batch["tier"], pa.scalar("kept", pa.string()))
        dup = pc.coalesce(batch["dup_of"], pc.cast(batch["doc_id"], pa.int64()))
        return pa.table({"doc_id": batch["doc_id"], "tier": tier, "dup_of": dup})

    labeled = scrub_empty_blocks(
        out.map_batches(fill_kept, batch_format="pyarrow").materialize(),
        TIERS_SCHEMA,
    )
    return labeled.sort("doc_id")


SAVINGS_SCHEMA = pa.schema(
    [
        pa.field("tier", pa.string()),
        pa.field("n_docs", pa.int64()),
        pa.field("total_bytes", pa.int64()),
    ]
)


def tier_savings(
    files: ray.data.Dataset,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    id_col: str = "doc_id",
    num_partitions: int | None = None,
    driver_max_keys: int = 100_000_000,
    rep_rule: str = "min_id",
) -> pa.Table:
    """Per-tier cost/benefit rollup: ``(tier, n_docs, total_bytes)`` —
    how many documents and how many content bytes each dedup tier removes
    (and the ``kept`` row = the surviving corpus size). The economics of
    staged dedup: at 100 TB the byte column is the storage/compute saved
    by running the cheap tiers before MinHash.

    Shape: the byte lengths come FROM the attribution run's own digest
    pass (``return_lens=True`` — no extra content scan), joined back on id
    (left-outer: empty/null-content kept rows are absent from the digest
    table and count 0 bytes), then a 4-row aggregate.
    """
    import pyarrow.compute as pc

    nparts = num_partitions or default_num_partitions()
    out, lens = tiered_dedup(
        files,
        cfg,
        id_col=id_col,
        num_partitions=nparts,
        driver_max_keys=driver_max_keys,
        rep_rule=rep_rule,
        return_lens=True,
    )
    out = out.materialize()
    lens = lens.materialize()

    if lens.count() == 0:
        # nothing hashable: every row is kept at 0 bytes (a zero-row join
        # side would crash Ray 2.49's hash shuffle)
        n = out.count()
        if n == 0:
            return SAVINGS_SCHEMA.empty_table()
        return pa.table(
            {
                "tier": pa.array(["kept"], pa.string()),
                "n_docs": pa.array([n], pa.int64()),
                "total_bytes": pa.array([0], pa.int64()),
            }
        )

    joined = scrub_empty_blocks(
        hash_join(out, lens, "left_outer", ("doc_id",), num_partitions=nparts)
        .map_batches(
            lambda b: pa.table(
                {
                    "tier": b["tier"],
                    "__nb": pc.coalesce(b["__nb"], pa.scalar(0, pa.int64())),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize(),
        pa.schema([pa.field("tier", pa.string()), pa.field("__nb", pa.int64())]),
    )
    from ray.data.aggregate import Count, Sum

    agg = joined.groupby("tier").aggregate(Count(), Sum("__nb"))
    rows = sorted(agg.take_all(), key=lambda r: r["tier"])
    return pa.table(
        {
            "tier": pa.array([r["tier"] for r in rows], pa.string()),
            "n_docs": pa.array([int(r["count()"]) for r in rows], pa.int64()),
            "total_bytes": pa.array([int(r["sum(__nb)"]) for r in rows], pa.int64()),
        }
    )
