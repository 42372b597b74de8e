"""LSH banding, collision detection, and in-band candidate pairing.

The analog of Europa's Qdrant ANN retrieval (``/root/reference/Api/Client/
QdrantRepository.cs:184-206``): instead of an external vector index with a
bulk-load/poll-green barrier (``SimilarImageFinder.cs:69-82``), candidates
come from a ``groupby(band_key)`` shuffle over exploded (band_key, node, sig)
rows. Verification (the score-threshold rule, ``QdrantRepository.cs:192``)
happens INSIDE the pairing function from the full 128-slot signatures carried
through the explode — fully streaming, no driver-side signature store.

Skew (north rule): bands larger than ``max_band_size`` (boilerplate/license
clusters) switch from all-pairs to sorted window pairing — a connected
spanning structure with ``pair_window`` redundancy, preserving CC
connectivity without O(n²) pair blowup; per-band pair output is additionally
capped at ``max_pairs_per_band`` (the ANN top-100 analog, K1).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from europa_ray.config import DEFAULT_CONFIG, EngineConfig
from europa_ray.functions.sig import band_keys
from europa_ray.stages.signatures import minhash_matrix, pack_sigs
from europa_ray.util import cluster_cpus, default_num_partitions

PAIRS_SCHEMA = pa.schema(
    [
        pa.field("a", pa.int64()),
        pa.field("b", pa.int64()),
        pa.field("est", pa.float64()),
        pa.field("source", pa.string()),
    ]
)

CAND_SCHEMA = pa.schema([pa.field("a", pa.int64()), pa.field("b", pa.int64())])

_log = logging.getLogger(__name__)


def effective_bands(cfg: EngineConfig) -> int:
    """Bands actually exploded: ``candidates='all'`` collapses banding to ONE
    global band (complete candidate coverage — the ≡-by-construction
    oracle mode), so the explode is ×1 and needs no MinHash at all."""
    return 1 if cfg.candidates == "all" else cfg.lsh_bands


def _pair_limits(cfg: EngineConfig) -> tuple[int, int]:
    """(max_band_size, max_pairs_per_band) in effect: unbounded in
    ``candidates='all'`` mode — window pairing or per-band caps would break
    the completeness guarantee that mode exists for."""
    if cfg.candidates == "all":
        return 1 << 62, 1 << 62
    return cfg.max_band_size, cfg.max_pairs_per_band


def explode_bands(batch: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> pa.Table:
    """(node, minhash) → ``lsh_bands`` rows: (band_key, node, minhash) × b."""
    n = batch.num_rows
    b = effective_bands(cfg)
    if n == 0:
        return pa.table(
            {
                "band_key": pa.array([], pa.int64()),
                "node": pa.array([], pa.int64()),
                "minhash": pa.array([], pa.binary()),
            }
        )
    sig32 = minhash_matrix(batch, cfg.num_perm)
    if cfg.candidates == "all":
        bk = np.zeros((n, 1), dtype=np.int64)
    else:
        bk = band_keys(sig32.astype(np.uint64), b, cfg.lsh_rows).view(np.int64)  # (n, b)
    node = batch["node"].to_numpy()
    rep = np.repeat(sig32, b, axis=0)  # row-major: row i's b bands contiguous
    return pa.table(
        {
            "band_key": pa.array(bk.ravel()),
            "node": pa.array(np.repeat(node, b)),
            "minhash": pack_sigs(rep),
        }
    )


def pair_band_group(group: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> pa.Table:
    """Candidate pairs within one band bucket, verified by estimated Jaccard
    (fraction of matching MinHash components ≥ ``jaccard_threshold``).

    Exact-duplicate rows (same node = same sha256) are coalesced first —
    near-dup search runs at content-group granularity exactly like the
    reference's one-``ImagesGroup``-per-distinct-hash model
    (``Core/Entities/Images/ImagesGroup.cs:8-27``).
    """
    nodes = group["node"].to_numpy()
    uniq, first_idx = np.unique(nodes, return_index=True)
    n = uniq.shape[0]
    if n < 2:
        return PAIRS_SCHEMA.empty_table()
    sig = minhash_matrix(group, cfg.num_perm)[first_idx]  # sorted by node asc

    max_band, max_pairs = _pair_limits(cfg)
    if n <= max_band:
        iu, ju = np.triu_indices(n, k=1)
    else:
        # Hot band: sorted window pairing (salting/splitting with
        # connectivity-preserving links). Every member links to its next
        # `w` neighbors in node order — a connected overlay if any pairs
        # verify transitively; logged upstream via band size counters.
        w = cfg.pair_window
        iu = np.repeat(np.arange(n), w)
        ju = iu + np.tile(np.arange(1, w + 1), n)
        ok = ju < n
        iu, ju = iu[ok], ju[ok]

    est = (sig[iu] == sig[ju]).mean(axis=1)
    pass_mask = est >= (cfg.jaccard_threshold - cfg.verify_margin)
    iu, ju, est = iu[pass_mask], ju[pass_mask], est[pass_mask]
    if iu.shape[0] > max_pairs:
        top = np.argpartition(-est, max_pairs)[:max_pairs]
        iu, ju, est = iu[top], ju[top], est[top]
    if iu.shape[0] == 0:
        return PAIRS_SCHEMA.empty_table()
    a = uniq[iu]
    b = uniq[ju]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return pa.table(
        {
            "a": pa.array(lo),
            "b": pa.array(hi),
            "est": pa.array(est.astype(np.float64)),
            "source": pa.array(["lsh"] * len(lo), pa.string()),
        }
    )


def explode_band_keys(batch: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> pa.Table:
    """Lightweight explode: band keys ONLY (no signature payload) — feeds
    collision detection without paying the ×16 signature replication."""
    if batch.num_rows == 0:
        return pa.table({"band_key": pa.array([], pa.int64())})
    if cfg.candidates == "all":
        return pa.table({"band_key": pa.array(np.zeros(batch.num_rows, np.int64))})
    sig32 = minhash_matrix(batch, cfg.num_perm)
    bk = band_keys(sig32.astype(np.uint64), cfg.lsh_bands, cfg.lsh_rows).view(np.int64)
    return pa.table({"band_key": pa.array(bk.ravel())})


def duplicated_keys(
    keys_ds, key_col: str, *, driver_max_keys: int = 100_000_000
) -> np.ndarray | None:
    """Sorted array of key values appearing more than once, or None when the
    key stream exceeds ``driver_max_keys`` (caller falls back to the
    distributed count-aggregate).

    A key stream of ≤100M int64 is ≤800MB — trivially sortable on the driver
    and ~10× faster than a distributed aggregate whose fixed per-shuffle cost
    dominates at this size. At 10^12-file scale the stream is too big: the
    Ray aggregate path takes over (same semantics, tested equivalent).
    """
    parts: list[np.ndarray] = []
    total = 0
    for b in keys_ds.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        arr = b[key_col].to_numpy()
        total += arr.shape[0]
        if total > driver_max_keys:
            return None
        parts.append(arr)
    if not parts:
        return np.empty(0, np.int64)
    flat = np.sort(np.concatenate(parts))
    dup_mask = np.zeros(flat.shape[0], dtype=bool)
    dup_mask[1:] = flat[1:] == flat[:-1]
    return np.unique(flat[dup_mask])


def explode_band_key_nodes(batch: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> pa.Table:
    """(band_key, node) explode — 16 bytes/row/band instead of carrying the
    512-byte signature through the shuffle (candidate generation only needs
    bucket membership; verification re-reads signatures for candidates)."""
    if batch.num_rows == 0:
        return pa.table(
            {"band_key": pa.array([], pa.int64()), "node": pa.array([], pa.int64())}
        )
    node = batch["node"].to_numpy()
    if cfg.candidates == "all":
        # one global band: membership only — no MinHash needed at all
        return pa.table(
            {
                "band_key": pa.array(np.zeros(node.shape[0], np.int64)),
                "node": pa.array(node),
            }
        )
    sig32 = minhash_matrix(batch, cfg.num_perm)
    bk = band_keys(sig32.astype(np.uint64), cfg.lsh_bands, cfg.lsh_rows).view(np.int64)
    return pa.table(
        {
            "band_key": pa.array(bk.ravel()),
            "node": pa.array(np.repeat(node, cfg.lsh_bands)),
        }
    )


def _pair_nodes_group(group: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> pa.Table:
    """UNVERIFIED candidate pairs within one colliding band bucket: all pairs
    up to ``max_band_size`` members, sorted window pairing beyond (hot-band
    salting, connectivity-preserving). Verification happens downstream from
    the candidates' signatures.

    Output is capped at ``max_pairs_per_band`` (K1) like the verified path:
    window pairs are emitted distance-major (ALL adjacent links first, then
    distance-2, ...) so truncation keeps the connectivity-preserving chain
    and drops only redundant long links.
    """
    nodes = np.unique(group["node"].to_numpy())
    n = nodes.shape[0]
    if n < 2:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    max_band, max_pairs = _pair_limits(cfg)
    if n <= max_band:
        iu, ju = np.triu_indices(n, k=1)
    else:
        w = cfg.pair_window
        d = np.repeat(np.arange(1, w + 1), n)
        iu = np.tile(np.arange(n), w)
        ju = iu + d
        ok = ju < n
        iu, ju = iu[ok], ju[ok]
    if iu.shape[0] > max_pairs:
        iu, ju = iu[:max_pairs], ju[:max_pairs]
    return pa.table({"a": pa.array(nodes[iu]), "b": pa.array(nodes[ju])})


def verify_pairs_by_signature(
    cand, sig_ds, cfg: EngineConfig = DEFAULT_CONFIG, *, gather_max_nodes: int = 2_000_000
):
    """Estimated-Jaccard verification of candidate (a, b) pairs from the
    signature table (the score-threshold rule, ``QdrantRepository.cs:192``).

    Candidate nodes are the duplicate-ish subset (≪ corpus): their packed
    signatures are gathered once (filter + collect, ≈512B each) and the
    whole pair list verified in one vectorized comparison. Above
    ``gather_max_nodes`` callers should use the inline-signature explode
    (``explode_bands`` + ``pair_band_group``) instead.
    """
    import pandas as pd

    if isinstance(cand, pd.DataFrame):
        cand_df = cand
    else:
        cand_df = cand.to_pandas()
    if len(cand_df) == 0:
        return PAIRS_SCHEMA.empty_table()
    a = cand_df["a"].to_numpy()
    b = cand_df["b"].to_numpy()
    nodes_needed = np.unique(np.concatenate([a, b]))
    if nodes_needed.shape[0] > gather_max_nodes:
        raise ValueError(
            f"gather-verify needs {nodes_needed.shape[0]} candidate nodes"
            f" > gather_max_nodes={gather_max_nodes}"
        )

    nodes_all, sigs_all = _gather_candidate_sigs(sig_ds, nodes_needed, cfg)
    # one signature per node (exact-dup rows share identical signatures)
    uniq, first = np.unique(nodes_all, return_index=True)
    sig_mat = sigs_all[first]
    ia = np.searchsorted(uniq, a)
    ib = np.searchsorted(uniq, b)
    ok = (ia < uniq.shape[0]) & (ib < uniq.shape[0])
    ok &= (uniq[np.clip(ia, 0, uniq.shape[0] - 1)] == a) & (
        uniq[np.clip(ib, 0, uniq.shape[0] - 1)] == b
    )
    est = np.zeros(len(a))
    if ok.any():
        est[ok] = (sig_mat[ia[ok]] == sig_mat[ib[ok]]).mean(axis=1)
    keep = est >= (cfg.jaccard_threshold - cfg.verify_margin)
    return pa.table(
        {
            "a": pa.array(a[keep], pa.int64()),
            "b": pa.array(b[keep], pa.int64()),
            "est": pa.array(est[keep], pa.float64()),
            "source": pa.array(["lsh"] * int(keep.sum()), pa.string()),
        }
    )


def _pick_candidate_sigs(block, nodes_s: np.ndarray, num_perm: int):
    """One signature block → (node, sig_matrix) rows for candidate nodes
    (runs as a raw Ray task: extraction + Arrow→NumPy deserialize happen in
    parallel in workers; only the small candidate subset reaches the
    driver)."""
    tbl = block if isinstance(block, pa.Table) else pa.Table.from_batches(block)
    vals = tbl["node"].to_numpy()
    if nodes_s.shape[0] == 0 or vals.shape[0] == 0:
        return np.empty(0, np.int64), np.empty((0, num_perm), np.uint32)
    idx = np.searchsorted(nodes_s, vals)
    idx[idx >= nodes_s.shape[0]] = 0
    mask = nodes_s[idx] == vals
    if not mask.any():
        return np.empty(0, np.int64), np.empty((0, num_perm), np.uint32)
    sub = tbl.filter(pa.array(mask))
    return sub["node"].to_numpy(), minhash_matrix(sub, num_perm)


def _gather_candidate_sigs(sig_ds, nodes_needed: np.ndarray, cfg: EngineConfig):
    """Gather candidate nodes' packed signatures via raw tasks over the
    MATERIALIZED signature table's blocks — no second Dataset executor pass,
    parallel per-block filtering/deserialization (measured ~2.5× faster
    than the filter-stage + driver-iter shape at 1M rows)."""
    import ray

    from europa_ray.util import dataset_block_refs

    refs = dataset_block_refs(sig_ds)
    nodes_ref = ray.put(nodes_needed)
    worker = ray.remote(num_cpus=1)(_pick_candidate_sigs)
    results = ray.get([worker.remote(r, nodes_ref, cfg.num_perm) for r in refs])
    node_list = [r[0] for r in results if r[0].shape[0]]
    sig_list = [r[1] for r in results if r[0].shape[0]]
    if not node_list:
        return np.empty(0, np.int64), np.empty((0, cfg.num_perm), np.uint32)
    return np.concatenate(node_list), np.concatenate(sig_list)


def _pair_hot_driver(
    bk: np.ndarray, nd: np.ndarray, cfg: EngineConfig, max_pairs: int
) -> tuple[np.ndarray, np.ndarray] | int:
    """Vectorized in-memory per-bucket pairing of a (band_key, node) stream
    — the in-memory twin of ``_pair_nodes_group`` (same unique-nodes,
    all-pairs ≤ ``max_band_size``, distance-major window beyond, per-bucket
    ``max_pairs_per_band`` cap), run for ALL buckets in one lexsort + a
    loop over DISTINCT bucket sizes (dozens, not millions). Runs inside
    ``_pair_partition_task`` workers (one hash partition each) so the sort
    cost scales with CPUs.

    Returns the projected pair count (an int) instead when it exceeds
    ``max_pairs`` (caller falls back to the distributed path)."""
    order = np.lexsort((nd, bk))
    bk, nd = bk[order], nd[order]
    keep = np.ones(bk.shape[0], dtype=bool)
    keep[1:] = (bk[1:] != bk[:-1]) | (nd[1:] != nd[:-1])
    bk, nd = bk[keep], nd[keep]
    if bk.shape[0] == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    newb = np.ones(bk.shape[0], dtype=bool)
    newb[1:] = bk[1:] != bk[:-1]
    starts = np.nonzero(newb)[0]
    sizes = np.diff(np.append(starts, bk.shape[0]))

    max_band, band_cap = _pair_limits(cfg)
    small = sizes <= max_band
    proj = int((sizes[small] * (sizes[small] - 1) // 2).sum()) + int(
        np.minimum(sizes[~small] * cfg.pair_window, band_cap).sum()
    )
    if proj > max_pairs:
        return proj

    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    active = small & (sizes >= 2)
    for s in np.unique(sizes[active]):
        st = starts[active & (sizes == s)]
        iu, ju = np.triu_indices(int(s), k=1)
        out_a.append(nd[(st[:, None] + iu[None, :]).ravel()])
        out_b.append(nd[(st[:, None] + ju[None, :]).ravel()])
    for st, s in zip(starts[~small], sizes[~small]):
        seg = nd[st : st + s]
        w = cfg.pair_window
        d = np.repeat(np.arange(1, w + 1), s)
        iu = np.tile(np.arange(s), w)
        ju = iu + d
        ok = ju < s
        iu, ju = iu[ok][:band_cap], ju[ok][:band_cap]
        out_a.append(seg[iu])
        out_b.append(seg[ju])
    if not out_a:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_a), np.concatenate(out_b)


def _pair_partition_worker(
    bk: np.ndarray, nd: np.ndarray, part: int, n_parts: int, cfg: EngineConfig, max_pairs: int
):
    # bk/nd arrive as zero-copy read-only plasma views (one ray.put each,
    # auto-dereferenced); each task selects its own hash partition — no
    # driver-side argsort/slicing and no per-task argument shipping
    mask = (bk & np.int64(n_parts - 1)) == np.int64(part)
    if not mask.any():
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return _pair_hot_driver(bk[mask], nd[mask], cfg, max_pairs)


def _pair_partitioned(
    bk: np.ndarray, nd: np.ndarray, cfg: EngineConfig, max_pairs: int
) -> tuple[np.ndarray, np.ndarray] | int:
    """Per-bucket pairing, parallelized over hash partitions of band_key.

    The sort+pair work is data-proportional; running it as ONE driver
    NumPy pass makes it a CPU-count-constant term that caps scaling
    efficiency (measured 7 s of the 37 s flagship at 480k rows / 8 CPUs).
    Instead the (band_key, node) arrays are put in the object store ONCE
    and each raw Ray task masks out one hash partition of the band key's
    low bits (splitmix-mixed — uniform; every bucket lands wholly in one
    partition) and runs the vectorized per-bucket pairing on it. Raw tasks
    are the right tool here: ``groupby(band_key).map_groups`` pays a full
    sort-shuffle that measured slower than even the driver pass, and a
    driver-side pre-partition (argsort + per-task slices) measured ~3 s of
    CPU-count-constant time at 15M exploded rows.

    Over budget it returns the projected pair count (an int: the sum over
    the partitions that overran, or the total pair count) instead of pairs.
    """
    import ray

    if bk.shape[0] == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    cpus = cluster_cpus()
    n_parts = 1
    while n_parts < min(64, 2 * cpus):
        n_parts *= 2
    bk_ref = ray.put(bk)
    nd_ref = ray.put(nd)
    per_part_budget = max_pairs  # each checks the global cap; sum re-checked
    worker = ray.remote(num_cpus=1)(_pair_partition_worker)
    futs = [
        worker.remote(bk_ref, nd_ref, p, n_parts, cfg, per_part_budget)
        for p in range(n_parts)
    ]
    results = ray.get(futs)
    over = [r for r in results if isinstance(r, int)]
    if over:
        return sum(over)
    a = np.concatenate([r[0] for r in results]) if results else np.empty(0, np.int64)
    b = np.concatenate([r[1] for r in results]) if results else np.empty(0, np.int64)
    if a.shape[0] > max_pairs:
        return int(a.shape[0])
    return a, b


def candidate_pairs(
    sig_ds,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    num_partitions: int | None = None,
    driver_max_cand_rows: int = 20_000_000,
    driver_max_kn_rows: int = 100_000_000,
    return_aux: bool = False,
    verify: bool = True,
):
    """signatures Dataset → verified, deduplicated candidate pairs.

    Default shape (one distributed pass + driver small-data steps): the
    (band_key, node) explode — 16 B/row/band, signatures stay OUT of any
    shuffle — is gathered ONCE (≤ ``driver_max_kn_rows`` rows ≈ 1.6 GB),
    then collision detection, per-bucket pairing and pair dedup all happen
    in vectorized driver NumPy (replacing a groupby(band_key) shuffle that
    cost more wall time than the whole signature stage's fixed overhead),
    followed by the signature-gather verification pass (estimated Jaccard
    ≥ τ). The same gather also yields the exact-duplicate node set free of
    charge (``return_aux``), sparing the member-assembly stage its own
    corpus pass.

    Fallback (any budget exceeded — kn stream, projected pair count, or
    verification gather): the fully distributed inline-signature explode
    (``explode_bands`` → ``pair_band_group``), where pairing AND
    verification happen inside band groups with no driver state
    (equivalence-tested by forcing the budgets to 0). Every fallback logs
    one warning naming the budget and the observed size.

    ``verify=False`` returns the deduplicated UNVERIFIED candidate set
    (schema ``(a, b)``) — the feed for content-level exact verification
    (``cfg.verify_mode='exact'``, pipelines/neardup.py).
    """
    import pandas as pd
    import ray
    import ray.data

    if num_partitions is None:
        num_partitions = default_num_partitions()

    kn = sig_ds.map_batches(
        explode_band_key_nodes, fn_kwargs={"cfg": cfg}, batch_format="pyarrow"
    )

    def _aux(dup_nodes):
        return {"dup_nodes": dup_nodes}

    def _ret(pairs_ds, dup_nodes=None):
        return (pairs_ds, _aux(dup_nodes)) if return_aux else pairs_ds

    def _inline(dup_nodes, why: str, *args):
        _log.warning(
            "candidate_pairs: " + why + "; falling back to the distributed inline band path",
            *args,
        )
        pairs = _candidate_pairs_inline(sig_ds, kn, cfg, num_partitions, verify=verify)
        return _ret(pairs, dup_nodes)

    bk_parts: list[np.ndarray] = []
    nd_parts: list[np.ndarray] = []
    total = 0
    over = False
    for b in kn.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        total += b.num_rows
        if total > driver_max_kn_rows:
            over = True
            break
        bk_parts.append(b["band_key"].to_numpy())
        nd_parts.append(b["node"].to_numpy())
    empty_schema = PAIRS_SCHEMA if verify else CAND_SCHEMA
    if over:
        return _inline(
            None, "(band_key, node) stream reached %d rows > driver_max_kn_rows=%d",
            total, driver_max_kn_rows,
        )
    if not bk_parts:
        return _ret(ray.data.from_arrow(empty_schema.empty_table()), np.empty(0, np.int64))
    bk = np.concatenate(bk_parts)
    nd = np.concatenate(nd_parts)

    # exact-dup node set: the explode emits each row's node effective_bands
    # times CONSECUTIVELY (np.repeat, order-preserving iter), so nd[::b] is
    # one entry per corpus row — sort 1/b of the stream instead of all of it;
    # count ≥ 2 ⇔ rows sharing content (used by member assembly)
    b_ = effective_bands(cfg)
    if nd.shape[0] % b_ == 0 and (
        nd.shape[0] == 0 or (nd[: min(b_, nd.shape[0])] == nd[0]).all()
    ):
        row_nodes = nd[::b_]
    else:  # unexpected layout: fall back to the full stream (count > b)
        row_nodes = None
    if row_nodes is not None:
        rs = np.sort(row_nodes)
        dmask = np.zeros(rs.shape[0], dtype=bool)
        dmask[1:] = rs[1:] == rs[:-1]
        dup_nodes = np.unique(rs[dmask])
    else:
        uniq_nodes, node_counts = np.unique(nd, return_counts=True)
        dup_nodes = uniq_nodes[node_counts > b_]

    paired = _pair_partitioned(bk, nd, cfg, driver_max_cand_rows)
    if isinstance(paired, int):
        return _inline(
            dup_nodes, "%d projected candidate pairs > driver_max_cand_rows=%d",
            paired, driver_max_cand_rows,
        )
    ca, cb = paired
    if ca.shape[0] == 0:
        return _ret(ray.data.from_arrow(empty_schema.empty_table()), dup_nodes)
    order = np.lexsort((cb, ca))
    ca, cb = ca[order], cb[order]
    keep = np.ones(ca.shape[0], dtype=bool)
    keep[1:] = (ca[1:] != ca[:-1]) | (cb[1:] != cb[:-1])
    if not verify:
        cand = pa.table({"a": pa.array(ca[keep]), "b": pa.array(cb[keep])})
        return _ret(ray.data.from_arrow(cand), dup_nodes)
    cand_df = pd.DataFrame({"a": ca[keep], "b": cb[keep]})
    try:
        verified = verify_pairs_by_signature(cand_df, sig_ds, cfg)
    except ValueError as exc:
        return _inline(dup_nodes, "%s", exc)
    return _ret(ray.data.from_arrow(verified), dup_nodes)


def _candidate_pairs_inline(sig_ds, kn, cfg: EngineConfig, num_partitions: int, *, verify: bool = True):
    """Fully distributed fallback: signatures carried through the band
    explode, verification inside each band group (no driver state).
    ``verify=False`` pairs from the metadata-only (band_key, node) explode
    instead (no signature payload) and skips verification."""
    import ray.data

    collisions = (
        kn.select_columns(["band_key"])
        .groupby("band_key")
        .count()
        .rename_columns({"count()": "band_n"})
        .filter(expr="band_n > 1")
        .materialize()  # colliding-band keys only; Ray 2.49 join quirk
    )
    if collisions.count() == 0:
        schema = PAIRS_SCHEMA if verify else CAND_SCHEMA
        return ray.data.from_arrow(schema.empty_table())
    if not verify:
        hot = semi_join_keys(kn, collisions, "band_key", num_partitions=num_partitions)
        pairs = hot.groupby("band_key").map_groups(
            _pair_nodes_group, fn_kwargs={"cfg": cfg}, batch_format="pyarrow"
        )
        # canonical (a, b) dedup, metadata-only distributed aggregate
        return (
            pairs.groupby(["a", "b"]).count().select_columns(["a", "b"])
        )
    bands = sig_ds.map_batches(
        explode_bands, fn_kwargs={"cfg": cfg}, batch_format="pyarrow"
    )
    hot = semi_join_keys(bands, collisions, "band_key", num_partitions=num_partitions)
    pairs = hot.groupby("band_key").map_groups(
        pair_band_group, fn_kwargs={"cfg": cfg}, batch_format="pyarrow"
    )
    return dedupe_pairs(pairs, source="lsh")


def filter_by_key_array(ds, keys: np.ndarray, key_col: str, *, invert: bool = False):
    """Vectorized broadcast semi-join against a SORTED key array
    (``invert=True`` flips it to an anti-join: keep rows whose key is NOT
    in the array)."""
    import ray

    keys_ref = ray.put(keys)

    def filt(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        vals = batch[key_col].to_numpy()
        if ks.shape[0] == 0:
            return batch if invert else batch.slice(0, 0)
        idx = np.searchsorted(ks, vals)
        idx[idx >= ks.shape[0]] = 0
        mask = ks[idx] == vals
        if invert:
            mask = ~mask
        return batch.filter(pa.array(mask))

    return ds.map_batches(filt, batch_format="pyarrow")


def semi_join_keys(
    ds, keys_ds, key_col: str, *, num_partitions: int, broadcast_max: int = 5_000_000
):
    """Keep ``ds`` rows whose ``key_col`` appears in ``keys_ds`` (semi-join).

    The key set is collision-only (≪ exploded rows); below ``broadcast_max``
    keys it is broadcast once via ``ray.put`` and applied as a vectorized
    ``np.isin`` filter — no shuffle, no join-aggregator actor startup.
    Above the threshold it falls back to the distributed hash join.
    """
    import ray

    n_keys = keys_ds.count()
    if n_keys <= broadcast_max:
        key_arrays = [
            b[key_col].to_numpy()
            for b in keys_ds.iter_batches(batch_format="pyarrow", batch_size=1 << 20)
        ]
        keys = np.sort(np.concatenate(key_arrays)) if key_arrays else np.empty(0, np.int64)
        keys_ref = ray.put(keys)

        def filt(batch: pa.Table) -> pa.Table:
            ks = ray.get(keys_ref)
            vals = batch[key_col].to_numpy()
            idx = np.searchsorted(ks, vals)
            idx[idx >= ks.shape[0]] = 0
            mask = ks[idx] == vals if ks.shape[0] else np.zeros(len(vals), bool)
            return batch.filter(pa.array(mask))

        return ds.map_batches(filt, batch_format="pyarrow")
    return ds.join(
        keys_ds, join_type="inner", num_partitions=num_partitions, on=(key_col,)
    )


def dedupe_pairs(pairs_ds, *, source: str | None, driver_max_rows: int = 2_000_000):
    """Canonical (a, b) pair dedup, size-dispatched.

    Verified pair sets are ≪ corpus; below ``driver_max_rows`` a pandas
    groupby on the collected table is orders of magnitude faster than a Ray
    aggregate (whose fixed per-shuffle cost — aggregator actor startup —
    dominated profiling at ~30s regardless of row count). Above the
    threshold, a Ray aggregate on the REAL composite key ``(a, b)`` keeps it
    distributed and exact — a single mixed-key groupby would let a hash
    collision between two distinct pairs fabricate a chimera pair
    (max a of one, max b of the other) and drop both real pairs.
    """
    import pandas as pd
    import ray.data

    pairs_ds = pairs_ds.materialize()
    n = pairs_ds.count()
    if n == 0:
        return pairs_ds
    if n <= driver_max_rows:
        dfs = [
            b.to_pandas()
            for b in pairs_ds.iter_batches(batch_format="pyarrow", batch_size=1 << 20)
        ]
        df = pd.concat(dfs, ignore_index=True)
        if source is None and "source" in df.columns:
            ded = df.sort_values("est", ascending=False).groupby(
                ["a", "b"], as_index=False
            ).agg(est=("est", "max"), source=("source", "first"))
        else:
            ded = df.groupby(["a", "b"], as_index=False).agg(est=("est", "max"))
            ded["source"] = source or "merged"
        return ray.data.from_arrow(pa.Table.from_pandas(ded, preserve_index=False))

    ded = (
        pairs_ds.select_columns(["a", "b", "est"])
        .groupby(["a", "b"])
        .max("est")
        .rename_columns({"max(est)": "est"})
    )

    def add_source(batch: pa.Table) -> pa.Table:
        return batch.append_column("source", pa.array([source] * batch.num_rows, pa.string()))

    return ded.map_batches(add_source, batch_format="pyarrow")
