"""LSH banding, collision detection, in-band candidate pairing and
signature verification.

The analog of Europa's Qdrant ANN retrieval (``/root/reference/Api/Client/
QdrantRepository.cs:184-206``): instead of an external vector index with a
bulk-load/poll-green barrier (``SimilarImageFinder.cs:69-82``), candidates
come from band buckets of the MinHash signatures.

Default path (:func:`candidate_pairs`): a chain of raw tasks linked by
object refs explodes (band_key, node) per signature block, indexes the
nodes densely, pairs, dedups and verifies (the score-threshold rule,
``QdrantRepository.cs:192``) on those indices and runs the union-find on
them, so, like Europa's API process receiving only neighbour ids from the
index, the driver receives only node-sized labels. Above a budget: a
``groupby(band_key)`` shuffle with verification INSIDE the pairing function
from the signatures carried through the explode — no driver-side state.

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
from europa_ray.util import (
    block_tasks,
    cluster_cpus,
    dataset_block_refs,
    default_num_partitions,
    hash_join,
    remote_fn,
    sorted_member,
)

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

# candidate nodes whose signatures verification gathers into one process;
# above it candidate_pairs falls back to the inline band path
GATHER_MAX_NODES = 2_000_000
# pairs compared per step of match_fraction: two 1024 × 128 uint32 gathers
# (1 MiB, cache-sized) whatever the pair count
VERIFY_CHUNK = 1024
# times a word of byte counts, puts their sum (< 256) in the top byte
_BYTE_ONES = np.uint64(0x0101010101010101)


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


def match_fraction(sig: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Estimated Jaccard of each pair (``sig[ia[i]]``, ``sig[ib[i]]``): the
    fraction of equal MinHash slots. Bit-identical to
    ``(sig[ia] == sig[ib]).mean(axis=1)`` (an integer count over the slot
    count either way), but compared :data:`VERIFY_CHUNK` pairs at a time,
    so the gathers never hold more than one chunk of rows.

    With a slot count that is a multiple of 8 and below 256 (the default
    128), the ``==`` mask is summed as uint64 words of eight 0/1 bytes and
    the byte lanes added with one multiply (faster than ``count_nonzero``)."""
    m, p = ia.shape[0], sig.shape[1]
    counts = np.empty(m, np.int64)
    lanes = p % 8 == 0 and p < 256
    for s in range(0, m, VERIFY_CHUNK):
        e = s + VERIFY_CHUNK
        eq = sig[ia[s:e]] == sig[ib[s:e]]
        if lanes:
            words = eq.view(np.uint64).sum(axis=1, dtype=np.uint64)
            counts[s:e] = (words * _BYTE_ONES) >> np.uint64(56)
        else:
            counts[s:e] = np.count_nonzero(eq, axis=1)
    return counts / p


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

    est = match_fraction(sig, iu, ju)
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
            "est": pa.array(est),
            "source": pa.repeat(pa.scalar("lsh"), len(lo)),
        }
    )


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


def band_key_nodes(block: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG):
    """One signature block → (band keys, row nodes): the row-major
    ``(rows × effective_bands)`` band keys, row i's bands contiguous, and
    the block's ``node`` column, one entry per row."""
    if block.num_rows == 0:  # zero-row join blocks may carry no columns
        return np.empty(0, np.int64), np.empty(0, np.int64)
    node = block["node"].to_numpy().astype(np.int64, copy=False)
    if cfg.candidates == "all":
        # one global band: membership only — no MinHash needed at all
        return np.zeros(node.shape[0], np.int64), node
    sig32 = minhash_matrix(block, cfg.num_perm)
    bk = band_keys(sig32.astype(np.uint64), cfg.lsh_bands, cfg.lsh_rows).view(np.int64)
    return bk.ravel(), node


def explode_band_key_nodes(batch: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG) -> pa.Table:
    """(band_key, node) explode — 16 bytes/row/band instead of carrying the
    512-byte signature through the shuffle (candidate generation only needs
    bucket membership; verification re-reads signatures for candidates)."""
    bk, node = band_key_nodes(batch, cfg)
    return pa.table(
        {
            "band_key": pa.array(bk, pa.int64()),
            "node": pa.array(np.repeat(node, effective_bands(cfg)), pa.int64()),
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
    cand, sig_ds, cfg: EngineConfig = DEFAULT_CONFIG, *, gather_max_nodes: int = GATHER_MAX_NODES
):
    """Estimated-Jaccard verification of candidate (a, b) pairs (a
    ``pa.Table`` or pandas DataFrame) from the signature table (the
    score-threshold rule, ``QdrantRepository.cs:192``). Returns the pairs
    that pass, in input order, as a :data:`PAIRS_SCHEMA` table.

    A driver-side entry for callers that hold node ids: one
    ``np.unique(..., return_inverse=True)`` maps them onto dense indices
    for :func:`_verify_indexed`, which ``candidate_pairs``' reduce task
    calls directly with the indices it paired on. Only the candidate nodes'
    packed signatures are gathered (≈512 B each, one raw task per signature
    block), and :func:`match_fraction` compares the pairs chunk by chunk,
    so the temporaries stay a few MiB at any pair count. Above
    ``gather_max_nodes`` candidate nodes it raises ``ValueError``; callers
    then use the inline-signature explode (``explode_bands`` +
    ``pair_band_group``).
    """
    import ray

    a = np.asarray(cand["a"], np.int64)
    b = np.asarray(cand["b"], np.int64)
    if a.shape[0] == 0:
        return PAIRS_SCHEMA.empty_table()
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)

    def gather(needed: np.ndarray):
        picked = ray.get(block_tasks(sig_ds, _pick_candidate_sigs, needed, cfg.num_perm))
        return _concat_picked(picked, cfg.num_perm)

    keep, est = _verify_indexed(
        gather, nodes, inv[: a.shape[0]], inv[a.shape[0] :], cfg,
        gather_max_nodes=gather_max_nodes,
    )
    return _pairs_table(a[keep], b[keep], est[keep])


def _pairs_table(a: np.ndarray, b: np.ndarray, est: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "est": pa.array(est, pa.float64()),
            "source": pa.repeat(pa.scalar("lsh"), a.shape[0]),
        }
    )


def _verify_indexed(
    gather, node_ids: np.ndarray, ia: np.ndarray, ib: np.ndarray,
    cfg: EngineConfig, *, gather_max_nodes: int = GATHER_MAX_NODES,
) -> tuple[np.ndarray, np.ndarray]:
    """Verification of the pairs ``(node_ids[ia], node_ids[ib])`` given on
    indices into the SORTED distinct ``node_ids``: returns ``(keep, est)``
    over the input pairs. The nodes some pair uses are marked in one
    scatter (no sort), only their signatures are gathered
    (``gather(sorted nodes) -> (node, signature matrix)`` rows, a node
    possibly repeated), and their rank among the marked nodes is the row
    of the signature matrix. Raises ``ValueError`` above
    ``gather_max_nodes`` marked nodes."""
    used = np.zeros(node_ids.shape[0], bool)
    used[ia] = True
    used[ib] = True
    nodes = node_ids[used]
    if nodes.shape[0] > gather_max_nodes:
        raise ValueError(
            f"gather-verify needs {nodes.shape[0]} candidate nodes"
            f" > gather_max_nodes={gather_max_nodes}"
        )
    rank = np.cumsum(used) - 1
    ia, ib = rank[ia], rank[ib]

    got_nodes, got_sigs = gather(nodes)
    # one signature per node (exact-dup rows share identical signatures)
    uniq, first = np.unique(got_nodes, return_index=True)
    sig = np.zeros((nodes.shape[0], cfg.num_perm), np.uint32)
    sig[np.searchsorted(nodes, uniq)] = got_sigs[first]
    est = match_fraction(sig, ia, ib)
    if uniq.shape[0] < nodes.shape[0]:  # a node without a signature matches nothing
        found = np.isin(nodes, uniq, assume_unique=True)
        est[~(found[ia] & found[ib])] = 0.0
    return est >= (cfg.jaccard_threshold - cfg.verify_margin), est


def _pick_candidate_sigs(tbl: pa.Table, nodes_s: np.ndarray, num_perm: int):
    """One signature block → (node, sig_matrix) rows for the candidate nodes
    in the sorted ``nodes_s``."""
    mask = sorted_member(nodes_s, tbl["node"].to_numpy()) if tbl.num_rows else []
    if not np.any(mask):  # zero-row join blocks may carry no columns
        return np.empty(0, np.int64), np.empty((0, num_perm), np.uint32)
    sub = tbl.filter(pa.array(mask))
    return sub["node"].to_numpy(), minhash_matrix(sub, num_perm)


def _concat_picked(picked: list, num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-block :func:`_pick_candidate_sigs` results as one
    (node, sig_matrix) pair."""
    picked = [r for r in picked if r[0].shape[0]]
    if not picked:
        return np.empty(0, np.int64), np.empty((0, num_perm), np.uint32)
    return np.concatenate([r[0] for r in picked]), np.concatenate([r[1] for r in picked])


def _bucket_pair_keys(
    bk: np.ndarray, nd: np.ndarray, n_nodes: int, cfg: EngineConfig, max_pairs: int
) -> np.ndarray | int:
    """Vectorized in-memory per-bucket pairing of a (band_key, node index)
    stream — the in-memory twin of ``_pair_nodes_group`` (same
    unique-nodes, all-pairs ≤ ``max_band_size``, distance-major window
    beyond, and the same ``max_pairs_per_band`` cap on every bucket,
    keeping its first pairs in emission order) — returning the sorted
    distinct pair keys ``a * n_nodes + b`` (a < b; uint64, so below 2^32
    nodes). Runs inside ``_pair_partition_worker`` tasks
    (one hash partition each) so the sort cost scales with CPUs.

    One ``np.unique`` of ``bucket_rank * n_nodes + node`` (buckets ranked
    by an argsort of the band key, cheaper than a 2-key lexsort) groups the
    rows, orders each bucket's nodes and drops repeats; pairs are emitted
    for all buckets of one size at a time.

    Returns the projected pair count (an int) instead when it exceeds
    ``max_pairs`` (caller falls back to the distributed path)."""
    if n_nodes >= 1 << 32:
        raise ValueError(f"{n_nodes} nodes: a pair key no longer fits uint64")
    if bk.shape[0] == 0:
        return np.empty(0, np.uint64)
    order = np.argsort(bk)
    newb = np.ones(bk.shape[0], dtype=bool)
    newb[1:] = bk[order[1:]] != bk[order[:-1]]
    rank = np.empty(bk.shape[0], np.int64)
    rank[order] = np.cumsum(newb) - 1
    bucket, nd = np.divmod(np.unique(rank * n_nodes + nd), n_nodes)
    newb = np.ones(bucket.shape[0], dtype=bool)
    newb[1:] = bucket[1:] != bucket[:-1]
    starts = np.flatnonzero(newb)
    sizes = np.diff(np.append(starts, bucket.shape[0]))

    max_band, band_cap = _pair_limits(cfg)
    small = sizes <= max_band
    proj = int(np.minimum(sizes[small] * (sizes[small] - 1) // 2, band_cap).sum()) + int(
        np.minimum(sizes[~small] * cfg.pair_window, band_cap).sum()
    )
    if proj > max_pairs:
        return proj

    nk = nd.astype(np.uint64)
    mult = np.uint64(n_nodes)
    out: list[np.ndarray] = [np.empty(0, np.uint64)]
    active = small & (sizes >= 2)
    for s in np.unique(sizes[active]):
        seg = nk[starts[active & (sizes == s)][:, None] + np.arange(s)]  # (buckets, s)
        iu, ju = np.triu_indices(int(s), k=1)
        iu, ju = iu[:band_cap], ju[:band_cap]  # the first pairs in triu order
        out.append((seg[:, iu] * mult + seg[:, ju]).ravel())
    for st, s in zip(starts[~small], sizes[~small]):
        seg = nk[st : st + s]
        w = cfg.pair_window
        d = np.repeat(np.arange(1, w + 1), s)
        iu = np.tile(np.arange(s), w)
        ju = iu + d
        ok = ju < s
        iu, ju = iu[ok][:band_cap], ju[ok][:band_cap]
        out.append(seg[iu] * mult + seg[ju])
    return np.unique(np.concatenate(out))


def unpack_pair_keys(keys: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) int64 index arrays of pair keys; sorted keys give pairs sorted
    by (a, b)."""
    a, b = np.divmod(keys, keys.dtype.type(n_nodes))
    return a.astype(np.int64), b.astype(np.int64)


def _pair_partition_worker(
    bk: np.ndarray, nd: np.ndarray, n_nodes: int, part: int, n_parts: int,
    cfg: EngineConfig, max_pairs: int,
):
    # bk/nd arrive as zero-copy read-only plasma views (one ray.put each,
    # auto-dereferenced); each task selects its own hash partition — no
    # driver-side argsort/slicing and no per-task argument shipping
    mask = (bk & np.int64(n_parts - 1)) == np.int64(part)
    return _bucket_pair_keys(bk[mask], nd[mask], n_nodes, cfg, max_pairs)


def _pair_partition_tasks(bk, nd, n_nodes, cfg: EngineConfig, max_pairs: int) -> list:
    """One raw :func:`_pair_partition_worker` task per hash partition of the
    band key (``2 × CPUs``, a power of two, at most 64); the arguments may be
    object refs. Returns the tasks' refs."""
    n_parts = 1
    while n_parts < min(64, 2 * cluster_cpus()):
        n_parts *= 2
    # each checks the global cap; the merge re-checks the sum
    worker = remote_fn(_pair_partition_worker)
    return [worker.remote(bk, nd, n_nodes, p, n_parts, cfg, max_pairs) for p in range(n_parts)]


def _merge_pair_keys(results, max_pairs: int) -> np.ndarray | int:
    """The partitions' sorted distinct pair keys merged into one sorted
    distinct array (a pair that collides in buckets of two partitions is
    shipped by both), or the projected pair count when over ``max_pairs``:
    the sum over the partitions that overran, or the total shipped key
    count."""
    over = [r for r in results if isinstance(r, int)]
    if over:
        return sum(over)
    n_keys = sum(r.shape[0] for r in results)
    if n_keys > max_pairs:
        return n_keys
    return np.unique(np.concatenate(results))


def _pair_partitioned(
    bk: np.ndarray, nd: np.ndarray, n_nodes: int, cfg: EngineConfig, max_pairs: int
) -> np.ndarray | int:
    """Per-bucket pairing of driver-held arrays, parallelized over hash
    partitions of band_key; ``nd`` holds dense node indices below
    ``n_nodes``. Returns the sorted distinct pair keys
    (:func:`_bucket_pair_keys`; unpack with :func:`unpack_pair_keys`), or
    the projected pair count (an int) over budget.

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

    Each task ships its partition's distinct pair keys (a pair repeats in
    up to ``lsh_bands`` buckets: hot-families makes 2,069,670 band pairs
    for 439,657 distinct ones); :func:`_merge_pair_keys` removes the pairs
    that collide in buckets of different partitions. ``candidate_pairs``
    runs the same tasks on its index task's refs and merges in its reduce
    task; the embedding ANN pairer calls this entry.
    """
    import ray

    if bk.shape[0] == 0:
        return np.empty(0, np.uint64)
    refs = _pair_partition_tasks(ray.put(bk), ray.put(nd), n_nodes, cfg, max_pairs)
    return _merge_pair_keys(ray.get(refs), max_pairs)


def _index_nodes(n_bands: int, *parts) -> tuple:
    """The index task: :func:`band_key_nodes` outputs of every signature
    block → ``(band keys, dense node index per band key, node_ids,
    dup_nodes, n_nodes)``. ``node_ids`` are the sorted distinct nodes,
    whose positions are the dense indices; ``dup_nodes`` the nodes on two
    or more rows (one content, so an exact-duplicate group; member
    assembly uses them)."""
    bk, row_nodes = (
        np.concatenate([p[i] for p in parts] + [np.empty(0, np.int64)]) for i in (0, 1)
    )
    rs = np.sort(row_nodes)
    newn = np.ones(rs.shape[0], dtype=bool)
    newn[1:] = rs[1:] != rs[:-1]
    node_ids = rs[newn]
    nd = np.repeat(np.searchsorted(node_ids, row_nodes), n_bands)
    return bk, nd, node_ids, np.unique(rs[~newn]), node_ids.shape[0]


def _reduce_pairs(
    node_ids: np.ndarray, cfg: EngineConfig, max_pairs: int, gather_max_nodes: int,
    verify: bool, want_labels: bool, n_parts: int, *args,
) -> tuple:
    """The reduce task: ``args`` are the ``n_parts`` pairing partitions'
    results, then the signature blocks (only with ``verify``). Merges the
    partitions' pair keys, gathers the candidate nodes' signatures from the
    blocks, verifies (:func:`_verify_indexed`) and, with ``want_labels``
    and at most ``cfg.cc_driver_max_edges`` verified pairs, runs
    :func:`components_dense` on the dense index.

    Returns ``(pairs, labels, overrun)``: the pair table (verified
    :data:`PAIRS_SCHEMA`, or the unverified :data:`CAND_SCHEMA` candidates
    without ``verify``); the ``(node, label)`` arrays sorted by node, or
    None; and None, or the message naming the budget a fallback must
    report (then the table is empty)."""
    from ray.data.block import BlockAccessor

    from europa_ray.state.unionfind import components_dense

    n = node_ids.shape[0]
    schema = PAIRS_SCHEMA if verify else CAND_SCHEMA
    keys = _merge_pair_keys(args[:n_parts], max_pairs)
    if isinstance(keys, int):
        why = f"{keys} projected candidate pairs > driver_max_cand_rows={max_pairs}"
        return schema.empty_table(), None, why
    ia, ib = unpack_pair_keys(keys, n)
    if not verify:
        return pa.table({"a": pa.array(node_ids[ia]), "b": pa.array(node_ids[ib])}), None, None

    def gather(needed: np.ndarray):
        picked = [
            _pick_candidate_sigs(BlockAccessor.for_block(b).to_arrow(), needed, cfg.num_perm)
            for b in args[n_parts:]
        ]
        return _concat_picked(picked, cfg.num_perm)

    est = np.empty(0, np.float64)
    if ia.shape[0]:
        try:
            keep, est = _verify_indexed(
                gather, node_ids, ia, ib, cfg, gather_max_nodes=gather_max_nodes
            )
        except ValueError as exc:
            return schema.empty_table(), None, str(exc)
        ia, ib, est = ia[keep], ib[keep], est[keep]
    labels = None
    if want_labels and ia.shape[0] <= cfg.cc_driver_max_edges:
        node, label = components_dense(n, ia, ib)
        labels = node_ids[node], node_ids[label]
    return _pairs_table(node_ids[ia], node_ids[ib], est), labels, None


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

    Default shape: a chain of raw Ray tasks linked by object refs, so no
    pair- or signature-sized array passes through the driver (the driver
    only submits the tasks):

    - one band-key task per signature block (:func:`band_key_nodes`;
      signatures stay OUT of any shuffle);
    - one index task (:func:`_index_nodes`): the sorted distinct nodes
      ``node_ids``, each band key's dense, order-keeping index into them,
      and the exact-duplicate node set ``dup_nodes``;
    - the pairing partitions over the band keys (:func:`_pair_partition_tasks`),
      each shipping its distinct packed pair keys;
    - one reduce task (:func:`_reduce_pairs`): key merge, candidate
      signature gather from the signature block refs, verification
      (estimated Jaccard ≥ τ − margin, :func:`_verify_indexed`) and, for
      ``return_aux``, the union-find (:func:`components_dense`) on the
      dense index up to ``cfg.cc_driver_max_edges`` verified pairs.

    The pair table stays in the object store (the returned Dataset wraps
    the reduce task's ref). The driver fetches only node-sized results:
    with ``return_aux``, ``aux["dup_nodes"]`` (sparing member assembly its
    own corpus pass) and, when the reduce ran the union-find,
    ``aux["labels"]``, the ``(node, label)`` arrays sorted by node.

    Fallback (a budget exceeded — the kn stream of ``rows × bands``, read
    from block metadata before any task runs; the projected pair count,
    ``driver_max_cand_rows``; the candidate nodes to gather,
    :data:`GATHER_MAX_NODES`, both checked by the reduce task and reported
    back): the fully distributed inline-signature explode
    (``explode_bands`` → ``pair_band_group``), where pairing AND
    verification happen inside band groups (equivalence-tested by forcing
    the budgets to 0). Every fallback logs one warning naming the budget
    and the observed size; its aux holds ``dup_nodes`` only.

    ``verify=False`` returns the deduplicated UNVERIFIED candidate set
    (schema ``(a, b)``) — the feed for content-level exact verification
    (``cfg.verify_mode='exact'``, pipelines/neardup.py).
    """
    import ray
    import ray.data

    if num_partitions is None:
        num_partitions = default_num_partitions()
    sig_ds = sig_ds.materialize()
    aux: dict = {"dup_nodes": None}

    def _ret(pairs_ds):
        return (pairs_ds, aux) if return_aux else pairs_ds

    def _inline(why: str, *args):
        _log.warning(
            "candidate_pairs: " + why + "; falling back to the distributed inline band path",
            *args,
        )
        kn = sig_ds.map_batches(
            explode_band_key_nodes, fn_kwargs={"cfg": cfg}, batch_format="pyarrow"
        )
        return _ret(_candidate_pairs_inline(sig_ds, kn, cfg, num_partitions, verify=verify))

    b_ = effective_bands(cfg)
    n_kn = sig_ds.count() * b_
    if n_kn > driver_max_kn_rows:
        return _inline(
            "(band_key, node) stream of %d rows > driver_max_kn_rows=%d",
            n_kn, driver_max_kn_rows,
        )
    # pair on dense node indices: they keep node order, so the pairs and
    # their order are the ones node ids give
    bk, nd, node_ids, dup_nodes, n = (
        remote_fn(_index_nodes).options(num_returns=5)
        .remote(b_, *block_tasks(sig_ds, band_key_nodes, cfg))
    )
    parts = _pair_partition_tasks(bk, nd, n, cfg, driver_max_cand_rows)
    blocks = dataset_block_refs(sig_ds) if verify else []
    pairs, labels, overrun = remote_fn(_reduce_pairs).options(num_returns=3).remote(
        node_ids, cfg, driver_max_cand_rows, GATHER_MAX_NODES, verify, return_aux,
        len(parts), *parts, *blocks,
    )
    if return_aux:
        aux["dup_nodes"] = ray.get(dup_nodes)
    why = ray.get(overrun)
    if why is not None:
        return _inline("%s", why)
    if return_aux and verify:
        labels = ray.get(labels)
        if labels is not None:
            aux["labels"] = labels
    return _ret(ray.data.from_arrow_refs(pairs))


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
        mask = sorted_member(ray.get(keys_ref), batch[key_col].to_numpy())
        return batch.filter(pa.array(~mask if invert else mask))

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
            mask = sorted_member(ray.get(keys_ref), batch[key_col].to_numpy())
            return batch.filter(pa.array(mask))

        return ds.map_batches(filt, batch_format="pyarrow")
    return hash_join(ds, keys_ds, "inner", (key_col,), num_partitions=num_partitions)


def dedupe_pair_arrays(
    a: np.ndarray, b: np.ndarray, *, canonical: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (a, b) pairs of two int64 id arrays, sorted by (a, b):
    the table ``np.lexsort((b, a))`` plus an adjacent-duplicate drop gives,
    from ONE sort of the packed int64 key ``a' * N + b'``. ``canonical``
    first orders each pair as (min, max); directed pairs pass ``False``.

    Ids whose range spans N < 2^31.5 values (dense indices, row ids) pack by
    their offset from the smallest id. Wider ids are first replaced by their
    rank among the distinct ids (one ``np.unique``, which keeps their order);
    a key needs N² < 2^63, so more than ~3·10⁹ distinct ids raise
    ``ValueError``."""
    a = np.asarray(a, np.int64)
    b = np.asarray(b, np.int64)
    if canonical:
        a, b = np.minimum(a, b), np.maximum(a, b)
    if a.shape[0] == 0:
        return a, b
    lo = min(int(a.min()), int(b.min()))
    n = max(int(a.max()), int(b.max())) - lo + 1
    if n * n < 1 << 63:
        x, y = np.divmod(np.unique((a - lo) * n + (b - lo)), n)
        return x + lo, y + lo
    ids, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    n = ids.shape[0]
    if n * n >= 1 << 63:
        raise ValueError(f"{n} distinct ids: an (a, b) pair no longer packs into int64")
    x, y = np.divmod(np.unique(inv[: a.shape[0]] * n + inv[a.shape[0] :]), n)
    return ids[x], ids[y]


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
