"""Incremental cross-run signature + pair cache (J1/J2/SO2).

The reference's defining durable behavior: its Qdrant collection doubles as
a cross-run cache — a cached signature skips recompute per group
(``/root/reference/Api/Implementations/SimilarImages/SimilarImageFinder.cs:
167-178``, ``Api/Client/QdrantRepository.cs:82-103``) and cached neighbor
edges skip the ANN re-query (``QdrantRepository.cs:158-182``), with new
pairs anti-joined against persisted ones (``MatchExcept``,
``QdrantRepository.cs:193-194`` — SO2 query-side exclusion).

Engine equivalents, as plain partitioned Parquet under a cache root:

- ``signatures/``: one row per distinct content node
  (node, sha256, n_tokens, minhash, simhash). On re-run, every row is
  hashed (sha256 is the node identity — unavoidable and cheap) but
  tokenize/shingle/MinHash/SimHash run ONLY for nodes not in the cache;
  cached nodes get their payload re-attached via broadcast lookup
  (distributed hash join above a size threshold). A grown corpus therefore
  computes only the delta.
- ``pairs/``: verified (a, b, est, source) edges. New candidate pairs are
  anti-joined against the persisted set (SO2) — only genuinely new edges
  are "new"; the union of cached + fresh edges feeds CC.

Every cache I/O step is size-dispatched like the rest of the engine:
driver-vectorized below an explicit row budget, Dataset-distributed above
it (delta writes via ``ds.write_parquet``, the pair anti-join via a
``left_outer`` hash join) — no unguarded driver gathers. The distributed
paths are forced-budget-0 equivalence-tested.

Cache invariant: the signature cache holds AT MOST ONE row per node —
both write shapes deduplicate by node before appending, and only nodes
absent at run start are ever written, so cross-run duplicates cannot
occur. The attach join relies on this.

Cache keying: the cache root is suffixed with the config fingerprint —
signatures under different shingle/permutation configs never mix.
:func:`compact_cache` merges accumulated per-run part files;
:func:`gc_cache` prunes cache dirs whose fingerprint no longer matches
any live config.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from europa_ray.config import DEFAULT_CONFIG, EngineConfig
from europa_ray.sources.files import read_files

SIG_PAYLOAD_COLS = ("node", "sha256", "n_tokens", "minhash", "simhash")


def _cache_files(d: str) -> list[str]:
    return sorted(glob.glob(os.path.join(d, "*.parquet")))


def _cache_num_rows(d: str) -> int:
    """Total cached rows from Parquet footers only (no data read)."""
    return sum(pq.ParquetFile(f).metadata.num_rows for f in _cache_files(d))


def _filter_flag(ds, want: bool, col: str = "from_cache"):
    """Vectorized boolean-column filter (no expr-parser dependence)."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        mask = batch[col] if want else pc.invert(batch[col])
        return batch.filter(mask)

    return ds.map_batches(f, batch_format="pyarrow")


def _sig_cfg_fingerprint(cfg: EngineConfig) -> str:
    """Signature-relevant config only: filters/thresholds don't change what
    a node's signature IS."""
    from europa_ray.state.manifest import fingerprint_of

    return fingerprint_of(
        "sig-v2",
        cfg.seed,
        cfg.num_perm,
        cfg.shingle_k,
        cfg.max_sig_tokens,
        cfg.simhash_bits,
        cfg.minhash_mode,
        cfg.fuzzy_algo,
    )


def cached_nodes(sig_cache_dir: str) -> np.ndarray:
    """Sorted int64 node ids present in the signature cache."""
    files = _cache_files(sig_cache_dir)
    if not files:
        return np.empty(0, dtype=np.int64)
    parts = [pq.read_table(f, columns=["node"])["node"].to_numpy() for f in files]
    return np.unique(np.concatenate(parts))


def incremental_signatures(
    files,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    id_cols: tuple[str, ...] = ("repo", "path", "commit"),
    cache_root: str,
    broadcast_max_nodes: int = 5_000_000,
    driver_max_rows: int = 2_000_000,
):
    """Signature table with cross-run reuse.

    Returns ``(sigs_dataset, counters)`` where counters records
    ``sig_nodes_cached`` (reused) and ``sig_nodes_computed`` (the delta) —
    the test hook for "only the delta was re-signatured".

    ``driver_max_rows`` bounds the delta-write driver gather;
    ``broadcast_max_nodes`` bounds the cached-payload broadcast. Above
    either, the distributed shape takes over (equivalence-tested at
    budget 0).
    """
    import ray

    from europa_ray.stages.filters import apply_filters
    from europa_ray.stages.hash_stage import add_sha256
    from europa_ray.stages.signatures import signature_task
    from europa_ray.util import hex_to_u64

    sig_dir = os.path.join(cache_root, "signatures-" + _sig_cfg_fingerprint(cfg))
    os.makedirs(sig_dir, exist_ok=True)
    known = cached_nodes(sig_dir)
    known_ref = ray.put(known)

    ds = apply_filters(files, cfg)

    def split_and_sign(batch: pa.Table) -> pa.Table:
        """Hash every row; run the full signature kernel only for rows whose
        node is NOT cached. Cached rows carry null payloads (re-attached
        from the cache afterwards). Empty batches flow through the same
        construction, so every block shares one schema and column order:
        (*id_cols, sha256, node, n_tokens, minhash, simhash, from_cache)."""
        kn = ray.get(known_ref)
        hashed = add_sha256(batch, drop_content=False, keep_cols=(*id_cols, "content"))
        node = hex_to_u64(hashed["sha256"].to_pylist()).view(np.int64)
        if kn.shape[0] and node.shape[0]:
            idx = np.searchsorted(kn, node)
            idx[idx >= kn.shape[0]] = 0
            cached = kn[idx] == node
        else:
            cached = np.zeros(node.shape[0], dtype=bool)

        new_part = hashed.filter(pa.array(~cached))
        old_part = hashed.filter(pa.array(cached))
        sigs_new = signature_task(new_part, cfg, id_cols=id_cols)
        out_cols = [*sigs_new.column_names, "from_cache"]
        sigs_new = sigs_new.append_column(
            "from_cache", pa.array(np.zeros(sigs_new.num_rows, dtype=bool))
        )
        if old_part.num_rows == 0:
            return sigs_new
        t = old_part.select(
            [c for c in (*id_cols, "sha256") if c in old_part.column_names]
        )
        t = t.append_column("node", pa.array(node[cached]))
        t = t.append_column("n_tokens", pa.array([None] * t.num_rows, pa.int64()))
        t = t.append_column("minhash", pa.array([None] * t.num_rows, pa.binary()))
        t = t.append_column("simhash", pa.array([None] * t.num_rows, pa.int64()))
        t = t.append_column("from_cache", pa.array(np.ones(t.num_rows, dtype=bool)))
        return pa.concat_tables(
            [sigs_new, t.select(out_cols)], promote_options="default"
        )

    allrows = ds.map_batches(split_and_sign, batch_size=cfg.batch_size,
                             batch_format="pyarrow").materialize()

    # persist the delta: one cache row per distinct NEW node
    new_rows = _filter_flag(allrows, False)
    new_nodes_written = _append_distinct_sigs(
        new_rows, sig_dir, driver_max_rows=driver_max_rows
    )

    n_total = allrows.count()
    n_cached_rows = _filter_flag(allrows, True).count()

    # re-attach cached payloads
    if known.shape[0] == 0:
        sigs = allrows.drop_columns(["from_cache"])
    else:
        sigs = _attach_cached_payloads(
            allrows, sig_dir, broadcast_max_nodes=broadcast_max_nodes
        )
    counters = {
        "rows_in": float(n_total),
        "rows_from_cache": float(n_cached_rows),
        "sig_nodes_computed": float(new_nodes_written),
        "sig_nodes_cached": float(known.shape[0]),
    }
    return sigs, counters


def distinct_by_node(ds, *, driver_max_dup_rows: int = 2_000_000):
    """Distributed one-row-per-node distinct over a signature-payload
    Dataset, without per-group Python over millions of groups.

    Rows sharing a node are IDENTICAL by construction (node = content
    digest; payloads are deterministic functions of content), so the
    dispatch exploits it: rows with globally-unique nodes stream through a
    vectorized filter untouched; only rows of DUPLICATED nodes (≪ total —
    corpus-internal dups of the delta) are gathered and first-occurrence
    deduped on the driver. If even the duplicated subset exceeds
    ``driver_max_dup_rows``, a per-group first-row ``map_groups`` over
    that subset (already small relative to the corpus) is the last resort.

    Returns ``(distinct_dataset, n_distinct_rows)``.
    """
    import ray.data

    from europa_ray.stages.lsh import duplicated_keys, filter_by_key_array

    ds = ds.materialize()
    total = ds.count()
    if total == 0:
        return ds, 0
    dups = duplicated_keys(ds.select_columns(["node"]), "node")
    if dups is None:  # key stream over driver budget: distributed count
        counts = (
            ds.select_columns(["node"])
            .groupby("node")
            .count()
            .rename_columns({"count()": "n"})
            .materialize()
        )
        dup_only = _filter_gt1(counts).materialize()
        parts = [
            b["node"].to_numpy()
            for b in dup_only.iter_batches(batch_format="pyarrow", batch_size=1 << 20)
        ]
        dups = np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)
    if dups.shape[0] == 0:
        return ds, total

    clean = filter_by_key_array(ds, dups, "node", invert=True)
    dup_rows = filter_by_key_array(ds, dups, "node").materialize()
    n_dup_rows = dup_rows.count()
    if n_dup_rows <= driver_max_dup_rows:
        tbl = pa.concat_tables(
            list(dup_rows.iter_batches(batch_format="pyarrow", batch_size=1 << 20))
        )
        nodes = tbl["node"].to_numpy()
        _, first = np.unique(nodes, return_index=True)
        ded_tbl = tbl.take(pa.array(np.sort(first)))
        ded = ray.data.from_arrow(ded_tbl)
        n_ded = ded_tbl.num_rows
    else:  # pathological: nearly everything duplicated

        def first_row(group: pa.Table) -> pa.Table:
            return group.slice(0, 1)

        ded = dup_rows.groupby("node").map_groups(
            first_row, batch_format="pyarrow"
        ).materialize()
        n_ded = ded.count()
    return clean.union(ded), total - n_dup_rows + n_ded


def _filter_gt1(counts_ds, col: str = "n"):
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch[col], 1))

    return counts_ds.map_batches(f, batch_format="pyarrow")


def _append_distinct_sigs(new_rows, sig_dir: str, *, driver_max_rows: int = 2_000_000) -> int:
    """Write one cache row per distinct new node; returns how many.

    Driver shape (≤ ``driver_max_rows``): guarded gather + one vectorized
    ``np.unique`` first-occurrence dedupe + one Parquet part. Distributed
    shape: :func:`distinct_by_node` + ``ds.write_parquet`` straight into
    the cache dir (unique part names; never through the driver)."""
    import uuid

    sel = new_rows.map_batches(
        lambda b: b.select(list(SIG_PAYLOAD_COLS)), batch_format="pyarrow"
    )
    parts: list[pa.Table] = []
    total = 0
    over = False
    for b in sel.iter_batches(batch_format="pyarrow", batch_size=65536):
        total += b.num_rows
        if total > driver_max_rows:
            over = True
            break
        if b.num_rows:
            parts.append(b)
    if not over:
        if not parts:
            return 0
        tbl = pa.concat_tables(parts)
        nodes = tbl["node"].to_numpy()
        _, first = np.unique(nodes, return_index=True)
        ded = tbl.take(pa.array(np.sort(first)))
        pq.write_table(ded, os.path.join(sig_dir, f"part-{uuid.uuid4().hex}.parquet"))
        return ded.num_rows

    ded, n_distinct = distinct_by_node(sel)
    if n_distinct:
        ded.write_parquet(sig_dir)
    return n_distinct


def _attach_cached_payloads(allrows, sig_dir: str, *, broadcast_max_nodes: int):
    """Fill null payloads of cached rows from the cache parquet.

    Broadcast path (cache ≤ ``broadcast_max_nodes`` rows, counted from
    Parquet footers): sorted node array + packed payload arrays via
    ``ray.put``, searchsorted per batch. Above the threshold the cache is
    NEVER driver-loaded: a Dataset hash join on node (payloads are plain
    binary — Acero-safe), with both union sides selected into the same
    column order (mixed block schemas break downstream consumers)."""
    import ray
    import ray.data

    out_cols = [c for c in allrows.schema().base_schema.names if c != "from_cache"]

    if _cache_num_rows(sig_dir) <= broadcast_max_nodes:
        files = _cache_files(sig_dir)
        cache_tbl = pa.concat_tables([pq.read_table(f) for f in files])
        nodes = cache_tbl["node"].to_numpy()
        order = np.argsort(nodes)
        nodes = nodes[order]
        n_tok = cache_tbl["n_tokens"].to_numpy()[order]
        sim = cache_tbl["simhash"].to_numpy()[order]
        mh = cache_tbl["minhash"].combine_chunks().take(pa.array(order))
        payload_ref = ray.put((nodes, n_tok, sim, mh))

        def fill(batch: pa.Table) -> pa.Table:
            kn, ktok, ksim, kmh = ray.get(payload_ref)
            from_cache = batch["from_cache"].to_numpy(zero_copy_only=False)
            out = batch.drop_columns(["from_cache"])
            if not from_cache.any():
                return out.select(out_cols)
            node = batch["node"].to_numpy()
            idx = np.searchsorted(kn, node)
            idx[idx >= kn.shape[0]] = 0
            hit = (kn[idx] == node) & from_cache
            # cached rows MUST hit (their node came from the cache).
            # fill_null BEFORE to_numpy: a null-bearing int64 column converts
            # to float64 (NaN for null), silently corrupting 64-bit values
            import pyarrow.compute as pc

            n_tokens = pc.fill_null(batch["n_tokens"], 0).to_numpy(zero_copy_only=False).astype(np.int64)
            simhash = pc.fill_null(batch["simhash"], 0).to_numpy(zero_copy_only=False).astype(np.int64)
            n_tokens = np.where(hit, ktok[idx], n_tokens)
            simhash = np.where(hit, ksim[idx], simhash)
            mh_col = batch["minhash"].combine_chunks()
            take_idx = np.where(hit, idx, 0)
            filled_mh = kmh.take(pa.array(take_idx))
            try:
                mh_out = pc.if_else(pa.array(hit), filled_mh, mh_col)
            except pa.ArrowNotImplementedError:  # binary if_else fallback
                mh_out = pa.array(
                    [
                        filled_mh[i].as_py() if h else mh_col[i].as_py()
                        for i, h in enumerate(hit)
                    ],
                    type=pa.binary(),
                )
            out = out.set_column(out.column_names.index("n_tokens"), "n_tokens", pa.array(n_tokens))
            out = out.set_column(out.column_names.index("simhash"), "simhash", pa.array(simhash))
            out = out.set_column(out.column_names.index("minhash"), "minhash", mh_out)
            return out.select(out_cols)

        return allrows.map_batches(fill, batch_format="pyarrow")

    # big-cache path: distributed hash join on node (cache is node-unique
    # by the write invariant, so the inner join is row-preserving)
    from europa_ray.util import hash_join

    cached_side = read_files(
        sig_dir, columns=["node", "n_tokens", "minhash", "simhash"]
    ).materialize()
    old = _filter_flag(allrows, True).drop_columns(
        ["from_cache", "n_tokens", "minhash", "simhash"]
    )
    new = _filter_flag(allrows, False).drop_columns(["from_cache"])
    joined = hash_join(old, cached_side, "inner", ("node",))

    def align(batch: pa.Table) -> pa.Table:
        return batch.select(out_cols)

    return new.map_batches(align, batch_format="pyarrow").union(
        joined.map_batches(align, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# pair cache (J2 / SO2)
# ---------------------------------------------------------------------------

def cached_pairs_table(pairs_dir: str) -> pa.Table | None:
    files = _cache_files(pairs_dir)
    if not files:
        return None
    return pa.concat_tables([pq.read_table(f) for f in files])


def known_pairs_mask(
    ca: np.ndarray, cb: np.ndarray, fa: np.ndarray, fb: np.ndarray
) -> np.ndarray:
    """Boolean mask over the fresh pairs ``(fa, fb)``: True where the pair
    is one of the cached pairs ``(ca, cb)``, both ids equal (exact: no hash
    mix). The ids are ranked among all distinct ids and each pair packed
    into one int64 key ``rank(a) * N + rank(b)`` (the scheme of
    ``lsh.dedupe_pair_arrays``), so one sort and one ``searchsorted`` of
    plain integers do the anti-join: 0.22 s against 1.41 s for a
    field-by-field structured ``(a, b)`` key on 315,692 cached and
    412,444 fresh random pairs (1 CPU)."""
    from europa_ray.util import sorted_member

    if ca.shape[0] == 0 or fa.shape[0] == 0:
        return np.zeros(fa.shape[0], dtype=bool)
    ids, inv = np.unique(np.concatenate([ca, cb, fa, fb]), return_inverse=True)
    n = ids.shape[0]
    if n * n >= 1 << 63:
        raise ValueError(f"{n} distinct ids: an (a, b) pair no longer packs into int64")
    ia, ib, ja, jb = np.split(
        inv.astype(np.int64), np.cumsum([ca.shape[0], cb.shape[0], fa.shape[0]])
    )
    return sorted_member(np.unique(ia * n + ib), ja * n + jb)


def incremental_pairs(
    pairs_ds,
    *,
    cache_root: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    driver_max_rows: int = 2_000_000,
):
    """Union freshly discovered pairs with the persisted edge set.

    Anti-joins new pairs against the cache (SO2 ``MatchExcept``: only
    genuinely new edges are "new"), appends the delta, and returns
    ``(all_pairs_dataset, counters)`` with ``pairs_from_cache`` /
    ``pairs_new`` counters. Size-dispatched: below ``driver_max_rows``
    total (cached + fresh, from Parquet footers) the anti-join is one
    packed-key ``searchsorted`` on the driver (:func:`known_pairs_mask`,
    the fresh pairs gathered by block ref); above it the cache stays
    distributed — a ``left_outer`` hash join on the REAL
    composite key (a, b) marks known pairs, the delta is written with
    ``ds.write_parquet``, and the merged set is a Dataset read of the
    cache dir. Semantics match ``QdrantRepository.cs:158-182,193-194``."""
    import uuid

    import ray
    import ray.data

    from europa_ray.stages.lsh import PAIRS_SCHEMA
    from europa_ray.util import dataset_block_refs

    pairs_dir = os.path.join(cache_root, "pairs-" + _sig_cfg_fingerprint(cfg))
    os.makedirs(pairs_dir, exist_ok=True)
    n_cached = _cache_num_rows(pairs_dir)

    pairs_ds = pairs_ds.materialize()
    n_fresh = pairs_ds.count()
    counters = {"pairs_from_cache": float(n_cached)}

    if n_cached + n_fresh <= driver_max_rows:
        # --- driver shape: vectorized exact composite-key anti-join ---
        cached = cached_pairs_table(pairs_dir)
        fresh = [t for t in ray.get(dataset_block_refs(pairs_ds)) if t.num_rows]
        fresh_tbl = pa.concat_tables(fresh, promote_options="default") if fresh else None
        if fresh_tbl is not None and cached is not None and cached.num_rows:
            known_mask = known_pairs_mask(
                cached["a"].to_numpy(), cached["b"].to_numpy(),
                fresh_tbl["a"].to_numpy(), fresh_tbl["b"].to_numpy(),
            )
            fresh_tbl = fresh_tbl.filter(pa.array(~known_mask))
        n_new = fresh_tbl.num_rows if fresh_tbl is not None else 0
        if n_new:
            pq.write_table(
                fresh_tbl, os.path.join(pairs_dir, f"part-{uuid.uuid4().hex}.parquet")
            )
        counters["pairs_new"] = float(n_new)
        merged = cached_pairs_table(pairs_dir)
        if merged is None:
            return ray.data.from_arrow(PAIRS_SCHEMA.empty_table()), counters
        return ray.data.from_arrow(merged), counters

    # --- distributed shape ---
    import pyarrow.compute as pc

    from europa_ray.util import hash_join

    out_cols = [f.name for f in PAIRS_SCHEMA]
    if n_cached == 0 or n_fresh == 0:
        new_ds = pairs_ds
    else:
        def mark(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "__cached", pa.array(np.ones(batch.num_rows, dtype=np.int64))
            )

        marker = (
            read_files(pairs_dir, columns=["a", "b"])
            .map_batches(mark, batch_format="pyarrow")
            .materialize()
        )
        joined = hash_join(pairs_ds, marker, "left_outer", ("a", "b"))

        def only_new(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_null(batch["__cached"])).select(out_cols)

        new_ds = joined.map_batches(only_new, batch_format="pyarrow")
    new_ds = new_ds.map_batches(
        lambda b: b.select(out_cols), batch_format="pyarrow"
    ).materialize()
    n_new = new_ds.count()
    if n_new:
        new_ds.write_parquet(pairs_dir)
    counters["pairs_new"] = float(n_new)
    if not _cache_files(pairs_dir):
        return ray.data.from_arrow(PAIRS_SCHEMA.empty_table()), counters
    return read_files(pairs_dir), counters


# ---------------------------------------------------------------------------
# cache lifecycle: compaction + fingerprint GC
# ---------------------------------------------------------------------------

def compact_cache(
    cache_root: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    max_parts: int = 8,
    driver_max_rows: int = 2_000_000,
) -> dict[str, dict[str, int]]:
    """Merge accumulated per-run cache part files.

    Each run appends one (or more) Parquet parts; after many runs
    ``cached_nodes`` re-reads dozens of footers and small row groups per
    start. When a cache dir exceeds ``max_parts`` parts, rewrite it as one
    part (driver-vectorized below ``driver_max_rows`` rows, Dataset
    read → :func:`distinct_by_node` → ``write_parquet`` above). Signature
    dirs are deduped by node (defensive — the write invariant already
    guarantees uniqueness); pair dirs are concatenated as-is (deltas are
    anti-joined before write, so pairs are unique). Returns per-dir
    ``{"parts_before", "parts_after", "rows"}`` stats."""
    import shutil
    import uuid

    fp = _sig_cfg_fingerprint(cfg)
    stats: dict[str, dict[str, int]] = {}
    for sub, key in ((f"signatures-{fp}", "node"), (f"pairs-{fp}", None)):
        d = os.path.join(cache_root, sub)
        files = _cache_files(d)
        if len(files) <= max_parts:
            continue
        n_rows = _cache_num_rows(d)
        tmp = d + ".compact"
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        if n_rows <= driver_max_rows:
            tbl = pa.concat_tables(
                [pq.read_table(f) for f in files], promote_options="default"
            )
            if key is not None:
                nodes = tbl[key].to_numpy()
                _, first = np.unique(nodes, return_index=True)
                tbl = tbl.take(pa.array(np.sort(first)))
            pq.write_table(tbl, os.path.join(tmp, f"part-{uuid.uuid4().hex}.parquet"))
            n_after_rows = tbl.num_rows
        else:
            ds = read_files(d)
            if key is not None:
                ds, n_after_rows = distinct_by_node(ds)
            else:
                n_after_rows = n_rows
            ds.write_parquet(tmp)
        for f in files:
            os.remove(f)
        for f in _cache_files(tmp):
            shutil.move(f, os.path.join(d, os.path.basename(f)))
        shutil.rmtree(tmp)
        stats[sub] = {
            "parts_before": len(files),
            "parts_after": len(_cache_files(d)),
            "rows": int(n_after_rows),
        }
    return stats


def gc_cache(cache_root: str, keep_cfgs: list[EngineConfig] | tuple[EngineConfig, ...]) -> list[str]:
    """Prune cache dirs whose config fingerprint matches NO live config.

    A signature/pair cache written under an old shingle/permutation config
    can never be read again once the config changes (the fingerprint is
    part of the dir name) — it only accumulates disk. Returns the removed
    directory paths."""
    import shutil

    keep = {_sig_cfg_fingerprint(c) for c in keep_cfgs}
    removed: list[str] = []
    for d in sorted(
        glob.glob(os.path.join(cache_root, "signatures-*"))
        + glob.glob(os.path.join(cache_root, "pairs-*"))
    ):
        if not os.path.isdir(d):
            continue
        fp = os.path.basename(d).split("-", 1)[1]
        if fp not in keep:
            shutil.rmtree(d)
            removed.append(d)
    return removed
