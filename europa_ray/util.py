"""Low-level deterministic hashing primitives (NumPy-vectorized).

The reference uses Blake3 for content identity and XxHash3-64 for compact
ids / dict hashcodes (``/root/reference/Core/Entities/Commons/HashComparer.cs:16-19``,
``Api/Client/QdrantRepository.cs:84``). This engine keeps the *semantics* —
a cryptographic content digest (sha256, per the driver invariant) plus a fast
64-bit mixing hash for band keys and compact ids — implemented with public
algorithms only: sha256 via :mod:`hashlib`, 64-bit mixing via the public-domain
splitmix64 finalizer, and string hashing via ``pandas.util.hash_array`` (stable
for a fixed ``hash_key``).
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pandas as pd

# Stable key for pandas' SipHash-based string hashing (must never change:
# signatures are persisted in checkpoint manifests).
HASH_KEY = "europa-ray-v1-00"  # must be exactly 16 bytes
assert len(HASH_KEY.encode()) == 16

_log = logging.getLogger(__name__)

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """Public-domain splitmix64 finalizer, vectorized over uint64 arrays.

    Used wherever the reference uses XxHash3-64 (compact point ids, band-key
    hashing): a fast, well-mixed, deterministic 64-bit hash.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=_U64) + _GOLDEN
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


def splitmix64_inplace(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """:func:`splitmix64` of a uint64 array written over ``z`` itself, with
    one scratch array of ``z``'s shape (allocated when not given): the same
    values without the finalizer's five full-size temporaries. Returns ``z``."""
    if scratch is None:
        scratch = np.empty_like(z)
    with np.errstate(over="ignore"):
        z += _GOLDEN
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, _U64(shift), out=scratch)
            z ^= scratch
            z *= mult
        np.right_shift(z, _U64(31), out=scratch)
        z ^= scratch
    return z


def mix64(x: np.ndarray, seed: int | np.uint64 = 0) -> np.ndarray:
    """Seeded 64-bit mix: ``splitmix64(x ^ seed)`` (vectorized)."""
    return splitmix64(np.asarray(x, dtype=_U64) ^ _U64(seed))


def hash_strings(strings, *, seed_key: str = HASH_KEY) -> np.ndarray:
    """Deterministic uint64 hash of a sequence of Python strings.

    ``pd.util.hash_array`` is C-speed and stable across processes for a fixed
    ``hash_key`` (unlike builtin ``hash``, which is salted per process).

    PITFALL: pandas hashes the UTF-8 encoding as a C string, so the hash
    TRUNCATES at the first NUL byte — ``"a\\x00b"`` and ``"a\\x00c"``
    collide. Never join multi-field keys with ``"\\x00"`` before hashing;
    use ``"\\x1f"`` (unit separator) like ``manifest.fingerprint_of``.
    """
    arr = np.asarray(strings, dtype=object)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(arr, hash_key=seed_key).astype(np.uint64)


def sha256_hex(texts) -> list[str | None]:
    """Per-row sha256 hex digest of UTF-8 encoded text.

    Mirrors ``HashGenerator.GenerateHash`` (``/root/reference/Api/Implementations/
    DuplicatesByHash/HashGenerator.cs:14-47``): empty content yields ``None``
    (the reference returns null for empty files and excludes them, ``:18-19``).

    hashlib releases the GIL into C code; the per-row loop is acceptable here
    because sha256 itself dominates and batches parallelize across Ray tasks.
    """
    out: list[str | None] = []
    for t in texts:
        if t is None or len(t) == 0:
            out.append(None)
        else:
            out.append(hashlib.sha256(t.encode("utf-8")).hexdigest())
    return out


def sha256_hex_arrow(col) -> list[str | None]:
    """sha256 hex per row straight from an Arrow string column's UTF-8
    buffer (memoryview slices — no Python string materialization).
    Empty/null rows → None (HashGenerator.cs:18-19 semantics)."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return []
    off_dtype = np.int64 if pa.types.is_large_string(col.type) else np.int32
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[col.offset : col.offset + n + 1].tolist()
    mv = memoryview(bufs[2])
    sha = hashlib.sha256
    return [sha(mv[s:e]).hexdigest() if e > s else None for s, e in zip(offs, offs[1:])]


def sha256_prefix_hex_arrow(col, fraction: float = 0.1) -> list[str | None]:
    """sha256 hex of each row's first ``ceil(byte_len * fraction)`` UTF-8
    BYTES, straight from the Arrow buffer (no Python string round-trip).
    Byte- rather than character-prefix matches the reference, which hashes
    the first 10% of file BYTES (``HashGenerator.cs:14-47`` via
    ``bytesToHash``); any deterministic prefix function is a valid pass-1
    key (content equality ⇒ prefix equality). Empty/null rows → None."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return []
    off_dtype = np.int64 if pa.types.is_large_string(col.type) else np.int32
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[col.offset : col.offset + n + 1]
    lens = np.diff(offs)
    pref = -(-lens * max(1, int(round(fraction * 100))) // 100)
    mv = memoryview(bufs[2])
    out: list[str | None] = []
    for i in range(n):
        s = offs[i]
        if lens[i] == 0:
            out.append(None)
        else:
            out.append(hashlib.sha256(mv[s : s + pref[i]]).hexdigest())
    return out


# CPUs assumed when the Ray cluster cannot report its own.
_FALLBACK_CPUS = 4


def cluster_cpus() -> int:
    """CPUs the Ray cluster reports, or ``_FALLBACK_CPUS`` (with a warning)
    when it cannot be read, e.g. before Ray is initialized. The one place
    the engine sizes its parallelism from."""
    import ray

    try:
        return int(ray.cluster_resources().get("CPU", _FALLBACK_CPUS))
    except ray.exceptions.RayError as exc:  # no session yet
        _log.warning(
            "cluster CPU count unreadable (%s); assuming %d", exc, _FALLBACK_CPUS
        )
        return _FALLBACK_CPUS


def default_num_partitions(cap: int = 64) -> int:
    """Shuffle partition count sized to the cluster: Ray's hash-shuffle
    spawns aggregator actors proportional to the partition count, and a
    count exceeding available CPUs deadlocks small clusters. ``cpus − 2``
    leaves room for map/read tasks; capped for the sandbox (raise the cap on
    a real multi-node cluster)."""
    return max(2, min(cap, cluster_cpus() - 2))


# Read blocks per CPU: the cap of default_read_blocks.
READ_BLOCKS_PER_CPU = 8
# Input bytes per read block below that cap, on a 1-CPU cluster.
READ_BLOCK_BYTES = 4 << 20


def default_read_blocks(input_bytes: int | None) -> int:
    """Read block count for ``input_bytes`` of input files:
    ``READ_BLOCKS_PER_CPU × cpus`` on a multi-CPU cluster, and
    ``clamp(ceil(input_bytes / READ_BLOCK_BYTES), 1, READ_BLOCKS_PER_CPU)``
    on one CPU.

    The cap is the multi-CPU knee, measured on the 480k-row scaling corpus
    (~650 MB at the planted corpus's ~1.4 KB per file): 2×CPUs blocks leaves a 2-wave schedule whose
    straggler tail wastes ~30% of the signature stage (8 CPUs: 34.3 s at 16
    blocks → 23.7 s at 64; 32 CPUs: 16.6 s at 64 → 11.7 s at 256); beyond
    8× per-block scheduling overhead creeps back (8 CPUs / 256 blocks:
    26.7 s). A size term would put that corpus below the cap (~155 blocks
    at 32 CPUs), in the range measured as slow, so more than one CPU always
    takes the cap.

    On one CPU there is no tail to balance, and a block costs one Ray task
    in every per-block pass (read + hash, attach, signature gather, member
    tags) whatever its size, so a small input gets few blocks: the 12k-file
    planted benchmark corpus (16 MB of Parquet) reads as 4 blocks instead
    of the old 64-block floor, and its exact job fell from 1.63 to 0.42 s
    (perfbench ``exact_s``, median of 10 runs).

    ``input_bytes=None`` (the input could not be listed) takes the cap. The
    decision is logged with its inputs and the bound that set it.
    """
    cpus = max(1, cluster_cpus())
    cap = READ_BLOCKS_PER_CPU * cpus
    if input_bytes is None:
        blocks, why = cap, "cap (input size unknown)"
    elif cpus > 1:
        blocks, why = cap, "cap (multi-CPU)"
    else:
        by_size = -(-input_bytes // READ_BLOCK_BYTES)
        blocks = min(cap, max(1, by_size))
        why = "cap" if by_size > cap else "floor" if by_size < 1 else "size"
    _log.info(
        "read blocks: %d (input_bytes=%s, cpus=%d, set by %s)",
        blocks, input_bytes, cpus, why,
    )
    return blocks


def sorted_member(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Boolean membership of ``vals`` in a SORTED distinct array via
    ``searchsorted`` — the house broadcast-set-membership primitive (used
    for corpus-side flags in crossdup/ppjoin): O(|vals| log |set|), no
    Python sets, works on any comparable dtype including U256_DTYPE."""
    if sorted_arr.shape[0] == 0 or vals.shape[0] == 0:
        return np.zeros(vals.shape[0], dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_arr, vals), sorted_arr.shape[0] - 1)
    return sorted_arr[idx] == vals


def hex_to_u64(hex_ids) -> np.ndarray:
    """Compact uint64 node id from a sha256 hex string (first 16 hex chars).

    The digest is uniform, so the 64-bit prefix is collision-safe far beyond
    10^9 distinct contents; mirrors the reference's
    ``XxHash3.HashToUInt64(blake3)`` point ids (``QdrantRepository.cs:84``).
    """
    return np.array([int(h[:16], 16) for h in hex_ids], dtype=np.uint64)


# full-digest key: 4×uint64 structured dtype — numpy sort/unique/searchsorted
# compare field-by-field, giving an exact total order over the whole 256-bit
# digest (no prefix-collision risk, unlike the 64-bit fast key)
U256_DTYPE = np.dtype([("q0", "<u8"), ("q1", "<u8"), ("q2", "<u8"), ("q3", "<u8")])


def hex_to_u256_arrow(col) -> np.ndarray:
    """Full 64-char sha256 hex column → structured (4×uint64) key array.

    Exact: equality of keys ⇔ equality of full digests. Used by the
    exact-dedup driver fast path so a 64-bit prefix collision between
    distinct contents can never fabricate a false duplicate cluster
    (the distributed fallback groups on the full digest string — both
    dispatch paths are now digest-exact). Vectorized nibble decode from the
    raw Arrow buffer; scalar fallback for irregular inputs."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    out = np.zeros(n, dtype=U256_DTYPE)
    if n == 0:
        return out
    off_dtype = np.int64 if pa.types.is_large_string(col.type) else np.int32
    bufs = col.buffers()
    regular = not col.null_count and bufs[1] is not None
    if regular:
        offs = np.frombuffer(bufs[1], dtype=off_dtype)[col.offset : col.offset + n + 1]
        regular = bool((np.diff(offs) == 64).all())
    if not regular:
        for i, h in enumerate(col.to_pylist()):
            v = int(h, 16)
            for qi in range(4):
                out[f"q{qi}"][i] = (v >> (64 * (3 - qi))) & 0xFFFFFFFFFFFFFFFF
        return out
    data = np.frombuffer(bufs[2], dtype=np.uint8)[int(offs[0]) : int(offs[-1])]
    nib = (data & 0x0F) + 9 * (data >> 6)  # ascii hex → nibble
    nib = nib.reshape(n, 4, 16).astype(np.uint64)
    shifts = (np.uint64(4) * np.arange(15, -1, -1, dtype=np.uint64))[None, None, :]
    quads = (nib << shifts).sum(axis=2, dtype=np.uint64)  # (n, 4)
    for qi in range(4):
        out[f"q{qi}"] = quads[:, qi]
    return out


def hex_to_u64_arrow(col) -> np.ndarray:
    """Vectorized :func:`hex_to_u64` straight from an Arrow string column of
    NON-NULL fixed-width (64-char lowercase hex) values: nibble-decode the
    first 16 bytes of each value from the raw data buffer — no Python string
    objects. Falls back to the scalar loop for irregular inputs."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    off_dtype = np.int64 if pa.types.is_large_string(col.type) else np.int32
    bufs = col.buffers()
    if col.null_count or bufs[1] is None:
        return hex_to_u64(col.to_pylist())
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[col.offset : col.offset + n + 1]
    if not (np.diff(offs) == 64).all():
        return hex_to_u64(col.to_pylist())
    data = np.frombuffer(bufs[2], dtype=np.uint8)[int(offs[0]) : int(offs[-1])]
    lead = data.reshape(n, 64)[:, :16]
    # ascii hex → nibble: '0'-'9' → c & 0xF; 'a'-'f' → (c & 0xF) + 9
    nib = (lead & 0x0F) + 9 * (lead >> 6)
    shifts = (np.uint64(4) * np.arange(15, -1, -1, dtype=np.uint64))[None, :]
    return (nib.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)


def int64_lexkey_arrow(col):
    """Zero-padded 20-digit decimal whose LEXICOGRAPHIC order equals the
    int64 NUMERIC order: ids biased by +2^63 into uint64 space before
    rendering. A raw lpad of a signed id breaks on negatives twice over —
    '-9…' sorts before '0…' regardless of magnitude, and the '-' makes the
    width 20 without padding, corrupting fixed-width composite-key slices.
    Decode with :func:`int64_from_lexkey`."""
    import pyarrow as pa
    import pyarrow.compute as pc

    v = col.to_numpy().astype(np.int64, copy=False).view(np.uint64) + np.uint64(
        1 << 63
    )
    return pc.utf8_lpad(pc.cast(pa.array(v, pa.uint64()), pa.string()), 20, "0")


def int64_from_lexkey(col):
    """Inverse of :func:`int64_lexkey_arrow` over a 20-digit string column."""
    import pyarrow as pa
    import pyarrow.compute as pc

    u = pc.cast(col, pa.uint64()).to_numpy().astype(np.uint64)
    return pa.array((u + np.uint64(1 << 63)).view(np.int64), pa.int64())


def scrub_empty_blocks(ds, schema):
    """Drop zero-row blocks from a MATERIALIZED dataset.

    Ray 2.49's hash-shuffle join emits its empty partitions as ZERO-COLUMN
    blocks (``pa.table({})`` — no schema), and ``map_batches`` passes them
    through without invoking the UDF, so any join-descended dataset can
    carry schema-less blocks that crash the next join with "no match or
    multiple matches for key field … on right side". Zero-row blocks
    contribute nothing, so we rebuild the dataset from the surviving block
    refs — no data movement, blocks stay where they are in the object
    store. ``schema`` supplies the result when every block is empty.
    """
    import pyarrow as pa  # noqa: F401 (schema.empty_table)
    import ray
    import ray.data

    refs = []
    for bundle in ds.iter_internal_ref_bundles():
        for block_ref, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.num_rows is None or meta.num_rows > 0:
                refs.append(block_ref)
    if not refs:
        return ray.data.from_arrow(schema.empty_table())
    return ray.data.from_arrow_refs(refs)


def dataset_block_refs(ds) -> list:
    """Block refs of a MATERIALIZED dataset, across Ray API generations.

    Ray 2.47+ exposes ``iter_internal_ref_bundles``; older releases only
    had ``get_internal_block_refs`` (now deprecation-warned). Single home
    for the version dance so the next Ray bump is a one-line change here.
    """
    try:
        return [
            r for bundle in ds.iter_internal_ref_bundles() for r in bundle.block_refs
        ]
    except AttributeError:  # older Ray without ref bundles
        return ds.get_internal_block_refs()


def _on_arrow_block(fn, block, *args):
    from ray.data.block import BlockAccessor

    return fn(BlockAccessor.for_block(block).to_arrow(), *args)


def block_tasks(ds, fn, *args, **options) -> list:
    """``fn(block, *args)`` as one raw Ray task per block of a MATERIALIZED
    dataset, the block handed over as a ``pa.Table``; returns the result
    refs in block order. NumPy arguments are put in the object store once
    and shared by every task; ``options`` go to ``.options()`` (e.g.
    ``num_returns``).

    A ``map_batches`` over data already in the object store pays a whole
    executor run on top of its per-block tasks (~0.05 s at 1 CPU on a
    4-block table); a per-block pass whose output goes to the driver does
    not need one."""
    import ray

    args = tuple(ray.put(a) if isinstance(a, np.ndarray) else a for a in args)
    task = ray.remote(num_cpus=1)(_on_arrow_block)
    if options:
        task = task.options(**options)
    return [task.remote(fn, r, *args) for r in dataset_block_refs(ds)]


# two lowercase hex digits per byte value
_HEX_PAIRS = np.frombuffer(
    "".join(f"{i:02x}" for i in range(256)).encode(), np.uint8
).reshape(256, 2)


def hex16_arrow(values: np.ndarray):
    """int64 values as 16-digit lowercase hex strings of their uint64 bits
    (``f"{v & (2**64 - 1):016x}"``), written straight into the Arrow string
    buffers from a byte-pair lookup table: no Python string per row."""
    import pyarrow as pa

    v = np.ascontiguousarray(values, np.int64)
    n = v.shape[0]
    data = _HEX_PAIRS[v.astype(">i8").view(np.uint8)].tobytes()
    offsets = (np.arange(n + 1, dtype=np.int32) * 16).tobytes()
    return pa.Array.from_buffers(
        pa.string(), n, [None, pa.py_buffer(offsets), pa.py_buffer(data)]
    )


# Results whose blocks total at most this many bytes are sorted on the driver
# by :func:`sort_result`. A distributed ``Dataset.sort`` pays a sample, a
# map and a merge task per block whatever the row count: 6.7-7.3 s for the
# 1,204 exact-dup member rows of a 64-block job at 1 CPU, against ~0.01 s
# for ``sort_indices`` on the driver.
DRIVER_SORT_MAX_BYTES = 64 << 20


def sort_result(ds, key: list[str]):
    """``ds`` sorted by the ascending columns ``key``, dispatched by size.

    The result is materialized and its size read from the block metadata
    (no extra pass). At most :data:`DRIVER_SORT_MAX_BYTES`: the blocks are
    fetched, concatenated in block order and ordered by
    ``pyarrow.compute.sort_indices`` with the keys ``Dataset.sort`` uses
    (ascending, nulls last, stable), returned as ONE block — the same table,
    ties included, as the distributed sort (which concatenates its
    partitions in block order before the same stable sort). Above the budget,
    or when a block's size is unknown: ``Dataset.sort``. Zero-row blocks
    (Ray 2.49 shuffles emit them without columns) are dropped; an all-empty
    input keeps its schema."""
    import pyarrow as pa
    import ray
    import ray.data

    ds = ds.materialize()
    refs: list = []
    size = 0
    for bundle in ds.iter_internal_ref_bundles():
        for block_ref, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.size_bytes is None or meta.num_rows is None:
                return ds.sort(key)
            size += meta.size_bytes
            if meta.num_rows:
                refs.append(block_ref)
    if size > DRIVER_SORT_MAX_BYTES:
        return ds.sort(key)
    if not refs:
        got = ds.schema()
        schema = got.base_schema if got is not None else pa.schema([])
        return ray.data.from_arrow(schema.empty_table())
    return _sort_on_driver(ray.get(refs), key)


def _sort_on_driver(tables: list, key: list[str]):
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    table = pa.concat_tables(tables, promote_options="permissive")
    order = pc.sort_indices(table, sort_keys=[(k, "ascending") for k in key])
    return ray.data.from_arrow(table.take(order))


def sort_block_results(outs: list, key: list[str]):
    """:func:`sort_result` over the outputs of :func:`block_tasks` run with
    ``num_returns=2``, each a ``(table, nbytes)`` pair of refs: only the
    sizes are fetched before the dispatch, so an over-budget result stays in
    the object store and sorts distributed."""
    import pyarrow as pa
    import ray
    import ray.data

    if not outs:
        return ray.data.from_arrow(pa.table({}))
    tables = [t for t, _ in outs]
    if sum(ray.get([s for _, s in outs])) > DRIVER_SORT_MAX_BYTES:
        return ray.data.from_arrow_refs(tables).sort(key)
    return _sort_on_driver(ray.get(tables), key)


def _attach_row_index(block, offset: int, index_col: str):
    import numpy as _np
    import pyarrow as _pa

    return block.append_column(
        index_col,
        _pa.array(offset + _np.arange(block.num_rows, dtype=_np.int64)),
    )


def add_global_row_index(ds, *, index_col: str = "row_index"):
    """Contiguous global 0-based row index over a MATERIALIZED dataset —
    the distributed ``ROW_NUMBER() OVER (ORDER BY <the sort you just
    did>)`` Ray Data lacks. Blocks never move: per-block row counts come
    from block metadata (one tiny counting task per block only when a
    count is missing), the driver prefix-sums them, and one remote map per
    block appends ``offset + arange`` — O(blocks) driver work, zero
    shuffle, so a 100 TB sorted export enumerates for the cost of reading
    each block once. Row order within and across blocks is preserved
    (``from_arrow_refs`` keeps list order). Typical use: ``ds.sort(...)``
    → ``add_global_row_index`` → sharded training export."""
    import pyarrow as pa
    import ray
    import ray.data

    refs: list = []
    counts: list[int | None] = []
    for bundle in ds.iter_internal_ref_bundles():
        for block_ref, meta in zip(bundle.block_refs, bundle.metadata):
            refs.append(block_ref)
            counts.append(meta.num_rows)
    if not refs:
        base = ds.schema()
        schema = base.base_schema if hasattr(base, "base_schema") else base
        return ray.data.from_arrow(
            schema.empty_table().append_column(index_col, pa.array([], pa.int64()))
        )
    if any(c is None for c in counts):
        count_task = ray.remote(lambda b: b.num_rows)
        missing = [i for i, c in enumerate(counts) if c is None]
        got = ray.get([count_task.remote(refs[i]) for i in missing])
        for i, n in zip(missing, got):
            counts[i] = n
    offsets = [0]
    for c in counts[:-1]:
        offsets.append(offsets[-1] + int(c))
    attach = ray.remote(_attach_row_index)
    out = [attach.remote(r, off, index_col) for r, off in zip(refs, offsets)]
    return ray.data.from_arrow_refs(out)
