"""Bloom-filter digest prefilter — the scale path for cross-corpus exact
dedup when the reference digest set is too large to broadcast exactly.

``cross_corpus_new_docs`` (:mod:`europa_ray.pipelines.exact`) broadcasts the
reference corpus's distinct digests as a sorted 32 B/entry structured-u256
key array below ``broadcast_max_digests`` and falls back to a distributed
left-outer join above it. At 100 TB the reference side can hold billions of
distinct contents: 1 B digests = 32 GB/node exact broadcast (too big), and
the join fallback shuffles the ENTIRE new corpus's digest rows through the
exchange even though the typical decontamination answer is "almost every new
row is new".

The bloom prefilter restores a broadcast-shaped plan at that scale while
keeping the output EXACT:

1. build a bloom filter over the reference digest set (``bits_per_key``
   configurable; 12 bits/key ≈ 0.31% false-positive rate at k=8 — 1 B keys
   fit in 1.5 GB, 21× smaller than the exact key broadcast);
2. probe it per batch of the new corpus (pure numpy on the digests' own
   sha256 words — no extra hashing pass): rows the filter rejects are
   DEFINITELY new (bloom has no false negatives) and stream straight to the
   output with zero shuffle;
3. only the "maybe duplicate" survivors (true dups + the ~0.3% false
   positives) proceed to the exact distributed anti-join.

So the expensive all-to-all exchange sees ``dup_rate + fp_rate`` of the new
corpus instead of 100% of it, and the result equals the exact path
bit-for-bit at ANY filter size (a too-small bloom only grows the verify
subset — equivalence is forced-tiny-filter tested).

The filter itself is built distributed: one partial bitmap per block-group
task over the materialized digest table, OR-combined in a binary tree of
Ray tasks (peak driver memory = one bitmap; network volume = one bitmap per
leaf task at the first level, halving per level).

Hash scheme: Kirsch–Mitzenmacher double hashing ``pos_i = h1 + i·h2 (mod m)``
with ``h1, h2`` taken directly from the first two 64-bit words of the sha256
digest (uniform by construction — no extra hash computation anywhere).
Reference parity: the role of the reference's cached-signature existence
check (``/root/reference/Api/Client/QdrantRepository.cs:82-103``) at corpus
scale.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from europa_ray.util import U256_DTYPE, hex_to_u256_arrow

_U64 = np.uint64


def bloom_params(n_keys: int, bits_per_key: int) -> tuple[int, int]:
    """(m_bits, n_hashes) for ``n_keys`` entries at ``bits_per_key``.

    ``k = ln 2 · bits_per_key`` minimizes the false-positive rate
    ``(1 − e^{−kn/m})^k ≈ 0.6185^{bits_per_key}``.
    """
    m_bits = max(64, int(n_keys) * int(bits_per_key))
    n_hashes = max(1, round(math.log(2) * bits_per_key))
    return m_bits, n_hashes


def _set_bits(bitmap: np.ndarray, keys: np.ndarray, m_bits: int, n_hashes: int) -> None:
    """Set the ``n_hashes`` double-hashed bit positions of each structured
    u256 key into ``bitmap`` (uint8, little-endian bit order). Vectorized:
    k passes of ``np.bitwise_or.at`` over the whole key array."""
    if keys.shape[0] == 0:
        return
    h1 = keys["q0"]
    h2 = keys["q1"] | _U64(1)  # odd stride → full-period mod 2^64
    m = _U64(m_bits)
    for i in range(n_hashes):
        pos = (h1 + _U64(i) * h2) % m
        np.bitwise_or.at(
            bitmap,
            (pos >> _U64(3)).astype(np.int64),
            np.left_shift(np.uint8(1), (pos & _U64(7)).astype(np.uint8)),
        )


def bloom_probe(bitmap: np.ndarray, keys: np.ndarray, m_bits: int, n_hashes: int) -> np.ndarray:
    """Boolean mask: True where ALL ``n_hashes`` positions are set (i.e. the
    key is *possibly* in the set; False ⇒ definitely absent)."""
    n = keys.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    h1 = keys["q0"]
    h2 = keys["q1"] | _U64(1)
    m = _U64(m_bits)
    hit = np.ones(n, dtype=bool)
    for i in range(n_hashes):
        pos = (h1 + _U64(i) * h2) % m
        byte = bitmap[(pos >> _U64(3)).astype(np.int64)]
        bit = np.left_shift(np.uint8(1), (pos & _U64(7)).astype(np.uint8))
        hit &= (byte & bit) != 0
        if not hit.any():
            break
    return hit


def _block_bitmap(blocks, m_bits: int, n_hashes: int, sha_col: str) -> np.ndarray:
    """One leaf task: OR the digests of a group of Arrow blocks into a fresh
    bitmap. ``blocks`` is a list of ObjectRefs (Ray does not auto-resolve
    refs nested in lists — resolved here, one block pinned at a time)."""
    import ray

    bitmap = np.zeros((m_bits + 7) // 8, dtype=np.uint8)
    for blk in blocks:
        tbl = ray.get(blk) if isinstance(blk, ray.ObjectRef) else blk
        _set_bits(bitmap, hex_to_u256_arrow(tbl[sha_col]), m_bits, n_hashes)
    return bitmap


def _or_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bitwise_or(a, b)


def build_bloom(
    digests_ds,
    n_keys: int,
    *,
    bits_per_key: int = 12,
    sha_col: str = "sha256",
    leaf_tasks: int | None = None,
) -> tuple[np.ndarray, int, int]:
    """Build a bloom filter over a (materialized) Dataset's digest column.

    Returns ``(bitmap uint8 array, m_bits, n_hashes)``. Distributed: block
    refs are split into ``leaf_tasks`` groups (default = cluster CPUs), each
    leaf builds a partial bitmap in place, and partials are OR-combined in a
    binary tree of Ray tasks so no single worker ever holds more than two
    bitmaps and the driver receives exactly one.
    """
    import ray

    from europa_ray.util import default_num_partitions

    m_bits, n_hashes = bloom_params(n_keys, bits_per_key)

    from europa_ray.util import dataset_block_refs, remote_fn

    refs = dataset_block_refs(digests_ds)
    if not refs:
        return np.zeros((m_bits + 7) // 8, dtype=np.uint8), m_bits, n_hashes

    if leaf_tasks is None:
        leaf_tasks = default_num_partitions()
    groups: list[list] = [refs[i::leaf_tasks] for i in range(min(leaf_tasks, len(refs)))]
    groups = [g for g in groups if g]

    leaf = remote_fn(_block_bitmap)
    orer = remote_fn(_or_pair)
    parts = [leaf.remote(g, m_bits, n_hashes, sha_col) for g in groups]
    while len(parts) > 1:  # binary tree OR-reduce
        nxt = [
            orer.remote(parts[i], parts[i + 1]) for i in range(0, len(parts) - 1, 2)
        ]
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return ray.get(parts[0]), m_bits, n_hashes


def probe_batch(
    batch: pa.Table, bitmap_ref, m_bits: int, n_hashes: int, *, sha_col: str = "sha256"
) -> np.ndarray:
    """Per-batch probe for ``map_batches`` stages: bool mask of *possible*
    members. ``bitmap_ref`` is the ``ray.put`` handle (zero-copy per-node
    plasma read — the bitmap is shared, not re-shipped per batch)."""
    import ray

    bitmap = ray.get(bitmap_ref)
    return bloom_probe(bitmap, hex_to_u256_arrow(batch[sha_col]), m_bits, n_hashes)
