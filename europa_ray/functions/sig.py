"""MinHash / SimHash signature kernels and LSH band keys (pure NumPy).

MinHash-128 is the engine's "wide" signature — the analog of Europa's
961-bit BlockMeanHash (``/root/reference/Api/Implementations/SimilarImages/
ImageHashs/BlockMeanHash.cs:31-99``); SimHash-64 is the analog of the 64-bit
DCT pHash (``PerceptualHash.cs:63-120``): dense transform → fixed bit
signature, thresholded comparison.

The permutation family is multiply-shift: h_j(x) = (A_j·x + B_j) >> 32 over
Z/2^64 — an independent universal hash per permutation. All kernels
operate on *flat* per-batch shingle arrays with row offsets and use
``np.minimum.reduceat`` / ``np.add.reduceat`` so there is no Python loop over
rows in the hot path.
"""

from __future__ import annotations

import sys

import numpy as np

from europa_ray.util import mix64, splitmix64, splitmix64_inplace

_U64 = np.uint64
# index of a uint64's high uint32 half in a native-order uint32 view
_HIGH_HALF = 1 if sys.byteorder == "little" else 0


def make_perm_seeds(num_perm: int, seed: int) -> np.ndarray:
    """Deterministic (2, num_perm) multiply-shift permutation params (held in
    actor state, the analog of the DCT coefficient matrix computed once per
    process, ``PerceptualHash.cs:24-61``).

    Row 0: odd multipliers A_j; row 1: additive offsets B_j. Permutation
    h_j(x) = (A_j·x + B_j mod 2^64) >> 32 — the multiply-shift universal
    family, 2 vectorized ops per cell vs 7 for a full splitmix finalizer
    (the signature stage is the pipeline's dominant compute).
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(1, np.iinfo(np.int64).max, size=num_perm).astype(np.uint64) | _U64(1)
    b = rng.integers(0, np.iinfo(np.int64).max, size=num_perm).astype(np.uint64)
    return np.stack([a, b])


# Sentinel for "no shingles" (empty row) — also the identity for min.
EMPTY_SIG32 = np.iinfo(np.uint32).max


def minhash_signatures(
    sh_flat: np.ndarray,
    sh_offsets: np.ndarray,
    perm_seeds: np.ndarray,
    *,
    max_chunk_cells: int = 48_000,
) -> np.ndarray:
    """(n_rows, num_perm) uint32 MinHash signatures.

    Per cell: multiply-shift hash ``(A_j·x + B_j) >> 32`` (wraparound uint64
    multiply) — the minimum over a row's shingle set per permutation. uint32
    values keep the reduceat and all downstream shuffles at half the
    bandwidth; component-collision probability 2^-32 is immaterial for
    Jaccard estimation.

    Rows are processed in slices so the intermediate (shingles × perms)
    matrix stays under ``max_chunk_cells``. The default (48k cells ≈ 0.6 MB
    working set) fits a PRIVATE per-core L2: measured 5× faster than
    L3-sized chunks under 30-way concurrency (the shared L3 / ~20 GB/s DRAM
    ceiling is the scaling bottleneck on multi-core boxes) and 2× faster
    even single-threaded. Also bounds peak memory for wide rows
    (FIXTURES.md §1.6). Empty rows get the EMPTY_SIG32 sentinel.
    """
    n_rows = sh_offsets.shape[0] - 1
    p = perm_seeds.shape[1]
    a = perm_seeds[0]
    b32 = (perm_seeds[1] >> _U64(32)).astype(np.uint32)
    out = np.full((n_rows, p), EMPTY_SIG32, dtype=np.uint32)
    if sh_flat.shape[0] == 0 or n_rows == 0:
        return out

    rows_per_chunk_target = max(1, max_chunk_cells // p)
    r0 = 0
    while r0 < n_rows:
        # grow the row slice until its shingle count would exceed the target
        r1 = int(np.searchsorted(sh_offsets, sh_offsets[r0] + rows_per_chunk_target, side="right")) - 1
        r1 = max(r1, r0 + 1)
        r1 = min(r1, n_rows)
        s0, s1 = sh_offsets[r0], sh_offsets[r1]
        if s1 > s0:
            seg = sh_flat[s0:s1]
            with np.errstate(over="ignore"):
                # (A·x) >> 32 then + B's top bits: equivalent-quality family,
                # avoids materializing a uint64 (m, p) intermediate
                mixed = ((seg[:, None] * a[None, :]) >> _U64(32)).astype(np.uint32)
                mixed += b32[None, :]
            # reduce over NON-EMPTY rows' starts only: reduceat is wrong for
            # empty segments, and an empty row's start clipped to the chunk
            # end would cut the last shingle off the row before it
            nonempty = np.diff(sh_offsets[r0 : r1 + 1]) > 0
            starts = (sh_offsets[r0:r1][nonempty] - s0).astype(np.int64)
            out[r0:r1][nonempty] = np.minimum.reduceat(mixed, starts, axis=0)
        r0 = r1
    return out


def minhash_signatures_oph(
    sh_flat: np.ndarray,
    sh_offsets: np.ndarray,
    num_perm: int,
    seed: int,
) -> np.ndarray:
    """(n_rows, num_perm) uint32 one-permutation-hashing MinHash.

    One Permutation Hashing (Li, Owen, Zhang, NIPS 2012): instead of
    ``num_perm`` independent multiply-shift passes over every shingle
    (O(m·p) cells — the flagship's dominant compute), each shingle is
    hashed ONCE; its top bits pick one of ``num_perm`` bins and the row's
    per-bin minimum of the low 32 bits is the signature component. Empty
    bins are filled by circular borrowing from the nearest non-empty bin
    to the left (densification per Shrivastava & Li, ICML 2014), so
    per-component collision probability still estimates Jaccard. Cost is
    one mix + one sort of the (row, bin) keys — O(m log m) ≪ O(m·p).

    Same output dtype/layout as :func:`minhash_signatures`, so banding,
    verification and every downstream stage are unchanged. Empty rows get
    the EMPTY_SIG32 sentinel in every component.
    """
    n_rows = sh_offsets.shape[0] - 1
    p = num_perm
    out = np.full((n_rows, p), EMPTY_SIG32, dtype=np.uint32)
    m = sh_flat.shape[0]
    if m == 0 or n_rows == 0:
        return out
    pbits = int(p).bit_length() - 1
    if (1 << pbits) != p:
        raise ValueError("oph requires num_perm to be a power of two")
    if n_rows * p >= (1 << 32):
        raise ValueError("oph batch too large: n_rows * num_perm must fit 32 bits")
    # sort-based min-per-key: the key row·p + bin and the value (low 32
    # bits of the mix) pack into one uint64 ``key << 32 | value``, built in
    # place over the mixed array — after sorting, the FIRST element of each
    # key group carries the key's minimum value (≈3× faster than argsort +
    # two gathers + reduceat).
    combo = np.asarray(sh_flat, dtype=_U64) ^ (_U64(seed) ^ _U64(0x0F1D_BEEF_CAFE_F00D))
    scratch = np.empty_like(combo)
    splitmix64_inplace(combo, scratch)
    np.right_shift(combo, _U64(64 - pbits), out=scratch)  # bin
    scratch <<= _U64(32)
    combo &= _U64(0xFFFFFFFF)
    combo |= scratch
    if n_rows > 1:
        row_keys = np.arange(n_rows, dtype=_U64) << _U64(32 + pbits)
        combo |= np.repeat(row_keys, np.diff(sh_offsets))
    # Keys are row-major, so sorting ROW-ALIGNED chunks is exactly
    # equivalent to one global sort — and a ~48k-element chunk (0.4 MB)
    # stays resident in a PRIVATE per-core L2, which is what lets the kernel
    # scale across workers (a full-batch sort streams DRAM and saturates the
    # shared-bandwidth ceiling beyond a few cores; same chunking rationale
    # as minhash_signatures/simhash_signatures).
    chunk_target = 48_000
    r0 = 0
    while r0 < n_rows:
        r1 = int(np.searchsorted(sh_offsets, sh_offsets[r0] + chunk_target, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n_rows)
        s0, s1 = int(sh_offsets[r0]), int(sh_offsets[r1])
        if s1 > s0:
            combo[s0:s1].sort()
        r0 = r1
    # first of each key group: the key is the high uint32 half of each
    # element (key < 2^32), compared through a strided view without a copy
    hi = combo.view(np.uint32)[_HIGH_HALF::2]
    newk = np.empty(m, dtype=bool)
    newk[0] = True
    np.not_equal(hi[1:], hi[:-1], out=newk[1:])
    first = combo[np.flatnonzero(newk)]
    sel_keys = (first >> _U64(32)).astype(np.intp)
    out.ravel()[sel_keys] = first.astype(np.uint32)  # low 32 bits: the value

    # densification: forward-fill from the left, circular per row. Two
    # passes of maximum.accumulate over "last filled bin index ≤ j" give
    # the wrapped fill source for every empty bin; rows with zero filled
    # bins (empty rows) keep the sentinel.
    filled = np.zeros((n_rows, p), dtype=bool)
    filled.ravel()[sel_keys] = True
    any_filled = filled.any(axis=1)
    if not any_filled.all() or not filled.all():
        idx = np.where(filled, np.arange(p)[None, :], -1)
        ff = np.maximum.accumulate(idx, axis=1)  # last filled ≤ j, -1 if none
        # wrap: positions before the first filled bin borrow from the LAST
        # filled bin of the row (circular left-fill)
        last = ff[:, -1]  # per-row last filled bin (or -1)
        need_wrap = ff < 0
        ff = np.where(need_wrap, last[:, None], ff)
        rows_ok = np.nonzero(any_filled)[0]
        src = ff[rows_ok]
        out[rows_ok] = out[rows_ok[:, None], src]
    return out


# unpackbits column c of a little-endian uint64 view ↔ original bit
# 8*(c//8) + (7 - c%8); this index reorders unpacked columns back to
# bit-position order so the signature matches the plain shift-and-mask oracle
_UNPACK_TO_BIT = np.array([8 * (c // 8) + (7 - c % 8) for c in range(64)])
_BIT_TO_UNPACK = np.argsort(_UNPACK_TO_BIT)


def simhash_signatures(
    sh_flat: np.ndarray, sh_offsets: np.ndarray, *, max_chunk_rows: int = 10_000
) -> np.ndarray:
    """(n_rows,) uint64 SimHash over the shingle hash multiset.

    bit_j = sign of the sum over shingles of (±1 according to bit_j of the
    shingle hash). Empty rows → 0.

    Bits are exploded with ``np.unpackbits`` on the little-endian byte view
    (C-speed, no 64-iteration shift loop) and summed per row with
    ``np.add.reduceat``; shingles are processed in PRIVATE-L2-sized slices
    (10k shingles ≈ 0.7 MB unpacked) — see the minhash chunking note: L2
    residency is what makes the kernel scale across cores.
    """
    n_rows = sh_offsets.shape[0] - 1
    out = np.zeros(n_rows, dtype=_U64)
    m = sh_flat.shape[0]
    if m == 0 or n_rows == 0:
        return out
    shifts = np.arange(64, dtype=_U64)
    lens_all = np.diff(sh_offsets)

    r0 = 0
    while r0 < n_rows:
        r1 = int(np.searchsorted(sh_offsets, sh_offsets[r0] + max_chunk_rows, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n_rows)
        s0, s1 = sh_offsets[r0], sh_offsets[r1]
        if s1 > s0:
            seg = np.ascontiguousarray(sh_flat[s0:s1])
            bits = np.unpackbits(seg.view(np.uint8).reshape(-1, 8), axis=1)  # (m, 64)
            # reduce over NON-EMPTY rows' starts only (as minhash_signatures
            # does): an empty row's start clipped to the chunk end would cut
            # the last shingle off the row before it
            lens = lens_all[r0:r1]
            nonempty = lens > 0
            starts = (sh_offsets[r0:r1][nonempty] - s0).astype(np.int64)
            sums = np.add.reduceat(bits, starts, axis=0, dtype=np.int64)
            sums = sums[:, _BIT_TO_UNPACK]  # back to bit-position order
            setbits = 2 * sums >= lens[nonempty][:, None]
            out[r0:r1][nonempty] = (setbits.astype(_U64) << shifts[None, :]).sum(
                axis=1, dtype=_U64
            )
        r0 = r1
    return out


def band_keys(sig: np.ndarray, bands: int, rows: int) -> np.ndarray:
    """(n_rows, bands) uint64 LSH band keys from (n_rows, bands*rows) sigs.

    Each key mixes the band index so identical row-values in different bands
    never collide. This is the engine's Qdrant-index analog: candidate
    retrieval becomes a ``groupby(band_key)`` shuffle
    (``/root/reference/Api/Client/QdrantRepository.cs:184-206`` →
    SURVEY.md §2.4 J3).
    """
    n = sig.shape[0]
    if n == 0:
        return np.empty((0, bands), dtype=_U64)
    r = sig.reshape(n, bands, rows)
    with np.errstate(over="ignore"):
        acc = np.zeros((n, bands), dtype=_U64)
        poly = _U64(0x100000001B3)
        for j in range(rows):
            acc = acc * poly + r[:, :, j]
        acc = acc + (np.arange(bands, dtype=_U64) + _U64(1)) * _U64(0x9E3779B97F4A7C15)
    return splitmix64(acc)


def simhash_band_keys(simhash: np.ndarray, pieces: int = 4) -> np.ndarray:
    """(n, pieces) band keys from 64-bit SimHash split into 16-bit pieces.

    Pigeonhole: Hamming distance ≤ pieces-1 guarantees at least one piece
    matches exactly — with pieces=4 this retrieves all pairs within Hamming 3
    (the default ``simhash_max_hamming``), matching the reference's
    threshold rule Hamming ≤ degree (``QdrantRepository.cs:192``).
    """
    n = simhash.shape[0]
    width = 64 // pieces
    mask = _U64((1 << width) - 1)
    out = np.empty((n, pieces), dtype=_U64)
    for i in range(pieces):
        piece = (simhash >> _U64(i * width)) & mask
        out[:, i] = mix64(piece, seed=0x51AA_0000 + i)
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount(a ^ b) over uint64 arrays."""
    x = (np.asarray(a, dtype=_U64) ^ np.asarray(b, dtype=_U64)).view(np.uint8)
    x = x.reshape(-1, 8)
    return np.unpackbits(x, axis=1).sum(axis=1).astype(np.int64)
