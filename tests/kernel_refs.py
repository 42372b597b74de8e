"""Reference implementations of the signature kernels, kept as they were
before the cache-sized rewrite (byte-class LUT tokenizer, per-window row-id
shingle scatter, whole-batch OPH key build). The property tests in
``tests/test_kernel_refs.py`` pin the engine's kernels to these
bit for bit; they are not used by the engine."""

from __future__ import annotations

import numpy as np

from europa_ray.functions.text import TOKEN_RE
from europa_ray.util import mix64, splitmix64

_U64 = np.uint64
_POLY = _U64(0x100000001B3)

# 1 = word ([A-Za-z0-9_]), 0 = space ([ \t\n\r\f]), 2 = punct
BYTE_CLASS = np.full(256, 2, dtype=np.uint8)
for _b in b" \t\n\r\f":
    BYTE_CLASS[_b] = 0
for _r in (b"az", b"AZ", b"09"):
    BYTE_CLASS[_r[0] : _r[1] + 1] = 1
BYTE_CLASS[ord("_")] = 1

_LEN_MASKS = np.array([(1 << (8 * i)) - 1 for i in range(8)] + [(1 << 64) - 1], dtype=_U64)


def _finalize(head, tail, lens):
    with np.errstate(over="ignore"):
        return splitmix64(
            np.asarray(head, dtype=_U64)
            ^ splitmix64(np.asarray(tail, dtype=_U64) ^ splitmix64(np.asarray(lens, dtype=_U64)))
        )


def byte_token_hash(token_bytes: bytes) -> int:
    L = len(token_bytes)
    head = int.from_bytes(token_bytes[:8].ljust(8, b"\0"), "little")
    tail = int.from_bytes(token_bytes[max(0, L - 8) :].ljust(8, b"\0"), "little")
    return int(_finalize(np.array([head], _U64), np.array([tail], _U64), np.array([L], _U64))[0])


def token_boundaries(data: np.ndarray, row_offsets: np.ndarray):
    n_rows = row_offsets.shape[0] - 1
    n = data.shape[0]
    if n_rows:
        nonempty = np.diff(row_offsets) > 0
        ascii_rows = np.ones(n_rows, dtype=bool)
        if nonempty.any():
            seg_starts = row_offsets[:-1][nonempty].astype(np.int64)
            ascii_rows[nonempty] = np.maximum.reduceat(data, seg_starts) < 128
    else:
        ascii_rows = np.zeros(0, dtype=bool)
    cls = BYTE_CLASS[data]
    word = cls == 1
    prev_word = np.zeros(n, dtype=bool)
    prev_word[1:] = word[:-1]
    row_starts = row_offsets[:-1]
    prev_word[row_starts[row_starts < n]] = False
    next_word = np.zeros(n, dtype=bool)
    next_word[:-1] = word[1:]
    row_lasts = row_offsets[1:] - 1
    next_word[row_lasts[row_lasts >= 0]] = False
    is_start = word & ~prev_word
    is_start |= cls == 2
    starts = np.nonzero(is_start)[0]
    ends = starts + 1
    ends[word[starts]] = np.nonzero(word & ~next_word)[0] + 1
    start_offsets = np.searchsorted(starts, row_offsets)
    return ascii_rows, starts, ends, start_offsets


def tokenize_bytes(data: np.ndarray, row_offsets: np.ndarray):
    n_rows = row_offsets.shape[0] - 1
    n = data.shape[0]
    if n == 0:
        return np.empty(0, _U64), np.zeros(n_rows + 1, dtype=np.int64)
    ascii_rows, starts, ends, start_offsets = token_boundaries(data, row_offsets)
    lens = ends - starts
    tl = np.minimum(lens, 8)
    padded = np.zeros(n + 8, dtype=np.uint8)
    padded[:n] = data
    over = np.ndarray(buffer=padded, dtype=_U64, shape=(n + 1,), strides=(1,))
    head = over[starts] & _LEN_MASKS[tl]
    tail = over[ends - tl] & _LEN_MASKS[tl]
    tok_hash = _finalize(head, tail, lens.astype(_U64))
    fb_rows = np.nonzero(~ascii_rows)[0]
    if not fb_rows.shape[0]:
        return tok_hash, start_offsets
    counts = np.diff(start_offsets)
    parts = []
    prev = 0
    for r in fb_rows:
        parts.append(tok_hash[start_offsets[prev] : start_offsets[r]])
        prev = r + 1
        seg = data[row_offsets[r] : row_offsets[r + 1]].tobytes()
        toks = TOKEN_RE.findall(seg.decode("utf-8", errors="replace"))
        parts.append(np.array([byte_token_hash(t.encode("utf-8")) for t in toks], dtype=_U64))
        counts[r] = len(toks)
    parts.append(tok_hash[start_offsets[prev] :])
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return np.concatenate(parts), offsets


def poly_combine(tok_hash: np.ndarray, k: int) -> np.ndarray:
    n = tok_hash.shape[0]
    m = n - k + 1
    if m <= 0:
        return np.empty(0, dtype=_U64)
    with np.errstate(over="ignore"):
        acc = np.zeros(m, dtype=_U64)
        for j in range(k):
            acc = acc * _POLY + tok_hash[j : m + j]
    return mix64(acc, seed=k)


def shingles(tok_hash, offsets, k, *, short_row_fallback=True):
    n_rows = offsets.shape[0] - 1
    win = poly_combine(tok_hash, k)
    m = win.shape[0]
    row_lens = np.diff(offsets)
    short_n = 1 if short_row_fallback else 0
    per_row = np.where(row_lens >= k, row_lens - k + 1, np.where(row_lens > 0, short_n, 0))
    sh_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(per_row, out=sh_offsets[1:])
    out = np.empty(sh_offsets[-1], dtype=_U64)
    if m > 0:
        starts = np.arange(m, dtype=np.int64)
        row_of = np.repeat(np.arange(n_rows, dtype=np.int64), row_lens)[:m]
        valid = starts + k <= offsets[row_of + 1]
        if (row_lens >= k).any():
            vs = starts[valid]
            vrow = row_of[valid]
            out[sh_offsets[vrow] + (vs - offsets[vrow])] = win[vs]
    short = (
        np.nonzero((row_lens > 0) & (row_lens < k))[0]
        if short_row_fallback
        else np.empty(0, np.int64)
    )
    for r in short:
        seg = tok_hash[offsets[r] : offsets[r + 1]]
        with np.errstate(over="ignore"):
            acc = _U64(0)
            for v in seg:
                acc = acc * _POLY + v
        out[sh_offsets[r]] = mix64(np.array([acc], dtype=_U64), seed=int(len(seg)))[0]
    return out, sh_offsets


def minhash_signatures_oph(sh_flat, sh_offsets, num_perm, seed):
    n_rows = sh_offsets.shape[0] - 1
    p = num_perm
    out = np.full((n_rows, p), np.iinfo(np.uint32).max, dtype=np.uint32)
    m = sh_flat.shape[0]
    if m == 0 or n_rows == 0:
        return out
    pbits = int(p).bit_length() - 1
    y = mix64(sh_flat, seed=np.uint64(seed) ^ _U64(0x0F1D_BEEF_CAFE_F00D))
    bins = (y >> _U64(64 - pbits)).astype(np.int64)
    vals = (y & _U64(0xFFFFFFFF)).astype(np.uint32)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(sh_offsets))
    key = (rows * p + bins).astype(np.uint64)
    combo = np.sort((key << _U64(32)) | vals.astype(np.uint64))
    kk = (combo >> _U64(32)).astype(np.int64)
    newk = np.ones(m, dtype=bool)
    newk[1:] = kk[1:] != kk[:-1]
    sel_keys = kk[newk]
    out.ravel()[sel_keys] = (combo[newk] & _U64(0xFFFFFFFF)).astype(np.uint32)
    filled = np.zeros((n_rows, p), dtype=bool)
    filled.ravel()[sel_keys] = True
    any_filled = filled.any(axis=1)
    if not any_filled.all() or not filled.all():
        idx = np.where(filled, np.arange(p)[None, :], -1)
        ff = np.maximum.accumulate(idx, axis=1)
        last = ff[:, -1]
        ff = np.where(ff < 0, last[:, None], ff)
        rows_ok = np.nonzero(any_filled)[0]
        out[rows_ok] = out[rows_ok[:, None], ff[rows_ok]]
    return out
