"""Tokenization + shingling — the engine's "content normalization" stage.

This is the analog of Europa's thumbnail-normalization step
(``/root/reference/Api/Implementations/SimilarImages/ImageProcessors/
MagicScalerImageProcessor.cs:50-98``): reduce each artifact to a canonical
small representation before signatures. For source code that is a token
stream → k-gram shingle hash set.

Everything here is batch-vectorized: the only Python-level per-row work is a
compiled-regex ``findall`` (C speed); token hashing uses
``pandas.util.hash_array`` and shingle construction is a flat polynomial
rolling combine with row boundaries handled by masking — no Python loop over
tokens or shingles.
"""

from __future__ import annotations

import re

import numpy as np

from europa_ray.util import HASH_KEY, hash_strings, mix64

# \w+ (identifier/number runs) or single non-word-non-space char (operators,
# punctuation). re.ASCII so \w matches RE2-based SQL oracles (DuckDB
# regexp_extract_all uses ASCII \w). The space class is spelled EXPLICITLY
# as RE2's \s = [\t\n\f\r ] — Python's ASCII \s additionally includes \v
# (0x0B), which RE2 treats as a token character; using \s here would
# diverge from the DuckDB oracle on any input containing vertical tab.
TOKEN_RE = re.compile(r"\w+|[^\w \t\n\r\f]", re.ASCII)

_U64 = np.uint64
# odd multiplier for the polynomial rolling combine (any odd constant works;
# the result is finalized through splitmix64)
_POLY = _U64(0x100000001B3)  # FNV-64 prime


# --- zero-copy byte-level tokenizer -----------------------------------------
#
# Token identity = mix64 of a polynomial over the token's UTF-8 bytes — the
# SAME value whether produced by the vectorized ASCII fast path (prefix-sum
# trick over the raw Arrow buffer, no Python string objects) or the per-row
# regex fallback for non-ASCII rows. Token BOUNDARIES match ``TOKEN_RE``
# (RE2-semantics ``\w+|[^\w\s]``) exactly (byte classes below).

# byte classes: 1 = word ([A-Za-z0-9_]), 0 = space ([ \t\n\r\f] — RE2's \s,
# which excludes \v; see TOKEN_RE note), 2 = punct
_BYTE_CLASS = np.full(256, 2, dtype=np.uint8)
for _b in b" \t\n\r\f":
    _BYTE_CLASS[_b] = 0
for _r in (b"az", b"AZ", b"09"):
    _BYTE_CLASS[_r[0] : _r[1] + 1] = 1
_BYTE_CLASS[ord("_")] = 1

# mask selecting the low min(len, 8) bytes of a little-endian u64 load
_LEN_MASKS = np.array([(1 << (8 * i)) - 1 for i in range(8)] + [(1 << 64) - 1], dtype=_U64)


def _finalize_token_hash(head: np.ndarray, tail: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """(head8, tail8, length) → final token hash (both paths use this).

    Token identity is EXACT for tokens ≤ 16 bytes (head+tail cover every
    byte) — which is essentially all source-code tokens under
    ``\\w+|[^\\w\\s]`` — and (length, first 8, last 8 bytes) beyond that;
    collisions between distinct >16-byte identifiers sharing both affixes
    and length merely perturb one shingle.
    """
    from europa_ray.util import splitmix64

    with np.errstate(over="ignore"):
        return splitmix64(
            np.asarray(head, dtype=_U64)
            ^ splitmix64(np.asarray(tail, dtype=_U64) ^ splitmix64(np.asarray(lens, dtype=_U64)))
        )


def _byte_token_hash(token_bytes: bytes) -> int:
    """Reference (fallback-path) hash of one token's byte span — identical to
    the vectorized gather path."""
    L = len(token_bytes)
    head = int.from_bytes(token_bytes[:8].ljust(8, b"\0"), "little")
    tail = int.from_bytes(token_bytes[max(0, L - 8) :].ljust(8, b"\0"), "little")
    return int(
        _finalize_token_hash(
            np.array([head], dtype=_U64),
            np.array([tail], dtype=_U64),
            np.array([L], dtype=_U64),
        )[0]
    )


def _token_boundaries(
    data: np.ndarray, row_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared boundary machinery for ``tokenize_bytes`` and ``token_spans``
    (ONE implementation — the rewrite's span↔hash alignment depends on the
    two agreeing byte-for-byte): returns ``(ascii_rows, starts, ends,
    start_offsets)`` over the flat byte buffer, where row ``r``'s tokens are
    ``starts[start_offsets[r]:start_offsets[r + 1]]``. ``data`` must be
    non-empty.

    ascii-row detection: reduceat runs over NON-EMPTY rows' start offsets
    only (strictly increasing, all < n), so no index clipping is needed and
    every row's final byte is inspected — a clipped trailing offset would
    silently exclude the last byte of the preceding row from the check.
    Word runs reset at row boundaries (at each row's first byte for run
    starts, at its last byte for run ends) so runs never span adjacent rows
    in the contiguous buffer; run starts and run ends then pair up in order.
    """
    n_rows = row_offsets.shape[0] - 1
    n = data.shape[0]
    if n_rows:
        nonempty = np.diff(row_offsets) > 0
        ascii_rows = np.ones(n_rows, dtype=bool)  # empty rows: trivially ASCII
        if nonempty.any():
            seg_starts = row_offsets[:-1][nonempty].astype(np.int64)
            ascii_rows[nonempty] = np.maximum.reduceat(data, seg_starts) < 128
    else:
        ascii_rows = np.zeros(0, dtype=bool)

    cls = _BYTE_CLASS[data]
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
    # a punct token is one byte; the k-th word-run start ends at the k-th
    # word-run end
    ends = starts + 1
    ends[word[starts]] = np.nonzero(word & ~next_word)[0] + 1
    start_offsets = np.searchsorted(starts, row_offsets)
    return ascii_rows, starts, ends, start_offsets


def token_spans(
    data: np.ndarray, row_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Byte SPANS of every token: ``(starts, ends, token_offsets,
    passthrough_rows)`` — global positions into ``data``, token counts per
    row as offsets. Boundaries match ``tokenize_bytes`` / ``TOKEN_RE``
    exactly for ASCII rows (same LUT/run logic) and for valid-UTF-8
    non-ASCII rows (regex with a char→byte offset map). Rows that do NOT
    decode as UTF-8 are flagged in ``passthrough_rows`` and contribute no
    tokens — a span-rewrite consumer must copy them through unchanged
    (binary payloads are not text; mirrors the content-error routing
    policy in stages/errors.py)."""
    n_rows = row_offsets.shape[0] - 1
    n = data.shape[0]
    passthrough = np.zeros(n_rows, dtype=bool)
    if n == 0:
        z = np.zeros(n_rows + 1, dtype=np.int64)
        return np.empty(0, np.int64), np.empty(0, np.int64), z, passthrough

    ascii_rows, starts, ends, start_offsets = _token_boundaries(data, row_offsets)
    fb_rows = np.nonzero(~ascii_rows)[0]  # empty rows count as ASCII
    if not fb_rows.shape[0]:
        return starts, ends, start_offsets, passthrough

    # splice each fallback row's regex spans between the byte-level spans
    # of the ASCII rows around it
    counts = np.diff(start_offsets)
    s_parts, e_parts = [], []
    prev = 0
    for r in fb_rows:
        lo, hi = start_offsets[prev], start_offsets[r]
        s_parts.append(starts[lo:hi])
        e_parts.append(ends[lo:hi])
        prev = r + 1
        base = int(row_offsets[r])
        seg = data[base : row_offsets[r + 1]].tobytes()
        try:
            text = seg.decode("utf-8")
        except UnicodeDecodeError:
            passthrough[r] = True
            counts[r] = 0
            continue
        blens = np.fromiter(
            (len(c.encode("utf-8")) for c in text), dtype=np.int64, count=len(text)
        )
        boff = np.zeros(len(text) + 1, dtype=np.int64)
        np.cumsum(blens, out=boff[1:])
        spans = np.array(
            [(m.start(), m.end()) for m in TOKEN_RE.finditer(text)], dtype=np.int64
        ).reshape(-1, 2)
        s_parts.append(base + boff[spans[:, 0]])
        e_parts.append(base + boff[spans[:, 1]])
        counts[r] = spans.shape[0]
    s_parts.append(starts[start_offsets[prev] :])
    e_parts.append(ends[start_offsets[prev] :])
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return np.concatenate(s_parts), np.concatenate(e_parts), offsets, passthrough


def tokenize_bytes(
    data: np.ndarray, row_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize UTF-8 byte rows → (flat uint64 token hashes, token offsets).

    Fully vectorized for ASCII rows: byte classification via LUT, run
    detection via masked diffs, token hashing via modular prefix sums
    h(s,e) = (S[e] − S[s]) · P^−s (wraparound uint64; P odd ⇒ invertible),
    finalized with mix64(·, seed=token_len). Rows containing any byte ≥ 0x80
    take the regex fallback (identical hashes; unicode chars must tokenize
    per CHARACTER, not per byte, to match ``TOKEN_RE`` with re.ASCII).
    """
    n_rows = row_offsets.shape[0] - 1
    n = data.shape[0]
    if n == 0:
        return np.empty(0, _U64), np.zeros(n_rows + 1, dtype=np.int64)

    ascii_rows, starts, ends, start_offsets = _token_boundaries(data, row_offsets)

    # token hash from (head8, tail8, length): ONE unaligned little-endian u64
    # load per affix via an overlapping 1-byte-stride view, masked to the
    # token length — two gathers per token, no per-byte matrices
    lens = ends - starts
    tl = np.minimum(lens, 8)
    padded = np.zeros(n + 8, dtype=np.uint8)
    padded[:n] = data
    over = np.ndarray(buffer=padded, dtype=_U64, shape=(n + 1,), strides=(1,))
    head = over[starts] & _LEN_MASKS[tl]
    tail = over[ends - tl] & _LEN_MASKS[tl]
    tok_hash = _finalize_token_hash(head, tail, lens.astype(_U64))

    fb_rows = np.nonzero(~ascii_rows)[0]  # empty rows count as ASCII
    if not fb_rows.shape[0]:
        return tok_hash, start_offsets

    # fallback rows: regex on the decoded string, same byte-hash per token,
    # spliced between the fast-path tokens of the ASCII rows around them
    counts = np.diff(start_offsets)
    parts = []
    prev = 0
    for r in fb_rows:
        parts.append(tok_hash[start_offsets[prev] : start_offsets[r]])
        prev = r + 1
        seg = data[row_offsets[r] : row_offsets[r + 1]].tobytes()
        toks = TOKEN_RE.findall(seg.decode("utf-8", errors="replace"))
        parts.append(np.array([_byte_token_hash(t.encode("utf-8")) for t in toks], dtype=_U64))
        counts[r] = len(toks)
    parts.append(tok_hash[start_offsets[prev] :])
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return np.concatenate(parts), offsets


def arrow_string_bytes(arr) -> tuple[np.ndarray, np.ndarray]:
    """Arrow string column → (UTF-8 data bytes, per-row int64 offsets),
    ZERO-COPY from the column's buffers. Null rows have empty (equal-offset)
    spans — indistinguishable from empty strings by design."""
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n_rows = len(arr)
    if n_rows == 0:
        return np.empty(0, np.uint8), np.zeros(1, dtype=np.int64)
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    str_offsets = np.frombuffer(bufs[1], dtype=off_dtype)[
        arr.offset : arr.offset + n_rows + 1
    ].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    base = str_offsets[0]
    if base or str_offsets[-1] != data.shape[0]:
        data = data[base : str_offsets[-1]]
        str_offsets = str_offsets - base
    return np.ascontiguousarray(data), str_offsets


def tokenize_arrow(arr) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize an Arrow string column ZERO-COPY from its buffers."""
    data, str_offsets = arrow_string_bytes(arr)
    return tokenize_bytes(data, str_offsets)


def tokenize(texts) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize a batch of strings → (flat uint64 token hashes, row offsets).

    ``offsets`` has ``len(texts) + 1`` entries; row ``i``'s token hashes are
    ``flat[offsets[i]:offsets[i+1]]``. Thin wrapper over the byte-level
    tokenizer (one implementation for every call path).
    """
    import pyarrow as pa

    return tokenize_arrow(pa.array([t if t is not None else "" for t in texts], pa.string()))


def token_counts(texts) -> np.ndarray:
    """Per-row token count under TOKEN_RE (vectorized oracle-checkable)."""
    return np.fromiter(
        (len(TOKEN_RE.findall(t)) if t else 0 for t in texts), dtype=np.int64, count=len(texts)
    )


def token_count_arrow(arr) -> np.ndarray:
    """Per-row token count straight from the Arrow buffer — counts token
    STARTS (word-run starts + punct bytes) without computing token hashes:
    ~13× less work than full tokenization, 2× faster than per-row regex.
    Non-ASCII rows fall back to the regex (byte-level classes would count
    each UTF-8 continuation byte as a token; TOKEN_RE counts characters).
    Identity with ``token_counts`` is fuzz-tested."""
    data, roff = arrow_string_bytes(arr)
    n_rows = roff.shape[0] - 1
    out = np.zeros(n_rows, dtype=np.int64)
    n = data.shape[0]
    if n == 0 or n_rows == 0:
        return out
    lens = np.diff(roff)
    nonempty = lens > 0
    ascii_rows = np.ones(n_rows, dtype=bool)
    if nonempty.any():
        seg_starts = roff[:-1][nonempty].astype(np.int64)
        ascii_rows[nonempty] = np.maximum.reduceat(data, seg_starts) < 128

    cls = _BYTE_CLASS[data]
    word = cls == 1
    prev_word = np.zeros(n, dtype=bool)
    prev_word[1:] = word[:-1]
    starts_r = roff[:-1][roff[:-1] < n]
    prev_word[starts_r] = False
    is_start = (word & ~prev_word) | (cls == 2)
    # reduceat must run over ALL non-empty rows — a reduceat over only the
    # ASCII subset would extend each segment across the bytes of skipped
    # (non-ASCII) rows; mask afterwards instead
    if nonempty.any():
        counts_all = np.zeros(n_rows, dtype=np.int64)
        counts_all[nonempty] = np.add.reduceat(
            is_start.astype(np.int64), roff[:-1][nonempty].astype(np.int64)
        )
        counted = nonempty & ascii_rows
        out[counted] = counts_all[counted]
    fb = np.nonzero(~ascii_rows & nonempty)[0]
    for r in fb:
        seg = data[roff[r] : roff[r + 1]].tobytes()
        out[r] = len(TOKEN_RE.findall(seg.decode("utf-8", errors="replace")))
    return out


def _poly_combine(tok_hash: np.ndarray, k: int) -> np.ndarray:
    """Polynomial combine of every length-k window of a flat uint64 array.

    Returns one value per window start (``len - k + 1`` values), computed with
    k vectorized multiply-adds (k is small: 5 or 16) and a final splitmix64.
    """
    n = tok_hash.shape[0]
    m = n - k + 1
    if m <= 0:
        return np.empty(0, dtype=_U64)
    with np.errstate(over="ignore"):
        acc = np.zeros(m, dtype=_U64)
        for j in range(k):
            acc = acc * _POLY + tok_hash[j : m + j]
    return mix64(acc, seed=k)


def shingles(
    tok_hash: np.ndarray, offsets: np.ndarray, k: int, *, short_row_fallback: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """k-gram shingle hashes per row, fully vectorized across the batch.

    Windows are computed over the *flat* token-hash array, then windows that
    cross a row boundary are masked out. With ``short_row_fallback`` (the
    default), rows shorter than ``k`` (but non-empty) contribute a single
    whole-row shingle — the fallback for 1-token files (FIXTURES.md §1 edge
    rows); with it off, short rows contribute nothing (the w-gram semantics
    of the shared-substring pass, where a partial window is meaningless).

    Returns (flat shingle hashes, shingle offsets per row).
    """
    n_rows = offsets.shape[0] - 1
    n = tok_hash.shape[0]
    win = _poly_combine(tok_hash, k)  # one per flat window start
    m = win.shape[0]

    row_lens = np.diff(offsets)
    # number of shingles per row: len-k+1 if len>=k, 1 if 0<len<k, 0 if empty
    short_n = 1 if short_row_fallback else 0
    per_row = np.where(row_lens >= k, row_lens - k + 1, np.where(row_lens > 0, short_n, 0))
    sh_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(per_row, out=sh_offsets[1:])

    out = np.empty(sh_offsets[-1], dtype=_U64)

    if m > 0:
        # valid window starts: start in [offsets[r], offsets[r+1]-k] for row r
        starts = np.arange(m, dtype=np.int64)
        row_of = np.repeat(np.arange(n_rows, dtype=np.int64), row_lens)[:m]
        valid = starts + k <= offsets[row_of + 1]
        long_rows = row_lens >= k
        # destinations: rows with len>=k take their windows in order
        if long_rows.any():
            vs = starts[valid]
            # position within row + row's output offset
            vrow = row_of[valid]
            dest = sh_offsets[vrow] + (vs - offsets[vrow])
            out[dest] = win[vs]

    # short non-empty rows: one whole-row polynomial shingle each (rare path)
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


def truncate_rows(flat: np.ndarray, offsets: np.ndarray, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Clip every row segment to its first ``max_len`` elements (vectorized).

    Wide-row guard: a single multi-MB file otherwise becomes an end-of-stage
    straggler task. Mirrors the reference's partial-hash idea (signature from
    a bounded prefix, ``DuplicateByHashFinder.cs:42-44``).
    """
    lens = np.diff(offsets)
    if not (lens > max_len).any():
        return flat, offsets
    new_lens = np.minimum(lens, max_len)
    new_offsets = np.zeros_like(offsets)
    np.cumsum(new_lens, out=new_offsets[1:])
    keep = np.arange(flat.shape[0]) - np.repeat(offsets[:-1], lens) < max_len
    return flat[keep], new_offsets


def unique_per_row(
    flat: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate values within each row segment (shingle *sets*, not bags).

    Vectorized: sort each segment (via a composite key of row index and
    value), then drop adjacent duplicates within rows.
    """
    n_rows = offsets.shape[0] - 1
    n = flat.shape[0]
    if n == 0:
        return flat, offsets.copy()
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(offsets))
    order = np.lexsort((flat, row_of))
    sf = flat[order]
    sr = row_of[order]
    keep = np.ones(n, dtype=bool)
    keep[1:] = (sf[1:] != sf[:-1]) | (sr[1:] != sr[:-1])
    uf = sf[keep]
    ur = sr[keep]
    new_counts = np.bincount(ur, minlength=n_rows)
    new_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_offsets[1:])
    return uf, new_offsets
