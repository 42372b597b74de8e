"""Tokenization + shingling — the engine's "content normalization" stage.

This is the analog of Europa's thumbnail-normalization step
(``/root/reference/Api/Implementations/SimilarImages/ImageProcessors/
MagicScalerImageProcessor.cs:50-98``): reduce each artifact to a canonical
small representation before signatures. For source code that is a token
stream → k-gram shingle hash set.

Everything here is batch-vectorized over flat byte, token and shingle
arrays with row offsets, and each kernel makes few passes over arrays of
the chunk's size: token boundaries come from uint8 byte classes and one
glue mask (:func:`_token_boundaries`), token hashes from two affix loads
and in-place splitmix64 rounds (:func:`span_hashes`), shingles from an
in-place polynomial combine over the flat token array with one mask for
the windows that cross a row end. The only Python-level per-row work is
the compiled-regex fallback for non-ASCII rows — no Python loop over
tokens or shingles.
"""

from __future__ import annotations

import re

import numpy as np

from europa_ray.util import mix64, splitmix64, splitmix64_inplace

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
# Token identity = splitmix64 rounds over the token's length and its first
# and last 8 UTF-8 bytes — the SAME value whether produced by the vectorized
# ASCII fast path (affix loads from the raw Arrow buffer, no Python string
# objects) or the per-row regex fallback for non-ASCII rows. Token
# BOUNDARIES match ``TOKEN_RE`` (RE2-semantics ``\w+|[^\w\s]``) exactly
# (byte classes in ``_token_boundaries``).

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


def span_hashes(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Token hash of every byte span ``data[starts[i]:ends[i]]`` (spans are
    non-empty) — the value :func:`_finalize_token_hash` gives, computed in
    place.

    ONE unaligned little-endian u64 load per affix via an overlapping
    1-byte-stride view, masked to the token length. A token of at most 8
    bytes has its tail affix equal to its head, so the tail is loaded only
    for the longer tokens. The three splitmix64 rounds run in place over
    one hash array and one scratch array."""
    n = data.shape[0]
    padded = np.zeros(n + 8, dtype=np.uint8)
    padded[:n] = data
    over = np.ndarray(buffer=padded, dtype=_U64, shape=(n + 1,), strides=(1,))
    lens = ends - starts
    head = over[starts]
    head &= _LEN_MASKS[np.minimum(lens, 8)]
    h = lens.astype(_U64)
    scratch = np.empty_like(h)
    splitmix64_inplace(h, scratch)
    h ^= head
    long = np.flatnonzero(lens > 8)
    h[long] ^= head[long] ^ over[ends[long] - 8]  # tail affix in place of the head
    splitmix64_inplace(h, scratch)
    h ^= head
    return splitmix64_inplace(h, scratch)


def _token_boundaries(
    data: np.ndarray, row_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one byte-class definition and boundary pass behind
    ``tokenize_bytes``, ``token_spans`` and ``token_count_arrow`` (the
    rewrite's span↔hash alignment depends on them agreeing byte-for-byte):
    returns ``(ascii_rows, starts, ends, start_offsets)`` over the flat byte
    buffer, where row ``r``'s tokens are
    ``starts[start_offsets[r]:start_offsets[r + 1]]``. ``data`` must be
    non-empty.

    Byte classes match ``TOKEN_RE``: word = ``[A-Za-z0-9_]``, space =
    RE2's ``[ \\t\\n\\r\\f]`` (not ``\\v``), punct = every other byte. They
    are computed with uint8 arithmetic (a 256-entry LUT gather would widen
    every byte index to intp). A token byte (word or punct) starts a token
    unless it and the byte before it are both word bytes of one row
    ("glued"), and ends one unless it is glued to the byte after it; a
    punct byte is both. So one glue mask, cleared at row edges so runs
    never span adjacent rows of the contiguous buffer, gives the starts
    and the ends in one ``flatnonzero`` each.

    ascii-row detection: reduceat runs over NON-EMPTY rows' start offsets
    only (strictly increasing, all < n), so no index clipping is needed and
    every row's final byte is inspected.
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

    t = data | np.uint8(0x20)  # ASCII letters fold to lower case
    t -= np.uint8(ord("a"))
    word = t < 26
    tmp = np.empty(n, dtype=bool)
    np.subtract(data, np.uint8(ord("0")), out=t)
    word |= np.less(t, 10, out=tmp)
    word |= np.equal(data, ord("_"), out=tmp)
    np.subtract(data, np.uint8(9), out=t)  # \t \n \v \f \r → 0..4
    token = np.greater_equal(t, 5, out=tmp)
    token |= data == 11  # \v is a token byte
    token &= data != ord(" ")
    glue = word[:-1] & word[1:]
    edges = row_offsets[1:-1]
    glue[edges[(edges > 0) & (edges < n)] - 1] = False
    np.logical_not(glue, out=glue)
    is_start = token.copy()
    is_start[1:] &= glue
    token[:-1] &= glue  # now: is a token's last byte
    starts = np.flatnonzero(is_start)
    ends = np.flatnonzero(token)
    ends += 1
    start_offsets = np.searchsorted(starts, row_offsets)
    return ascii_rows, starts, ends, start_offsets


def token_spans(
    data: np.ndarray, row_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Byte SPANS of every token: ``(starts, ends, token_offsets,
    passthrough_rows)`` — global positions into ``data``, token counts per
    row as offsets. Boundaries match ``tokenize_bytes`` / ``TOKEN_RE``
    exactly for ASCII rows (same boundary pass) and for valid-UTF-8
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
    data: np.ndarray, row_offsets: np.ndarray, max_tokens: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize UTF-8 byte rows → (flat uint64 token hashes, token offsets).

    Fully vectorized for ASCII rows: token boundaries from
    :func:`_token_boundaries`, hashes from :func:`span_hashes` (length,
    first 8 and last 8 bytes through splitmix64). Rows containing any byte
    ≥ 0x80 take the regex fallback (identical hashes; unicode chars must
    tokenize per CHARACTER, not per byte, to match ``TOKEN_RE`` with
    re.ASCII).

    ``max_tokens`` keeps each row's first ``max_tokens`` tokens — the same
    arrays as :func:`truncate_rows` over the full result, but only the kept
    tokens are hashed.
    """
    n_rows = row_offsets.shape[0] - 1
    n = data.shape[0]
    if n == 0:
        return np.empty(0, _U64), np.zeros(n_rows + 1, dtype=np.int64)

    ascii_rows, starts, ends, start_offsets = _token_boundaries(data, row_offsets)
    if max_tokens is not None:
        keep, start_offsets = _truncate_mask(start_offsets, max_tokens)
        if keep is not None:
            starts, ends = starts[keep], ends[keep]
    tok_hash = span_hashes(data, starts, ends)

    fb_rows = np.nonzero(~ascii_rows)[0]  # empty rows count as ASCII
    if not fb_rows.shape[0]:
        return tok_hash, start_offsets

    # fallback rows: regex on the decoded string, the same span hash over
    # the tokens' UTF-8 bytes laid end to end, spliced between the
    # fast-path tokens of the ASCII rows around them
    counts = np.diff(start_offsets)
    parts = []
    prev = 0
    for r in fb_rows:
        parts.append(tok_hash[start_offsets[prev] : start_offsets[r]])
        prev = r + 1
        seg = data[row_offsets[r] : row_offsets[r + 1]].tobytes()
        toks = [
            t.encode("utf-8")
            for t in TOKEN_RE.findall(seg.decode("utf-8", errors="replace"))[:max_tokens]
        ]
        tok_lens = np.fromiter(map(len, toks), np.int64, len(toks))
        tok_ends = np.cumsum(tok_lens)
        parts.append(
            span_hashes(np.frombuffer(b"".join(toks), np.uint8), tok_ends - tok_lens, tok_ends)
        )
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


def tokenize_arrow(arr, max_tokens: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize an Arrow string column ZERO-COPY from its buffers
    (``max_tokens`` as in :func:`tokenize_bytes`)."""
    data, str_offsets = arrow_string_bytes(arr)
    return tokenize_bytes(data, str_offsets, max_tokens)


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
    """Per-row token count straight from the Arrow buffer: the token starts
    of :func:`_token_boundaries` per row, without computing token hashes.
    Non-ASCII rows fall back to the regex (byte-level classes would count
    each UTF-8 continuation byte as a token; TOKEN_RE counts characters).
    Identity with ``token_counts`` is fuzz-tested."""
    data, roff = arrow_string_bytes(arr)
    n_rows = roff.shape[0] - 1
    if data.shape[0] == 0:
        return np.zeros(n_rows, dtype=np.int64)
    ascii_rows, _, _, start_offsets = _token_boundaries(data, roff)
    out = np.diff(start_offsets)
    for r in np.flatnonzero(~ascii_rows):
        seg = data[roff[r] : roff[r + 1]].tobytes()
        out[r] = len(TOKEN_RE.findall(seg.decode("utf-8", errors="replace")))
    return out


def _poly_windows(tok_hash: np.ndarray, k: int) -> np.ndarray:
    """Unfinalized polynomial combine of every length-k window of a flat
    uint64 array: one value per window start (``len - k + 1`` values), from
    k − 1 in-place multiply-adds over one accumulator (k is small: 5 or 16).
    ``mix64(value, seed=k)`` is the window's hash."""
    m = tok_hash.shape[0] - k + 1
    if m <= 0:
        return np.empty(0, dtype=_U64)
    acc = tok_hash[:m].copy()
    with np.errstate(over="ignore"):
        for j in range(1, k):
            acc *= _POLY
            acc += tok_hash[j : m + j]
    return acc


def shingles(
    tok_hash: np.ndarray, offsets: np.ndarray, k: int, *, short_row_fallback: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """k-gram shingle hashes per row, fully vectorized across the batch.

    Windows are combined over the *flat* token-hash array; one mask then
    drops the windows that cross a row end (the last k − 1 starts before
    each row end), and only the kept windows are finalized. They are
    already in output order, so they are the output as they stand unless a
    short row needs a slot between them. With ``short_row_fallback`` (the
    default), rows shorter than ``k`` (but non-empty) contribute a single
    whole-row shingle — the fallback for 1-token files (FIXTURES.md §1 edge
    rows); with it off, short rows contribute nothing (the w-gram semantics
    of the shared-substring pass, where a partial window is meaningless).

    Returns (flat shingle hashes, shingle offsets per row).
    """
    n_rows = offsets.shape[0] - 1
    row_lens = np.diff(offsets)
    # number of shingles per row: len-k+1 if len>=k, 1 if 0<len<k, 0 if empty
    short_n = 1 if short_row_fallback else 0
    per_row = np.where(row_lens >= k, row_lens - k + 1, np.where(row_lens > 0, short_n, 0))
    sh_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(per_row, out=sh_offsets[1:])

    win = _poly_windows(tok_hash, k)  # one per flat window start
    m = win.shape[0]
    if m > 0 and k > 1:
        valid = np.ones(m, dtype=bool)
        row_starts, row_ends = offsets[:-1], offsets[1:]
        for j in range(1, k):
            cut = row_ends - j
            valid[cut[(cut >= row_starts) & (cut < m)]] = False
        win = win[valid]
    win ^= _U64(k)  # mix64(win, seed=k), in place
    splitmix64_inplace(win)

    short = (
        np.nonzero((row_lens > 0) & (row_lens < k))[0]
        if short_row_fallback
        else np.empty(0, np.int64)
    )
    if not short.shape[0]:
        return win, sh_offsets
    # short non-empty rows: one whole-row polynomial shingle each (rare path)
    out = np.empty(sh_offsets[-1], dtype=_U64)
    slot = np.ones(out.shape[0], dtype=bool)
    slot[sh_offsets[short]] = False
    out[slot] = win
    for r in short:
        seg = tok_hash[offsets[r] : offsets[r + 1]]
        with np.errstate(over="ignore"):
            acc = _U64(0)
            for v in seg:
                acc = acc * _POLY + v
        out[sh_offsets[r]] = mix64(np.array([acc], dtype=_U64), seed=int(len(seg)))[0]
    return out, sh_offsets


def _truncate_mask(offsets: np.ndarray, max_len: int) -> tuple[np.ndarray | None, np.ndarray]:
    """(keep mask over the flat elements, new offsets) that clip every row to
    its first ``max_len`` elements; the mask is None when no row is longer."""
    lens = np.diff(offsets)
    if not (lens > max_len).any():
        return None, offsets
    new_offsets = np.zeros_like(offsets)
    np.cumsum(np.minimum(lens, max_len), out=new_offsets[1:])
    keep = np.arange(offsets[-1]) - np.repeat(offsets[:-1], lens) < max_len
    return keep, new_offsets


def truncate_rows(flat: np.ndarray, offsets: np.ndarray, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Clip every row segment to its first ``max_len`` elements (vectorized).

    Wide-row guard: a single multi-MB file otherwise becomes an end-of-stage
    straggler task. Mirrors the reference's partial-hash idea (signature from
    a bounded prefix, ``DuplicateByHashFinder.cs:42-44``).
    """
    keep, new_offsets = _truncate_mask(offsets, max_len)
    return (flat, offsets) if keep is None else (flat[keep], new_offsets)


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
