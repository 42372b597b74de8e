"""Duplicated-span statistics — the ExactSubstr corpus-self-dedup measure
(Lee et al. 2021, "Deduplicating Training Data Makes Language Models
Better": remove every span that appears verbatim elsewhere in the corpus,
first occurrence wins). Realized over w-token grams:

- a position p of document d is DUPLICATED when its w-gram occurs at more
  than one (doc, pos) in the corpus and (d, p) is not the globally first
  occurrence (minimum packed (doc, pos) key — a 12-byte big-endian
  binary whose lexicographic order is numeric (id, pos) order for every
  int64 id; deterministic);
- a document's ``covered_tokens`` is the length of the union of the
  intervals [p, p+w) over its duplicated positions — exactly the token
  mass ExactSubstr dedup would delete from it.

Shape (all stages shuffle gram-hash metadata, never content):

1. gram stream: one ``map_batches`` pass emits (gram_hash, packed key) per
   token position — 16 B/position, the same exchange class as the LSH band
   explode;
2. ``groupby(gram).aggregate(count, min(key))`` — Ray's hash aggregate
   combines map-side, so the shuffle carries one row per distinct gram per
   block; duplicated grams (count > 1) with their first key are the ONLY
   rows that leave the aggregate;
3. the duplicated-gram set is broadcast (sorted arrays + ``ray.put``) and
   the gram stream is RECOMPUTED in a second content pass filtered against
   it (recompute is CPU-cheap; materializing the full position stream
   would cost 16 B/token of object store) — above ``broadcast_max_grams``
   a distributed hash join takes over (forced-budget equivalence test);
4. per-document interval-union coverage: ``groupby(doc).map_groups`` with
   a vectorized body (sort + diff: coverage = Σ min(next−p, w) + w).

Gram identity is the engine's 64-bit shingle hash; the SQL oracle groups
by the gram STRING. The two agree unless two distinct grams collide in 64
bits (P ≈ n²/2^65 — immaterial at any corpus size the oracle can check),
the same accepted identity trick as the n-gram Jaccard oracle's 64-bit
node ids.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from europa_ray.functions.text import shingles, span_hashes, tokenize_arrow

# The (doc, pos) occurrence key is a 12-byte big-endian binary string:
# 8 bytes of the id biased by +2^63 into uint64 space, then 4 bytes of the
# position. Lexicographic order == (id, pos) NUMERIC order for EVERY int64
# id — the previous ``doc_id * 2^32 + pos`` int64 packing silently
# overflowed for ids ≥ 2^31 (and hash-derived row_ids are arbitrary
# int64), after which the distributed path's floor-div/mod decode
# scattered duplicated positions onto the wrong documents (caught by a
# 6k-row broadcast-vs-distributed equivalence drive). pyarrow min() and
# joins handle binary columns; both dispatch paths share the encoding.
_ID_BIAS = np.uint64(1) << np.uint64(63)
# numpy domain: a structured (big-endian u64, big-endian u32) key — same
# 12-byte memory layout as the Arrow fixed_size_binary(12), field-wise
# lexicographic comparisons/argsort/searchsorted (the U256_DTYPE pattern).
# NOT numpy 'S12': the S dtype strips trailing NUL bytes on element
# access, silently corrupting keys whose position ends in zero bytes.
KEY_DTYPE = np.dtype([("u", ">u8"), ("p", ">u4")])
assert KEY_DTYPE.itemsize == 12


def _pack_np(ids: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """(int64 ids, int64 positions < 2^32) → structured KEY_DTYPE array."""
    out = np.empty(ids.shape[0], dtype=KEY_DTYPE)
    out["u"] = ids.astype(np.int64, copy=False).view(np.uint64) + _ID_BIAS
    out["p"] = pos
    return out


def _pack_keys(ids: np.ndarray, pos: np.ndarray) -> pa.Array:
    """Arrow fixed_size_binary(12) view of the packed keys (zero-copy of
    the structured buffer — identical byte layout)."""
    keys = _pack_np(ids, pos)
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(12), keys.shape[0], [None, pa.py_buffer(keys.tobytes())]
    )


def _decode_raw(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """KEY_DTYPE array → (int64 ids, int64 positions)."""
    ids = (keys["u"].astype(np.uint64) - _ID_BIAS).view(np.int64)
    return ids, keys["p"].astype(np.int64)


def _keys_np(col) -> np.ndarray:
    """Arrow 12-byte binary key column → structured KEY_DTYPE array."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=KEY_DTYPE)
    if pa.types.is_fixed_size_binary(arr.type):
        raw = np.frombuffer(arr.buffers()[1], dtype=np.uint8)[
            arr.offset * 12 : (arr.offset + n) * 12
        ]
        return np.ascontiguousarray(raw).view(KEY_DTYPE)
    # binary/large_binary (aggregate outputs may widen the type); every
    # value must be exactly 12 bytes — validated loudly, a silent
    # truncation here would scatter coverage onto wrong documents
    off_dtype = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset : arr.offset + n + 1
    ].astype(np.int64)
    if not (np.diff(offs) == 12).all():
        raise ValueError("corrupt span key: value width != 12 bytes")
    vals = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    raw = vals[int(offs[0]) : int(offs[-1])]
    return np.ascontiguousarray(raw).view(KEY_DTYPE)


def _unpack_keys(col) -> tuple[np.ndarray, np.ndarray]:
    return _decode_raw(_keys_np(col))


def _gram_stream(batch: pa.Table, *, id_col: str, w: int) -> pa.Table:
    th, off = tokenize_arrow(batch["content"])
    gh, goff = shingles(th, off, w, short_row_fallback=False)
    ids = batch[id_col].to_numpy()
    n_per = np.diff(goff)
    doc_rep = np.repeat(ids, n_per)
    pos = np.arange(gh.shape[0], dtype=np.int64) - np.repeat(goff[:-1], n_per)
    return pa.table(
        {
            "gram": pa.array(gh.view(np.int64)),
            "key": _pack_keys(doc_rep, pos),
        }
    )


def _coverage(group: pa.Table, *, w: int) -> pa.Table:
    doc = group["doc_id"][0].as_py()
    p = np.sort(group["pos"].to_numpy())
    if p.shape[0] == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "dup_positions": pa.array([], pa.int64()),
             "covered_tokens": pa.array([], pa.int64())}
        )
    covered = int(np.minimum(np.diff(p), w).sum()) + w
    return pa.table(
        {
            "doc_id": pa.array([doc], pa.int64()),
            "dup_positions": pa.array([p.shape[0]], pa.int64()),
            "covered_tokens": pa.array([covered], pa.int64()),
        }
    )


def dup_span_stats(
    files: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    w: int = 16,
    broadcast_max_grams: int = 5_000_000,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-document duplicated-span statistics (docs with ≥ 1 duplicated
    position): (doc_id, dup_positions, covered_tokens). See module doc."""
    from europa_ray.util import hash_join

    stream_kwargs = {"id_col": id_col, "w": w}

    from ray.data.aggregate import Count, Min

    stats = (
        files.map_batches(_gram_stream, fn_kwargs=stream_kwargs, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Count(), Min("key"))
        # Ray expr filters can't reference 'count()': rename, then filter
        .rename_columns({"count()": "n_occ", "min(key)": "first_key"})
        .filter(expr="n_occ > 1")
        .materialize()
    )
    n_dup_grams = stats.count()

    if n_dup_grams == 0:
        schema = pa.schema(
            [pa.field("doc_id", pa.int64()),
             pa.field("dup_positions", pa.int64()),
             pa.field("covered_tokens", pa.int64())]
        )
        return ray.data.from_arrow(schema.empty_table())

    if n_dup_grams <= broadcast_max_grams:
        g_parts, k_parts = [], []
        for b in stats.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
            g_parts.append(b["gram"].to_numpy())
            k_parts.append(_keys_np(b["first_key"]))
        grams = np.concatenate(g_parts)
        order = np.argsort(grams)
        grams, firsts = grams[order], np.concatenate(k_parts)[order]
        ref = ray.put((grams, firsts))

        def dup_positions(batch: pa.Table) -> pa.Table:
            gs, fs = ray.get(ref)
            t = _gram_stream(batch, **stream_kwargs)
            gv = t["gram"].to_numpy()
            kv = _keys_np(t["key"])
            idx = np.searchsorted(gs, gv)
            idx_c = np.minimum(idx, gs.shape[0] - 1)
            hit = (gs[idx_c] == gv) & (kv != fs[idx_c])
            docs, poss = _decode_raw(kv[hit])
            return pa.table({"doc_id": pa.array(docs), "pos": pa.array(poss)})

        dups = files.map_batches(dup_positions, batch_format="pyarrow")
    else:
        stream = files.map_batches(
            _gram_stream, fn_kwargs=stream_kwargs, batch_format="pyarrow"
        )
        joined = hash_join(stream, stats, "inner", ("gram",), num_partitions=num_partitions)

        def unpack(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            # binary != binary is unsupported in Ray's filter-expr parser;
            # filter vectorized here instead
            batch = batch.filter(
                pc.not_equal(batch["key"], batch["first_key"])
            )
            docs, poss = _unpack_keys(batch["key"])
            return pa.table({"doc_id": pa.array(docs), "pos": pa.array(poss)})

        dups = joined.map_batches(unpack, batch_format="pyarrow")

    return dups.groupby("doc_id").map_groups(
        _coverage, fn_kwargs={"w": w}, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# ExactSubstr span REMOVAL — the rewrite operator the stats above measure.
# Lee et al. 2021 §4.2: delete every duplicated span, first occurrence wins.
# Output text is WHITESPACE-CANONICAL: kept tokens joined by single spaces
# (the oracle reconstructs the identical string via string_agg(tok, ' ')),
# so rewritten_sha256 is value-comparable in pure SQL. Rows that fail UTF-8
# decoding pass through unchanged (binary is not text; counts 0/0).
# ---------------------------------------------------------------------------


def _covered_token_mask(
    toff: np.ndarray, dup_tok_start: np.ndarray, w: int
) -> np.ndarray:
    """Boolean mask over the batch's global token index space: token t is
    covered when some duplicated gram position starts ≤ w−1 tokens before
    it in the same row. ``dup_tok_start`` holds GLOBAL token indices of
    duplicated gram starts (already row-clipped by construction). One
    diff-array paint + cumsum — no Python loops."""
    tok_total = int(toff[-1])
    delta = np.zeros(tok_total + 1, dtype=np.int64)
    if dup_tok_start.shape[0]:
        row_of = np.searchsorted(toff, dup_tok_start, side="right") - 1
        ce = np.minimum(dup_tok_start + w, toff[row_of + 1])
        np.add.at(delta, dup_tok_start, 1)
        np.add.at(delta, ce, -1)
    return np.cumsum(delta[:-1]) > 0


def _rebuild_rows(
    data: np.ndarray,
    roff: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    toff: np.ndarray,
    keep_tok: np.ndarray,
    passthrough: np.ndarray,
):
    """Reconstruct canonical rewritten strings: kept token byte slices
    joined by single spaces (passthrough rows copied verbatim). Fully
    vectorized — ragged gather/scatter via repeat+cumsum index arithmetic,
    output built as an Arrow StringArray directly from (offsets, buffer).

    Returns ``(string_array, kept_counts, total_counts)``.
    """
    n_rows = roff.shape[0] - 1
    keep_idx = np.nonzero(keep_tok)[0]
    krow = np.searchsorted(toff, keep_idx, side="right") - 1
    # passthrough rows contribute one pseudo-segment = the whole raw row
    pt_rows = np.nonzero(passthrough)[0]
    seg_s = np.concatenate([s[keep_idx], roff[:-1][pt_rows]])
    seg_e = np.concatenate([e[keep_idx], roff[1:][pt_rows]])
    seg_row = np.concatenate([krow, pt_rows])
    order = np.argsort(seg_row, kind="stable")
    seg_s, seg_e, seg_row = seg_s[order], seg_e[order], seg_row[order]
    seg_len = seg_e - seg_s
    m = seg_len.shape[0]

    # +1 byte of separator after every segment except each row's last
    last_of_row = np.ones(m, dtype=bool)
    last_of_row[:-1] = seg_row[1:] != seg_row[:-1]
    out_len = seg_len + np.where(last_of_row, 0, 1)
    row_bytes = np.bincount(seg_row, weights=out_len, minlength=n_rows).astype(np.int64)
    new_off = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(row_bytes, out=new_off[1:])
    buf = np.full(int(new_off[-1]), 0x20, dtype=np.uint8)

    if m:
        gcum = np.zeros(m, dtype=np.int64)
        np.cumsum(out_len[:-1], out=gcum[1:])
        first_of_row = np.ones(m, dtype=bool)
        first_of_row[1:] = seg_row[1:] != seg_row[:-1]
        first_idx = np.nonzero(first_of_row)[0]
        row_base = np.repeat(gcum[first_idx], np.diff(np.append(first_idx, m)))
        dst = new_off[seg_row] + (gcum - row_base)
        tot = int(seg_len.sum())
        if tot:
            pre = np.zeros(m, dtype=np.int64)
            np.cumsum(seg_len[:-1], out=pre[1:])
            base = np.arange(tot, dtype=np.int64)
            gsrc = np.repeat(seg_s - pre, seg_len) + base
            gdst = np.repeat(dst - pre, seg_len) + base
            buf[gdst] = data[gsrc]

    if new_off[-1] > np.iinfo(np.int32).max:
        raise ValueError(
            "rewrite batch exceeds 2 GiB of output text — lower the read "
            "block size (DataContext.target_max_block_size) for this corpus"
        )
    arr = pa.StringArray.from_buffers(
        length=n_rows,
        value_offsets=pa.py_buffer(new_off.astype(np.int32).tobytes()),
        data=pa.py_buffer(buf.tobytes()),
    )
    kept_counts = np.bincount(krow, minlength=n_rows).astype(np.int64)
    total_counts = np.diff(toff).astype(np.int64)
    return arr, kept_counts, total_counts


REWRITE_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("kept_tokens", pa.int64()),
        pa.field("removed_tokens", pa.int64()),
        pa.field("rewritten_sha256", pa.string()),
    ]
)


def _rewrite_batch_common(
    batch: pa.Table, id_col: str, dup_tok_start_fn, w: int
) -> pa.Table:
    """Shared rewrite body: tokenize with spans, let ``dup_tok_start_fn``
    produce the duplicated gram starts (global token indices), paint the
    covered mask, rebuild canonical strings, hash them."""
    import pyarrow.compute as pc

    from europa_ray.functions.text import arrow_string_bytes, token_spans
    from europa_ray.util import sha256_hex_arrow

    mask = pc.greater(pc.utf8_length(batch["content"]), 0)
    batch = batch.filter(mask)
    if batch.num_rows == 0:
        return REWRITE_SCHEMA.empty_table()
    col = batch["content"]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    data, roff = arrow_string_bytes(arr)
    s, e, toff, passthrough = token_spans(data, roff)
    dup_tok_start = dup_tok_start_fn(batch, data, s, e, toff)
    covered = _covered_token_mask(toff, dup_tok_start, w)
    new_arr, kept, total = _rebuild_rows(data, roff, s, e, toff, ~covered, passthrough)
    # a fully-deduplicated doc legitimately rewrites to "" — hash it as
    # sha256('') (sha256_hex_arrow's empty→null policy is for INPUT rows,
    # HashGenerator.cs:18-19, not for a computed rewrite)
    import hashlib

    empty_sha = hashlib.sha256(b"").hexdigest()
    sha = pa.array(
        [h if h is not None else empty_sha for h in sha256_hex_arrow(new_arr)],
        pa.string(),
    )
    return pa.table(
        {
            "doc_id": pc.cast(batch[id_col], pa.int64()),
            "kept_tokens": pa.array(kept),
            "removed_tokens": pa.array(total - kept),
            "rewritten_sha256": sha,
        }
    )


def dedup_spans_rewrite(
    files: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    w: int = 16,
    broadcast_max_grams: int = 5_000_000,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """ExactSubstr span removal: per non-empty doc, ``(doc_id,
    kept_tokens, removed_tokens, rewritten_sha256)`` where the rewritten
    text drops every token covered by a duplicated, non-first w-gram
    occurrence and joins the survivors with single spaces (whitespace-
    canonical; see module notes). ``removed_tokens`` equals
    ``dup_span_stats``'s ``covered_tokens`` for every doc it reports.

    Scale shape mirrors :func:`dup_span_stats`: one gram aggregate, then
    either a broadcast duplicated-gram set (second content pass recomputes
    grams and rewrites in the same ``map_batches``) or, above
    ``broadcast_max_grams``, a distributed gram join whose per-doc
    duplicated positions are list-aggregated and hash-joined back to the
    corpus rows for the rewrite pass.
    """
    from europa_ray.util import hash_join

    stream_kwargs = {"id_col": id_col, "w": w}

    from ray.data.aggregate import Count, Min

    stats = (
        files.map_batches(_gram_stream, fn_kwargs=stream_kwargs, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Count(), Min("key"))
        .rename_columns({"count()": "n_occ", "min(key)": "first_key"})
        .filter(expr="n_occ > 1")
        .materialize()
    )
    n_dup_grams = stats.count()

    if n_dup_grams == 0 or n_dup_grams <= broadcast_max_grams:
        if n_dup_grams == 0:
            grams = np.empty(0, dtype=np.int64)
            firsts = np.empty(0, dtype=KEY_DTYPE)
        else:
            g_parts, k_parts = [], []
            for b in stats.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
                g_parts.append(b["gram"].to_numpy())
                k_parts.append(_keys_np(b["first_key"]))
            grams = np.concatenate(g_parts)
            order = np.argsort(grams)
            grams, firsts = grams[order], np.concatenate(k_parts)[order]
        ref = ray.put((grams, firsts))

        def dup_starts(batch, data, s, e, toff):
            gs, fs = ray.get(ref)
            if gs.shape[0] == 0:
                return np.empty(0, dtype=np.int64)
            from europa_ray.functions.text import shingles

            th = span_hashes(data, s, e)
            gh, goff = shingles(th, toff, w, short_row_fallback=False)
            ids = batch[id_col].to_numpy()
            n_per = np.diff(goff)
            pos = np.arange(gh.shape[0], dtype=np.int64) - np.repeat(goff[:-1], n_per)
            key = _pack_np(np.repeat(ids, n_per), pos)
            gv = gh.view(np.int64)
            idx = np.minimum(np.searchsorted(gs, gv), gs.shape[0] - 1)
            hit = (gs[idx] == gv) & (key != fs[idx])
            row_rep = np.repeat(
                np.arange(toff.shape[0] - 1, dtype=np.int64), n_per
            )
            return (toff[row_rep] + pos)[hit]

        return files.map_batches(
            _rewrite_batch_common,
            fn_kwargs={"id_col": id_col, "dup_tok_start_fn": dup_starts, "w": w},
            batch_format="pyarrow",
        )

    # --- distributed path: join dup positions, list-aggregate per doc,
    # hash-join back to the corpus rows ---
    stream = files.map_batches(
        _gram_stream, fn_kwargs=stream_kwargs, batch_format="pyarrow"
    )
    joined = hash_join(stream, stats, "inner", ("gram",), num_partitions=num_partitions)

    def unpack(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = batch.filter(pc.not_equal(batch["key"], batch["first_key"]))
        docs, poss = _unpack_keys(batch["key"])
        return pa.table({"doc_id": pa.array(docs), "pos": pa.array(poss)})

    def collect_positions(group: pa.Table) -> pa.Table:
        # positions packed as little-endian int64 bytes: pyarrow's hash
        # join cannot carry list-typed payload columns, binary it can
        doc = group["doc_id"][0].as_py()
        p = np.sort(group["pos"].to_numpy()).astype("<i8")
        return pa.table(
            {
                "__dup_doc": pa.array([doc], pa.int64()),
                "__dup_pos": pa.array([p.tobytes()], pa.large_binary()),
            }
        )

    from europa_ray.util import scrub_empty_blocks

    poslists = scrub_empty_blocks(
        joined.map_batches(unpack, batch_format="pyarrow")
        .groupby("doc_id")
        .map_groups(collect_positions, batch_format="pyarrow")
        .materialize(),
        pa.schema(
            [
                pa.field("__dup_doc", pa.int64()),
                pa.field("__dup_pos", pa.large_binary()),
            ]
        ),
    )
    withpos = hash_join(
        files, poslists, "left_outer", (id_col,), right_on=("__dup_doc",),
        num_partitions=num_partitions,
    ).materialize()

    def dup_starts_from_lists(batch, data, s, e, toff):
        import pyarrow.compute as pc

        col = batch["__dup_pos"]
        blobs = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        # vectorized decode of the packed int64 blobs: offsets buffer →
        # per-row byte spans (null rows zeroed), ragged gather of the
        # value bytes, reinterpret as little-endian int64
        off_dtype = np.int64 if pa.types.is_large_binary(blobs.type) else np.int32
        boff = np.frombuffer(blobs.buffers()[1], dtype=off_dtype)[
            blobs.offset : blobs.offset + len(blobs) + 1
        ].astype(np.int64)
        vals = np.frombuffer(blobs.buffers()[2], dtype=np.uint8)
        nbytes_row = np.diff(boff)
        null_mask = np.asarray(pc.is_null(blobs))
        nbytes_row = np.where(null_mask, 0, nbytes_row)
        total = int(nbytes_row.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        pre = np.zeros(nbytes_row.shape[0], dtype=np.int64)
        np.cumsum(nbytes_row[:-1], out=pre[1:])
        src = np.repeat(boff[:-1] - pre, nbytes_row) + np.arange(total)
        flat = np.frombuffer(vals[src].tobytes(), dtype="<i8")
        counts = nbytes_row // 8
        row_rep = np.repeat(np.arange(batch.num_rows, dtype=np.int64), counts)
        return toff[row_rep] + flat

    def rewrite_with_lists(batch: pa.Table) -> pa.Table:
        return _rewrite_batch_common(
            batch, id_col, dup_starts_from_lists, w
        )

    out = withpos.map_batches(rewrite_with_lists, batch_format="pyarrow").materialize()
    return scrub_empty_blocks(out, REWRITE_SCHEMA)
