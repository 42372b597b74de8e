"""Signature stage — per-worker cached state, one fused task per read block.

Per-worker state (built once, like the DCT coefficient matrix in the static
ctor of Europa's ``ImageHashs/PerceptualHash.cs``): the 128 MinHash
permutation seeds and the engine config, held in a module cache once per
Ray worker process (see :func:`signature_task`). The stage maps whole
blocks, so Ray fuses it into the read: each read task decodes its block
and signs it at once, and file bodies never pass through the object store.
Per block: sha256 per row, then the kernels over chunks of about
``SIGN_CHUNK_BYTES`` of content, so their per-byte and per-token
temporaries stay near cache size: token boundaries (uint8 byte classes),
token hashes (only the ``max_sig_tokens`` each row keeps), 5-gram
shingles, then MinHash-128 over the shingle stream as it comes — a
per-slot minimum ignores repeats, so the bag's signature is the set's bit
for bit. Only a set-weighted 64-bit fuzzy kernel (SimHash) sorts the
stream into a per-row set first. Every kernel is per row, so the chunking
does not change a signature. Content is dropped from the output so no
downstream shuffle ever moves file bodies.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from europa_ray.config import DEFAULT_CONFIG, EngineConfig
from europa_ray.functions.sig import (
    make_perm_seeds,
    minhash_signatures,
    minhash_signatures_oph,
)
from europa_ray.functions.text import arrow_string_bytes, shingles, tokenize_bytes, unique_per_row
from europa_ray.util import hex_to_u64_arrow, sha256_hex_arrow

SIG_DTYPE = np.uint32  # low 32 bits of each minhash slot: halves shuffle
# volume; P(component collision) = 2^-32, immaterial for Jaccard estimates.

# content bytes the kernels take at a time: their per-byte and per-token
# temporaries then stay near cache size whatever the block size
SIGN_CHUNK_BYTES = 1 << 20


class SignatureStage:
    def __init__(
        self,
        cfg: EngineConfig = DEFAULT_CONFIG,
        id_cols: tuple[str, ...] = ("repo", "path", "commit"),
        compute_fuzzy: bool = True,
        compute_minhash: bool = True,
    ):
        from europa_ray.functions.registry import get_signature, signature_order_sensitive

        self.cfg = cfg
        self.id_cols = id_cols
        self.perm_seeds = make_perm_seeds(cfg.num_perm, cfg.seed)
        # config-selected 64-bit fuzzy algorithm (keyed-DI swap, §2.10/M6);
        # the output column keeps the name "simhash" whatever the algorithm.
        # compute_fuzzy=False / compute_minhash=False skip the respective
        # kernel (and its column) entirely — the MinHash flagship never
        # reads simhash, the SimHash pass never reads minhash.
        self.compute_fuzzy = compute_fuzzy
        self.compute_minhash = compute_minhash
        self.fuzzy_fn = get_signature(cfg.fuzzy_algo)
        # order-sensitive algorithms (diffhash) get the document-order
        # shingle stream; set-semantics algorithms (simhash) the sorted-
        # unique set — a sorted stream collapses anchor-comparison hashes
        self.fuzzy_ordered = signature_order_sensitive(cfg.fuzzy_algo)

    def __call__(self, batch: pa.Table) -> pa.Table:
        content = batch["content"]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        sha = sha256_hex_arrow(content)
        keep = np.array([h is not None for h in sha], dtype=bool)

        data, roff = arrow_string_bytes(content)
        parts = [
            self._sign(data[roff[r0] : roff[r1]], roff[r0 : r1 + 1] - roff[r0])
            for r0, r1 in byte_chunks(roff, SIGN_CHUNK_BYTES)
        ]
        n_tokens, sig, sim = (
            np.concatenate(col) if col[0] is not None else None for col in zip(*parts)
        )

        sha_kept = pa.array([h for h in sha if h is not None], pa.string())
        cols: dict[str, pa.Array] = {}
        for c in self.id_cols:
            if c in batch.column_names:
                cols[c] = batch[c].filter(pa.array(keep))
        cols["sha256"] = sha_kept
        # int64 bit-view: Ray groupby/join keys must be int64 (uint64 columns
        # degrade to pickled-object extension arrays in shuffles)
        cols["node"] = pa.array(hex_to_u64_arrow(sha_kept).view(np.int64))
        cols["n_tokens"] = pa.array(n_tokens[keep])
        if sig is not None:
            cols["minhash"] = pack_sigs(sig[keep])
        if sim is not None:
            cols["simhash"] = pa.array(sim[keep].view(np.int64))
        return pa.table(cols)

    def _sign(self, data: np.ndarray, roff: np.ndarray):
        """(token counts, MinHash matrix, fuzzy hashes) of one byte chunk's
        rows; a skipped kernel gives None."""
        cfg = self.cfg
        th, off = tokenize_bytes(data, roff, cfg.max_sig_tokens)
        sh, soff = shingles(th, off, cfg.shingle_k)
        # MinHash reads the shingle bag: the per-slot minimum ignores repeats
        if not self.compute_minhash:
            sig = None
        elif cfg.minhash_mode == "oph":
            sig = minhash_signatures_oph(sh, soff, cfg.num_perm, cfg.seed)
        else:
            sig = minhash_signatures(sh, soff, self.perm_seeds)  # uint32 (n, p)
        if not self.compute_fuzzy:
            sim = None
        elif self.fuzzy_ordered:
            sim = self.fuzzy_fn(sh, soff)
        else:
            sim = self.fuzzy_fn(*unique_per_row(sh, soff))
        return np.diff(off), sig, sim


def byte_chunks(row_offsets: np.ndarray, chunk_bytes: int) -> list[tuple[int, int]]:
    """Row ranges ``[r0, r1)`` that cut rows with the given byte offsets into
    runs of about ``chunk_bytes``: a new run starts at the first row that
    starts in the next ``chunk_bytes`` window, so a row longer than the
    window is a run of its own. At least one (possibly empty) run."""
    starts = row_offsets[:-1] // chunk_bytes
    cuts = (np.flatnonzero(starts[1:] != starts[:-1]) + 1).tolist()
    bounds = [0, *cuts, row_offsets.shape[0] - 1]
    return list(zip(bounds[:-1], bounds[1:]))


_STAGE_CACHE: dict[tuple, SignatureStage] = {}


def signature_task(batch: pa.Table, cfg: EngineConfig = DEFAULT_CONFIG,
                   id_cols: tuple[str, ...] = ("repo", "path", "commit"),
                   compute_fuzzy: bool = True,
                   compute_minhash: bool = True) -> pa.Table:
    """Task-based signature stage: per-worker-process cached state.

    The permutation table still lives once per worker (module-level cache —
    same once-per-worker semantics as actor ``__init__``) but runs in Ray's
    shared task workers: no dedicated actor-pool startup per pipeline, which
    profiling showed costs several seconds per stage on a cold pool.
    """
    # key on the WHOLE frozen config (hashable dataclass): a hand-picked
    # field subset silently reuses a stale stage when two configs differ
    # only in an unlisted field (e.g. max_sig_tokens)
    key = (cfg, id_cols, compute_fuzzy, compute_minhash)
    stage = _STAGE_CACHE.get(key)
    if stage is None:
        stage = SignatureStage(cfg, id_cols, compute_fuzzy, compute_minhash)
        _STAGE_CACHE[key] = stage
    return stage(batch)


def signatures(
    files,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    id_cols: tuple[str, ...] = ("repo", "path", "commit"),
    compute_fuzzy: bool = True,
    compute_minhash: bool = True,
):
    """Attach the signature stage to a files Dataset: :func:`signature_task`
    over warm shared task workers with per-process cached permutation state
    (a dedicated actor pool's startup cost outweighs this stage's tiny seed
    table). No ``batch_size``: Ray 2.49 never fuses a read, which may change
    row counts, into a map that asks for a minimum batch, so the map takes
    whole blocks and runs inside the read task; the task cuts its block
    into kernel chunks itself."""
    return files.map_batches(
        signature_task,
        fn_kwargs={
            "cfg": cfg,
            "id_cols": id_cols,
            "compute_fuzzy": compute_fuzzy,
            "compute_minhash": compute_minhash,
        },
        batch_format="pyarrow",
    )


def pack_sigs(mat: np.ndarray) -> pa.Array:
    """(n, p) uint32 signature matrix → binary column (p*4-byte blobs).

    Plain ``binary`` (not fixed-size-list) so signatures survive Acero joins
    as payload columns. Built directly from buffers — no per-row Python.
    """
    n, p = mat.shape
    data = np.ascontiguousarray(mat, dtype=SIG_DTYPE).tobytes()
    offsets = (np.arange(n + 1, dtype=np.int32) * (p * 4)).tobytes()
    return pa.Array.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(offsets), pa.py_buffer(data)]
    )


def minhash_matrix(tbl: pa.Table, num_perm: int) -> np.ndarray:
    """(n, num_perm) uint32 matrix from the packed binary ``minhash`` column."""
    col = tbl["minhash"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    width = num_perm * 4
    off_dtype = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[col.offset : col.offset + len(col) + 1]
    if len(col) == 0:
        return np.empty((0, num_perm), dtype=SIG_DTYPE)
    if (np.diff(offs) == width).all():
        data = np.frombuffer(bufs[2], dtype=np.uint8)[offs[0] : offs[-1]]
        return np.frombuffer(data.tobytes(), dtype=SIG_DTYPE).reshape(-1, num_perm)
    # non-uniform (shouldn't happen): per-row fallback
    return np.stack([np.frombuffer(x, dtype=SIG_DTYPE) for x in col.to_pylist()])
