"""Text-analysis operators for training-data pipelines: token counting,
quality scoring, language ID, document fingerprinting.

All are stateless vectorized ``map_batches`` stages over the ``documents``
(or ``files``) table, computed straight from the Arrow string buffers — no
``to_pylist`` round-trips and no per-row Python in any hot path. Quality /
token-count semantics are chosen to be exactly SQL-expressible so the
driver's DuckDB oracle can verify them value-for-value (ASCII classes match
RE2 semantics; counting ASCII-class *bytes* equals counting matching
*characters* because UTF-8 multi-byte sequences contain no bytes < 0x80).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from europa_ray.functions.text import (
    arrow_string_bytes,
    token_count_arrow,
    tokenize_arrow,
)
from europa_ray.util import mix64, splitmix64

# byte-class LUTs (uint8 0/1): ASCII classes only, exact per-character under
# UTF-8 (see module docstring)
_ALPHA_LUT = np.zeros(256, dtype=np.uint8)
_ALPHA_LUT[ord("A") : ord("Z") + 1] = 1
_ALPHA_LUT[ord("a") : ord("z") + 1] = 1
_DIGIT_LUT = np.zeros(256, dtype=np.uint8)
_DIGIT_LUT[ord("0") : ord("9") + 1] = 1
# quality whitespace class is the ORACLE's explicit [ \t\n\r\f\v] (this one
# deliberately includes \v — both sides of the oracle spell it out)
_WS_LUT = np.zeros(256, dtype=np.uint8)
for _b in b" \t\n\r\f\v":
    _WS_LUT[_b] = 1


def _class_counts(data: np.ndarray, offsets: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """Per-row count of bytes whose LUT entry is 1 (vectorized reduceat)."""
    n_rows = offsets.shape[0] - 1
    out = np.zeros(n_rows, dtype=np.int64)
    if data.shape[0] == 0 or n_rows == 0:
        return out
    flags = lut[data]
    nonempty = np.diff(offsets) > 0
    if nonempty.any():
        starts = offsets[:-1][nonempty].astype(np.int64)
        out[nonempty] = np.add.reduceat(flags.astype(np.int64), starts)
    return out


def _utf8_lengths(col) -> np.ndarray:
    """Per-row character count (oracle ``length(text)``); null → 0."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.fill_null(pc.utf8_length(col), 0).cast(pa.int64()).to_numpy()


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-row token count via the byte-level start counter (no hashing)."""
    out = batch.select([c for c in batch.column_names if c != text_col])
    return out.append_column("n_tokens", pa.array(token_count_arrow(batch[text_col])))


def quality_ppm_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality ratios as integer parts-per-million (floor division) — exact
    integer arithmetic on both the engine and the DuckDB-oracle side, so the
    driver's value-hash comparison is immune to float rounding-mode skew."""
    col = batch[text_col]
    data, off = arrow_string_bytes(col)
    n_chars = _utf8_lengths(col)
    alpha = _class_counts(data, off, _ALPHA_LUT)
    digit = _class_counts(data, off, _DIGIT_LUT)
    ws = _class_counts(data, off, _WS_LUT)
    denom = np.maximum(n_chars, 1)
    ours = {"n_chars", "alpha_ppm", "digit_ppm", "ws_ppm"}
    out = batch.select([c for c in batch.column_names if c != text_col and c not in ours])
    out = out.append_column("n_chars", pa.array(n_chars))
    out = out.append_column("alpha_ppm", pa.array(alpha * 1_000_000 // denom))
    out = out.append_column("digit_ppm", pa.array(digit * 1_000_000 // denom))
    out = out.append_column("ws_ppm", pa.array(ws * 1_000_000 // denom))
    return out


def text_profile_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Fused single-pass profile: token count + length + quality ppms.

    Separate ``token_count_batch`` / ``quality_ppm_batch`` pipelines each
    re-read and re-decode the corpus; at 100 TB that is two full storage
    scans for columns computable from ONE buffer pass. This stage extracts
    the Arrow string buffers once and emits the union of both outputs —
    the oracle is the join of their two (individually green) oracles."""
    col = batch[text_col]
    data, off = arrow_string_bytes(col)
    n_chars = _utf8_lengths(col)
    alpha = _class_counts(data, off, _ALPHA_LUT)
    digit = _class_counts(data, off, _DIGIT_LUT)
    ws = _class_counts(data, off, _WS_LUT)
    denom = np.maximum(n_chars, 1)
    ours = {"n_tokens", "n_chars", "alpha_ppm", "digit_ppm", "ws_ppm"}
    out = batch.select([c for c in batch.column_names if c != text_col and c not in ours])
    out = out.append_column("n_tokens", pa.array(token_count_arrow(col)))
    out = out.append_column("n_chars", pa.array(n_chars))
    out = out.append_column("alpha_ppm", pa.array(alpha * 1_000_000 // denom))
    out = out.append_column("digit_ppm", pa.array(digit * 1_000_000 // denom))
    out = out.append_column("ws_ppm", pa.array(ws * 1_000_000 // denom))
    return out


# ---------------------------------------------------------------------------
# language ID — lexicon-profile scorer (vectorized)
# ---------------------------------------------------------------------------
#
# Method: per-language common-word (stopword) profiles from public lists;
# score = fraction of a document's first 400 tokens that hit the profile;
# prediction = argmax (ties → first language in _LANG_ORDER), 'und' when no
# profile scores > 0. This is a HEURISTIC — a lexicon scorer, not a trained
# char-n-gram model — but it is measured: on the labeled natural-language
# sample in tests/test_textstats.py it scores 100% across the 10 languages
# (documented there; synthetic `documents.text` is vocabulary-identical
# across its lang labels, so that column cannot serve as ground truth).
# Matching is done on the tokenizer's 64-bit token hashes, which are exact
# identities for tokens ≤ 16 bytes (every profile word qualifies), so hash
# matching ≡ string matching.

_LANG_PROFILES: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "in", "is", "that", "it", "for", "with",
           "as", "was", "on", "are", "this", "be", "at", "by", "not", "from"),
    "de": ("der", "die", "und", "das", "ist", "nicht", "mit", "ein", "eine",
           "zu", "auf", "den", "von", "sich", "des", "im", "dem", "auch",
           "es", "werden"),
    "fr": ("le", "la", "les", "et", "est", "pas", "pour", "que", "une",
           "dans", "des", "du", "il", "qui", "sur", "se", "plus", "ne",
           "au", "ce"),
    "es": ("el", "la", "los", "las", "y", "es", "no", "para", "que", "una",
           "en", "de", "del", "se", "por", "con", "su", "al", "lo", "como"),
    "it": ("il", "la", "che", "e", "non", "per", "una", "sono", "di", "con",
           "del", "le", "si", "da", "in", "un", "al", "dei", "come", "anche"),
    "pt": ("o", "a", "os", "as", "e", "de", "do", "da", "que", "não", "para",
           "uma", "com", "em", "um", "por", "mais", "dos", "se", "como"),
    "nl": ("de", "het", "een", "en", "van", "is", "dat", "op", "te", "zijn",
           "voor", "met", "niet", "aan", "er", "ook", "als", "maar", "om",
           "bij"),
    "sv": ("och", "att", "det", "som", "en", "på", "är", "av", "för", "med",
           "den", "till", "inte", "om", "ett", "han", "var", "jag", "de",
           "så"),
    "pl": ("i", "w", "się", "na", "nie", "z", "do", "to", "że", "jest",
           "jak", "po", "co", "tak", "za", "od", "ale", "czy", "przez", "o"),
    "tr": ("bir", "ve", "bu", "da", "de", "için", "ile", "mi", "ne", "o",
           "çok", "daha", "gibi", "ama", "en", "var", "ben", "sen", "olarak",
           "kadar"),
}
_LANG_ORDER = tuple(_LANG_PROFILES)

_MAX_LANG_TOKENS = 400


def _profile_hashes() -> list[np.ndarray]:
    from europa_ray.functions.text import _byte_token_hash

    return [
        np.array([_byte_token_hash(w.encode("utf-8")) for w in _LANG_PROFILES[lang]],
                 dtype=np.uint64)
        for lang in _LANG_ORDER
    ]


_PROFILE_HASHES = _profile_hashes()

# Char-trigram fallback profiles (Cavnar & Trenkle-style n-gram text
# categorization, "N-Gram-Based Text Categorization", SDAIR'94): when a
# document hits NO stopword lexicon (technical prose, inflected forms,
# compound-heavy text), score byte trigrams of the lowered UTF-8 text
# against per-language high-frequency trigram lists instead of emitting
# 'und'. Curated from public language trigram-frequency tables; union'd
# with the trigrams of the lexicon words themselves (space-padded, so
# word-boundary grams like " de" / "er " are included).
_FALLBACK_TRIGRAMS: dict[str, tuple[str, ...]] = {
    "en": ("the", "ing", "ion", "ent", "ati", "tio", "ter", "ere", "her",
           "ate", "est", "all", "eve", "ith", "ver", "res", "ons", "men"),
    "de": ("sch", "ich", "ein", "cht", "nde", "che", "ung", "gen", "und",
           "der", "die", "end", "ber", "hen", "eit", "lic", "ver", "ten"),
    "fr": ("ent", "les", "ion", "ait", "eur", "our", "ais", "men", "qué",
           "tio", "que", "eme", "ons", "ant", "iqu", "ell", "nce", "es "),
    "es": ("ció", "ión", "aci", "ent", "ado", "est", "nte", "con",
           "cia", "mie", "sta", "per", "ien", "res", "tra", "cas", "oso"),
    "it": ("zio", "ion", "che", "ell", "nte", "per", "ato", "gli", "ita",
           "men", "ere", "ant", "ono", "tta", "sta", "ssi", "ale"),
    "pt": ("ção", "ent", "ado", "est", "nte", "com", "aca", "ura",
           "men", "ria", "dos", "ess", "nha", "oes", "ões", "eir"),
    "nl": ("aar", "oor", "ijk", "nde", "ver", "gen", "een", "cht", "sch",
           "der", "ing", "eli", "ete", "eer", "ien", "aat"),
    "sv": ("för", "och", "ill", "tt ", "ng ", "ans", "nin", "ade", "are",
           "sjö", "ång", "äll", "ter", "nde", "lig", "ken", "mma"),
    "pl": ("prz", "rze", "ego", "owa", "nie", "sta", "ani", "owi", "ych",
           "ej ", "ści", "dzi", "ała", "czn", "ost", "wie", "sze"),
    "tr": ("lar", "ler", "bir", "in ", "an ", "den", "eri", "ını", "ara",
           "ile", "yor", "mak", "lik", "ası", "da ", "tır", "nda"),
}


def _byte_trigram_codes(data: np.ndarray) -> np.ndarray:
    """All overlapping byte trigrams of a uint8 array as uint32 codes."""
    if data.shape[0] < 3:
        return np.empty(0, dtype=np.uint32)
    d = data.astype(np.uint32)
    return (d[:-2] << 16) | (d[1:-1] << 8) | d[2:]


# Additional common words per language used ONLY for trigram derivation
# (affix/orthography carriers: the fallback fires precisely on text whose
# exact stopwords are absent, so the profiles need in-word morphology —
# -ung/-lich/-keit, -ción, -ção, -zione, -ning, -ijk, -ować, -lar/-ler).
_FALLBACK_WORDS: dict[str, tuple[str, ...]] = {
    "en": ("development", "information", "system", "testing", "require",
           "important", "different", "language", "through", "because"),
    "de": ("entwicklung", "prüfung", "sprache", "möglich", "wichtig",
           "schwierig", "zuverlässig", "während", "system", "keit"),
    "fr": ("développement", "vérification", "système", "important",
           "différent", "langage", "toujours", "nouveau", "pendant"),
    "es": ("desarrollo", "verificación", "sistema", "importante",
           "diferente", "lenguaje", "siempre", "durante", "también"),
    "it": ("sviluppo", "verifica", "sistema", "importante", "differente",
           "linguaggio", "sempre", "durante", "perché", "situazione"),
    "pt": ("desenvolvimento", "verificação", "sistema", "importante",
           "diferente", "linguagem", "sempre", "durante", "também"),
    "nl": ("ontwikkeling", "verificatie", "systeem", "belangrijk",
           "verschillend", "moeilijk", "betrouwbaar", "tijdens",
           "zorgvuldig", "waarderen", "programmeertalen"),
    "sv": ("utveckling", "verifiering", "språk", "viktig", "pålitlig",
           "svår", "förändring", "noggrann", "användning", "skattar"),
    "pl": ("rozwój", "weryfikacja", "język", "ważny", "różny", "trudny",
           "niezawodny", "podczas", "programowanie", "używać"),
    "tr": ("geliştirme", "doğrulama", "sistem", "önemli", "farklı",
           "zorlu", "güvenilir", "sırasında", "programlama", "kullanmak",
           "gerektirir", "dilleri"),
}


def _trigram_profiles() -> list[np.ndarray]:
    profs = []
    for lang in _LANG_ORDER:
        grams: set[int] = set()
        for g in _FALLBACK_TRIGRAMS[lang]:
            b = g.encode("utf-8")
            for i in range(len(b) - 2):
                grams.add((b[i] << 16) | (b[i + 1] << 8) | b[i + 2])
        for w in _LANG_PROFILES[lang] + _FALLBACK_WORDS[lang]:
            b = (" " + w + " ").encode("utf-8")
            for i in range(len(b) - 2):
                grams.add((b[i] << 16) | (b[i + 1] << 8) | b[i + 2])
        profs.append(np.array(sorted(grams), dtype=np.uint32))
    return profs


_TRIGRAM_PROFILES = _trigram_profiles()

_MAX_LANG_BYTES = 2048  # fallback looks at the first 2 KiB only
_MIN_LEXICON_SCORE = 0.06  # below this the lexicon verdict is noise


def _trigram_scores(col: pa.Array, rows: np.ndarray) -> np.ndarray:
    """(n_lang, len(rows)) trigram-hit fractions for the selected rows of a
    lowered string array — fully vectorized (one flat trigram stream +
    ``add.reduceat`` per language; row-crossing trigrams masked out)."""
    sub = col.take(pa.array(rows))
    sub = pc.binary_slice(sub.cast(pa.binary()), 0, _MAX_LANG_BYTES)
    data, off = arrow_string_bytes(sub)
    n = rows.shape[0]
    scores = np.zeros((len(_LANG_ORDER), n), dtype=np.float64)
    tri = _byte_trigram_codes(data)
    if tri.shape[0] == 0:
        return scores
    # a trigram starting at byte p belongs to row r iff p+3 <= off[r+1]
    tri_row = np.searchsorted(off, np.arange(tri.shape[0], dtype=np.int64), side="right") - 1
    valid = np.arange(tri.shape[0], dtype=np.int64) + 3 <= off[tri_row + 1]
    tri = tri[valid]
    tri_row = tri_row[valid]
    if tri.shape[0] == 0:
        return scores
    counts = np.bincount(tri_row, minlength=n).astype(np.float64)
    denom = np.maximum(counts, 1.0)
    for li, prof in enumerate(_TRIGRAM_PROFILES):
        hits = np.isin(tri, prof)
        scores[li] = np.bincount(tri_row, weights=hits, minlength=n) / denom
    return scores


def lang_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Vectorized language ID: lexicon-profile scoring over the first 400
    tokens, with a char-trigram profile fallback (Cavnar–Trenkle style) for
    documents that hit no lexicon word — those used to be 'und'."""
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lowered = pc.utf8_lower(col)
    th, off = tokenize_arrow(lowered, _MAX_LANG_TOKENS)
    n_rows = off.shape[0] - 1
    lens = np.diff(off)
    nonempty = lens > 0
    scores = np.zeros((len(_LANG_ORDER), n_rows), dtype=np.float64)
    if nonempty.any() and th.shape[0]:
        starts = off[:-1][nonempty].astype(np.int64)
        denom = lens[nonempty].astype(np.float64)
        for li, prof in enumerate(_PROFILE_HASHES):
            hits = np.isin(th, prof).astype(np.int64)
            scores[li, nonempty] = np.add.reduceat(hits, starts) / denom
    best_idx = np.argmax(scores, axis=0)  # ties → first language in order
    best_s = scores[best_idx, np.arange(n_rows)]
    # Trigram fallback for rows the lexicon can't speak for: zero hits, OR a
    # best score under _MIN_LEXICON_SCORE. Natural text in-language runs
    # 15–40% stopword ratio; scores below 6% are almost always spurious
    # fragments (the ASCII tokenizer splits "während" → "w" + "hrend", and
    # "w" is a Polish stopword).
    fb_rows = np.nonzero((best_s < _MIN_LEXICON_SCORE) & nonempty)[0]
    if fb_rows.shape[0]:
        fb_scores = _trigram_scores(pc.fill_null(lowered, ""), fb_rows)
        fb_best = np.argmax(fb_scores, axis=0)
        fb_s = fb_scores[fb_best, np.arange(fb_rows.shape[0])]
        hit = fb_s > 0
        best_idx[fb_rows[hit]] = fb_best[hit]
        best_s[fb_rows[hit]] = fb_s[hit]
    langs = np.where(best_s > 0, np.asarray(_LANG_ORDER, dtype=object)[best_idx], "und")
    out = batch.select([c for c in batch.column_names if c != text_col])
    out = out.append_column("lang_pred", pa.array(langs, pa.string()))
    out = out.append_column("lang_score", pa.array(np.round(best_s, 6)))
    return out


def repetition_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition quality signals (Rae et al. 2021, §A1.1),
    one fused vectorized pass, integer-ppm outputs for exact SQL parity:

    - ``dup_line_ppm``     — duplicated lines / total lines (occurrences
      beyond the first of each distinct line within the doc);
    - ``dup_line_char_ppm`` — characters in those duplicate occurrences /
      total line characters (newlines excluded from both sides);
    - ``top_token_ppm``    — occurrences of the most frequent token /
      total tokens (tokenizer = the corpus-wide ``\\w+|[^\\w\\s]``).

    Lines are ``'\\n'``-split segments, ALL lines counted (no length
    cutoff — repetition is a within-doc quality signal, unlike the ≥30-char
    dedup rule in :mod:`~europa_ray.pipelines.linededup`). Null-content
    rows are excluded. Line identity via sha256 (empty lines keyed
    separately), token identity via the 64-bit token hash (exact for
    tokens ≤ 16 bytes; collision odds beyond are ~n²/2⁶⁴)."""
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    id_cols = [c for c in batch.column_names if c != text_col]
    valid = pc.is_valid(col)
    col = col.filter(valid)
    kept = batch.select(id_cols).filter(valid)
    n_rows = len(col)

    split = pc.split_pattern(col, "\n")
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    n_lines = pc.list_value_length(split).cast(pa.int64()).to_numpy()
    flat = split.flatten()
    lens = pc.utf8_length(flat).to_numpy().astype(np.int64) if len(flat) else np.empty(0, np.int64)
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), n_lines)

    from europa_ray.util import sha256_hex_arrow

    keys = np.zeros(len(flat), dtype="S64")  # b"" keys the empty line
    nonempty = lens > 0
    if nonempty.any():
        keys[nonempty] = np.asarray(
            sha256_hex_arrow(flat.filter(pa.array(nonempty))), dtype="S64"
        )
    order = np.lexsort((keys, row_of))
    rk, rr, rl = keys[order], row_of[order], lens[order]
    new = np.ones(rk.shape[0], dtype=bool)
    if rk.shape[0]:
        new[1:] = (rr[1:] != rr[:-1]) | (rk[1:] != rk[:-1])
    starts = np.nonzero(new)[0]
    occ = np.diff(np.concatenate([starts, [rk.shape[0]]]))
    run_row = rr[starts] if starts.shape[0] else np.empty(0, np.int64)
    n_distinct = np.bincount(run_row, minlength=n_rows)
    dup_lines = n_lines - n_distinct
    dup_chars = np.bincount(
        run_row, weights=(occ - 1) * rl[starts], minlength=n_rows
    ).astype(np.int64) if starts.shape[0] else np.zeros(n_rows, np.int64)
    total_chars = np.bincount(row_of, weights=lens, minlength=n_rows).astype(np.int64)

    th, off = tokenize_arrow(col)
    tok_lens = np.diff(off)
    tok_row = np.repeat(np.arange(n_rows, dtype=np.int64), tok_lens)
    top = np.zeros(n_rows, dtype=np.int64)
    if th.shape[0]:
        t_order = np.lexsort((th, tok_row))
        tk, tr = th[t_order], tok_row[t_order]
        t_new = np.ones(tk.shape[0], dtype=bool)
        t_new[1:] = (tr[1:] != tr[:-1]) | (tk[1:] != tk[:-1])
        t_starts = np.nonzero(t_new)[0]
        t_occ = np.diff(np.concatenate([t_starts, [tk.shape[0]]]))
        np.maximum.at(top, tr[t_starts], t_occ)
    n_tokens = tok_lens.astype(np.int64)

    out = kept
    out = out.append_column("n_lines", pa.array(n_lines))
    out = out.append_column(
        "dup_line_ppm", pa.array(dup_lines * 1_000_000 // np.maximum(n_lines, 1))
    )
    out = out.append_column(
        "dup_line_char_ppm",
        pa.array(dup_chars * 1_000_000 // np.maximum(total_chars, 1)),
    )
    out = out.append_column(
        "top_token_ppm", pa.array(top * 1_000_000 // np.maximum(n_tokens, 1))
    )
    return out


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """64-bit order-sensitive document fingerprint: splitmix-mixed sum of
    (token hash ⊕ mixed position) — order-sensitive, fully vectorized with
    one ``add.reduceat`` over the flat token stream (no per-row loop)."""
    th, off = tokenize_arrow(batch[text_col])
    n_rows = off.shape[0] - 1
    lens = np.diff(off)
    fp = np.zeros(n_rows, dtype=np.uint64)
    if th.shape[0]:
        pos = (
            np.arange(th.shape[0], dtype=np.uint64)
            - np.repeat(off[:-1].astype(np.uint64), lens)
        )
        with np.errstate(over="ignore"):
            terms = mix64(th ^ splitmix64(pos))
            nonempty = lens > 0
            fp[nonempty] = np.add.reduceat(terms, off[:-1][nonempty].astype(np.int64))
    fp = splitmix64(fp)
    out = batch.select([c for c in batch.column_names if c != text_col])
    return out.append_column("fingerprint", pa.array(fp.view(np.int64)))


# C4-style quality-filter rule set (Raffel et al. 2020 §2.2 analog adapted
# to the available vectorized signals): each rule contributes one bit to a
# per-doc failure mask, all thresholds integer/ppm so the DuckDB oracle is
# value-exact. fail_mask == 0 ⇔ the document survives filtering.
QUALITY_RULES = (
    ("min_tokens", 1, "n_tokens", "<", 10),
    ("len_range", 2, "n_chars", "outside", (100, 100_000)),
    ("alpha_floor", 4, "alpha_ppm", "<", 500_000),
    ("digit_ceiling", 8, "digit_ppm", ">", 200_000),
    ("ws_ceiling", 16, "ws_ppm", ">", 350_000),
)


def quality_filter_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Rule-based quality filter verdict: (…, fail_mask) — one bit per
    failed rule (0 = keep). One fused buffer pass via the text profile."""
    prof = text_profile_batch(batch, text_col=text_col)
    mask = np.zeros(prof.num_rows, dtype=np.int64)
    cols = {c: prof[c].to_numpy() for c in ("n_tokens", "n_chars", "alpha_ppm", "digit_ppm", "ws_ppm")}
    for _name, bit, col, op, thr in QUALITY_RULES:
        v = cols[col]
        if op == "<":
            hit = v < thr
        elif op == ">":
            hit = v > thr
        else:  # outside (lo, hi)
            hit = (v < thr[0]) | (v > thr[1])
        mask |= np.where(hit, bit, 0)
    out = prof.select(
        [c for c in prof.column_names
         if c not in ("n_tokens", "n_chars", "alpha_ppm", "digit_ppm", "ws_ppm")]
    )
    return out.append_column("fail_mask", pa.array(mask))


def _lv_combine(t: pa.Table) -> pa.Table:
    """In-batch combine of an ``(lv, one)`` projection: the shuffle carries
    distinct (lang, value) pairs per batch, not one row per document
    (select aggregate outputs BY NAME — see sampling._prefix_histogram)."""
    g = t.group_by("lv").aggregate([("one", "sum")])
    return pa.table({"lv": g["lv"], "one": g["one_sum"]})


def _lang_value_walk(hist) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """``groupby('lv').sum('one')`` output → per-language (ascending
    distinct values, cumulative counts) — the shared input of every exact
    rank walk in this module (rank rule: the ceil-rank element is the
    smallest value whose cumulative count reaches the rank; the histogram
    is distinct-value-sized, so the driver walk is trivially small)."""
    per_lang: dict[str, list[tuple[int, int]]] = {}
    for b in hist.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        for lv, c in zip(b["lv"].to_pylist(), b["sum(one)"].to_pylist()):
            lang, val = lv.rsplit(":", 1)
            per_lang.setdefault(lang, []).append((int(val), int(c)))
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for lang, vals in per_lang.items():
        vals.sort()
        v = np.array([x for x, _ in vals], dtype=np.int64)
        cum = np.cumsum(np.array([c for _, c in vals], dtype=np.int64))
        out[lang] = (v, cum)
    return out


def token_quantiles(
    files, *, qs: tuple[float, ...] = (0.5, 0.9, 0.99), text_col: str = "content"
):
    """Exact per-language token-count quantiles via a distributed VALUE
    histogram: one metadata pass emits (lang, n_tokens), one
    ``groupby(lang:value).count`` shuffle reduces the corpus to its
    distinct-value histogram (≤ |langs| × |distinct counts| rows — tiny,
    independent of corpus row count), and the driver walks each language's
    cumulative counts. No sort of the corpus, no per-row gather — the exact
    analog of ``quantile_disc``: the q-quantile is the element of rank
    ``ceil(q·n)`` (1-based), i.e. the smallest value whose cumulative count
    reaches that rank. Output: (lang, q50, q90, ... as int64).
    """
    import math

    import pyarrow.compute as pc
    import ray.data

    def project(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        valid = pc.and_(pc.is_valid(col), pc.greater(pc.utf8_length(col), 0))
        sub = batch.filter(valid)
        n = np.asarray(token_count_arrow(sub[text_col]), dtype=np.int64)
        langs = sub["lang"]
        if isinstance(langs, pa.ChunkedArray):
            langs = langs.combine_chunks()
        key = pc.binary_join_element_wise(
            langs.cast(pa.string()), pa.array(n).cast(pa.string()), ":"
        )
        return _lv_combine(
            pa.table({"lv": key, "one": pa.array(np.ones(len(n), np.int64))})
        )

    hist = (
        files.map_batches(project, batch_format="pyarrow")
        .groupby("lv")
        .sum("one")
    )
    walk = _lang_value_walk(hist)
    rows = {"lang": []}
    qcols = [f"q{int(q * 100)}" for q in qs]
    for qc in qcols:
        rows[qc] = []
    for lang in sorted(walk):
        v, cum = walk[lang]
        n = int(cum[-1])
        rows["lang"].append(lang)
        for q, qc in zip(qs, qcols):
            rank = math.ceil(q * n)
            idx = int(np.searchsorted(cum, rank, side="left"))
            rows[qc].append(int(v[idx]))
    return pa.table(
        {"lang": pa.array(rows["lang"], pa.string()),
         **{qc: pa.array(rows[qc], pa.int64()) for qc in qcols}}
    )


def quality_buckets(files, *, text_col: str = "content", lang_col: str = "lang",
                    id_col: str = "doc_id"):
    """CCNet-style head/middle/tail quality bucketing (Wenzek et al., LREC
    2020 §4.4, adapted: the score is the exact integer ``alpha_ppm`` —
    alphabetic-byte parts-per-million — instead of an LM perplexity, which
    needs a model this sandbox doesn't ship). Per language, exact tercile
    cutoffs are computed over the score distribution and every document is
    labeled ``tail`` (score ≤ c1), ``middle`` (≤ c2) or ``head``; CCNet
    keeps head+middle for training.

    Buckets are a pure function of (lang, score) — cutoff ``c_k`` is the
    smallest score whose cumulative count reaches rank ``ceil(k·n/3)``
    (integer arithmetic ``(k·n + 2) // 3``, identical in the SQL replica)
    — so ties never straddle a bucket boundary and the labeling is
    partition- and order-independent.

    Scale shape: one metadata pass (content never leaves it), one
    ``groupby(lang:score).count`` value-histogram shuffle (≤ |langs| ×
    1e6 ppm values — independent of corpus rows), a driver cutoff walk,
    then one broadcast threshold pass. No sort, no per-row gather.
    """
    def score_batch(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        valid = pc.and_(pc.is_valid(col), pc.greater(pc.utf8_length(col), 0))
        sub = batch.filter(valid)
        data, off = arrow_string_bytes(sub[text_col])
        n_chars = _utf8_lengths(sub[text_col])
        alpha = _class_counts(data, off, _ALPHA_LUT)
        score = alpha * 1_000_000 // np.maximum(n_chars, 1)
        return pa.table(
            {
                "doc_id": pc.cast(sub[id_col], pa.int64()),
                "lang": pc.cast(sub[lang_col], pa.string()),
                "score": pa.array(score.astype(np.int64)),
            }
        )

    scored = files.map_batches(score_batch, batch_format="pyarrow").materialize()
    return bucket_scored_by_lang_terciles(scored)


def bucket_scored_by_lang_terciles(scored) -> "ray.data.Dataset":
    """Per-language exact tercile labeling of a MATERIALIZED
    ``(doc_id, lang, score:int64)`` Dataset — the back half of
    :func:`quality_buckets` (alpha-ppm score). See :func:`quality_buckets` for the
    tie-safe cutoff arithmetic and the scale shape (the histogram shuffle
    carries distinct (lang, score) pairs, not rows)."""

    def hist_key(batch: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            batch["lang"], pc.cast(batch["score"], pa.string()), ":"
        )
        return _lv_combine(
            pa.table(
                {"lv": key, "one": pa.array(np.ones(batch.num_rows, np.int64))}
            )
        )

    hist = (
        scored.map_batches(hist_key, batch_format="pyarrow")
        .groupby("lv")
        .sum("one")
    )
    c1: dict[str, int] = {}
    c2: dict[str, int] = {}
    for lang, (v, cum) in _lang_value_walk(hist).items():
        n = int(cum[-1])
        r1, r2 = (n + 2) // 3, (2 * n + 2) // 3
        c1[lang] = int(v[int(np.searchsorted(cum, r1, side="left"))])
        c2[lang] = int(v[int(np.searchsorted(cum, r2, side="left"))])

    from europa_ray.pipelines.sampling import _lang_lookup

    def label(batch: pa.Table) -> pa.Table:
        s = batch["score"].to_numpy()
        t1 = _lang_lookup(batch, "lang", c1, -1, dtype=np.int64)
        t2 = _lang_lookup(batch, "lang", c2, -1, dtype=np.int64)
        bucket = np.where(s <= t1, "tail", np.where(s <= t2, "middle", "head"))
        return batch.append_column("bucket", pa.array(bucket.tolist(), pa.string()))

    return scored.map_batches(label, batch_format="pyarrow")


def length_outliers(
    files,
    *,
    text_col: str = "content",
    lang_col: str = "lang",
    id_col: str = "doc_id",
    fence_mult: int = 3,
) -> "ray.data.Dataset":
    """Per-language length-outlier detection via Tukey's IQR fences over
    character length (the robust analog of a z-score cut — Gopher/C4-style
    pipelines drop abnormally short/long documents per language, and
    quartile fences are insensitive to the very outliers being hunted,
    unlike mean/stddev).

    Quartiles are EXACT discrete quantiles (``quantile_disc`` rank rule
    ``ceil(q·n)``, the :func:`token_quantiles` walk) and the k=1.5 fences
    are evaluated in doubled-integer arithmetic — ``2·n < 2·q1 − m·iqr``
    (short) / ``2·n > 2·q3 + m·iqr`` (long), where ``m = fence_mult``
    (``m = 2k``: the classic k=1.5 is m=3) — so there is no float anywhere
    and the DuckDB oracle matches bit-for-bit.

    Scale shape: one metadata pass (content never leaves it), one
    ``groupby(lang:n_chars).count`` value-histogram shuffle (distinct
    (lang, length) pairs, independent of corpus rows), a driver quartile
    walk over the tiny histogram, then one broadcast fence pass. No sort,
    no per-row gather. Output: ``(doc_id, lang, n_chars, side)``.
    """
    import ray.data

    def project(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        valid = pc.and_(pc.is_valid(col), pc.greater(pc.utf8_length(col), 0))
        sub = batch.filter(valid)
        langs = sub[lang_col]
        if isinstance(langs, pa.ChunkedArray):
            langs = langs.combine_chunks()
        n = _utf8_lengths(sub[text_col])
        key = pc.binary_join_element_wise(
            langs.cast(pa.string()), pa.array(n.astype(np.int64)).cast(pa.string()), ":"
        )
        return _lv_combine(
            pa.table({"lv": key, "one": pa.array(np.ones(len(n), np.int64))})
        )

    hist = files.map_batches(project, batch_format="pyarrow").groupby("lv").sum("one")

    import math

    lo: dict[str, int] = {}
    hi: dict[str, int] = {}
    for lang, (v, cum) in _lang_value_walk(hist).items():
        n = int(cum[-1])
        q1 = int(v[int(np.searchsorted(cum, math.ceil(0.25 * n), side="left"))])
        q3 = int(v[int(np.searchsorted(cum, math.ceil(0.75 * n), side="left"))])
        iqr = q3 - q1
        lo[lang] = 2 * q1 - fence_mult * iqr  # compare against 2·n_chars
        hi[lang] = 2 * q3 + fence_mult * iqr

    from europa_ray.pipelines.sampling import _lang_lookup

    def fence(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        valid = pc.and_(pc.is_valid(col), pc.greater(pc.utf8_length(col), 0))
        sub = batch.filter(valid)
        n = _utf8_lengths(sub[text_col]).astype(np.int64)
        out = pa.table(
            {
                "doc_id": pc.cast(sub[id_col], pa.int64()),
                "lang": pc.cast(sub[lang_col], pa.string()),
                "n_chars": pa.array(n),
            }
        )
        lo_b = _lang_lookup(out, "lang", lo, np.iinfo(np.int64).min, dtype=np.int64)
        hi_b = _lang_lookup(out, "lang", hi, np.iinfo(np.int64).max, dtype=np.int64)
        short = 2 * n < lo_b
        long_ = 2 * n > hi_b
        side = np.where(short, "short", "long")
        return out.filter(pa.array(short | long_)).append_column(
            "side", pa.array(side[short | long_].tolist(), pa.string())
        )

    return files.map_batches(fence, batch_format="pyarrow")
