"""Code-corpus analysis operators — the source-code payload analogs of the
text-quality passes (:mod:`europa_ray.pipelines.textstats`):

- :func:`code_line_stats_batch` — per-file line-shape profile (total /
  blank / comment / code lines, longest line), the code-quality signals
  used by The Stack / StarCoder data pipelines (Kocetkov et al. 2022:
  files are filtered on avg/max line length and alpha fraction).
- :func:`import_stats_batch` / :func:`top_imports` — dependency
  extraction: per-file import-line counts and the corpus-wide module
  frequency table (per-batch partial counts → module-sized groupby, the
  :mod:`~europa_ray.pipelines.vocab` shape).
- :func:`license_stats_batch` — permissive-license detection over the
  file header (first ``LICENSE_HEADER_CHARS`` chars), the gate The Stack
  applies before training use.
- :func:`secret_stats_batch` / :func:`secret_redact_batch` — credential
  scanning/redaction (AWS access key, GitHub token, PEM private-key
  block), the standard regex family (public TruffleHog/Gitleaks rules);
  reuses the generic regex-scrub kernels of
  :mod:`europa_ray.pipelines.pii`.

All operators are single ``map_batches`` stages over Arrow kernels (RE2
regexes — the same engine DuckDB embeds, so the oracles agree by
construction); the only shuffle is :func:`top_imports`' module-sized
groupby. Line handling is the vectorized split→flatten→``bincount``/
``reduceat`` pattern of ``textstats.repetition_stats`` — no Python loop
touches row content.

Reference parity: Europa classifies files by type before hashing
(``/root/reference/Api/Implementations/Commons/FileTypeIdentifier.cs``);
these operators extend that per-file classification chain with the
code-specific signals an LLM-data pipeline needs (SURVEY §2 M3 family).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from europa_ray.pipelines.pii import pii_redact_batch, pii_stats_batch

# RE2- and DuckDB-compatible (no lookaround); shared verbatim with the SQL
# oracles. A blank line is whitespace-only; a comment line starts with
# optional indentation then ``#`` or ``//`` (note: C preprocessor
# directives like ``#include`` share the ``#`` marker and count as comment
# lines on BOTH sides — a documented semantic, not a bug).
BLANK_LINE_RE = r"^[ \t]*$"
COMMENT_LINE_RE = r"^[ \t]*(#|//)"

# import-line dialects, priority order (first match wins per line); group 1
# (named ``m`` for Arrow's extract_regex; DuckDB indexes it as group 1) is
# the imported module.
IMPORT_PATTERNS = (
    ("py_import", r"^[ \t]*import[ \t]+(?P<m>[A-Za-z_][A-Za-z0-9_.]*)"),
    ("py_from", r"^[ \t]*from[ \t]+(?P<m>[A-Za-z_][A-Za-z0-9_.]*)[ \t]+import"),
    ("c_include", r"^[ \t]*#include[ \t]*[<\"](?P<m>[A-Za-z0-9_./]+)[>\"]"),
)

LICENSE_HEADER_CHARS = 2048
#: (label, lowercase phrase) in priority order — first phrase found in the
#: lowercased header wins; plain substring match on both sides.
LICENSE_RULES = (
    ("mit", "permission is hereby granted"),
    ("apache-2.0", "apache license"),
    ("gpl", "gnu general public license"),
    ("bsd-3", "redistribution and use in source and binary forms"),
)

SECRET_PATTERNS = (
    ("aws_key", r"AKIA[0-9A-Z]{16}"),
    ("ghp_token", r"ghp_[A-Za-z0-9]{36}"),
    ("private_key", r"-----BEGIN [A-Z ]*PRIVATE KEY-----"),
)


def _valid_content(batch: pa.Table, text_col: str):
    """(filtered content column, id-columns table) — null/empty rows
    excluded, matching the oracle ``WHERE text IS NOT NULL AND
    length(text) > 0`` (house rule, see pii.py)."""
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    valid = pc.and_(pc.is_valid(col), pc.greater(pc.utf8_length(col), 0))
    out = batch.select([c for c in batch.column_names if c != text_col]).filter(valid)
    return col.filter(valid), out


def _split_lines(col: pa.Array):
    """(flat line array, per-row line counts, row index per line)."""
    split = pc.split_pattern(col, "\n")
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    n_lines = pc.list_value_length(split).cast(pa.int64()).to_numpy()
    flat = split.flatten()
    row_of = np.repeat(np.arange(len(col), dtype=np.int64), n_lines)
    return flat, n_lines, row_of


def code_line_stats_batch(batch: pa.Table, *, text_col: str = "content") -> pa.Table:
    """Per-doc line-shape stats: (…, n_lines, n_blank, n_comment, n_code,
    max_line_len). ``n_code = n_lines - n_blank - n_comment`` (blank and
    comment are disjoint: the comment regex requires a marker char)."""
    col, out = _valid_content(batch, text_col)
    n_rows = len(col)
    flat, n_lines, row_of = _split_lines(col)
    n_blank = np.zeros(n_rows, np.int64)
    n_comment = np.zeros(n_rows, np.int64)
    max_len = np.zeros(n_rows, np.int64)
    if len(flat):
        blank = pc.match_substring_regex(flat, BLANK_LINE_RE).to_numpy(
            zero_copy_only=False
        )
        comment = pc.match_substring_regex(flat, COMMENT_LINE_RE).to_numpy(
            zero_copy_only=False
        )
        lens = pc.utf8_length(flat).cast(pa.int64()).to_numpy()
        n_blank = np.bincount(row_of[blank], minlength=n_rows).astype(np.int64)
        n_comment = np.bincount(row_of[comment], minlength=n_rows).astype(np.int64)
        np.maximum.at(max_len, row_of, lens)
    for name, arr in (
        ("n_lines", n_lines),
        ("n_blank", n_blank),
        ("n_comment", n_comment),
        ("n_code", n_lines - n_blank - n_comment),
        ("max_line_len", max_len),
    ):
        out = out.append_column(name, pa.array(arr, pa.int64()))
    return out


def _line_modules(flat: pa.Array) -> pa.Array:
    """Imported module per line (null = not an import line); first
    matching dialect in ``IMPORT_PATTERNS`` order wins."""
    mod = None
    for _, pat in IMPORT_PATTERNS:
        ext = pc.struct_field(pc.extract_regex(flat, pat), "m")
        mod = ext if mod is None else pc.if_else(pc.is_valid(mod), mod, ext)
    return mod


def import_stats_batch(batch: pa.Table, *, text_col: str = "content") -> pa.Table:
    """Per-doc count of import lines (any dialect): (…, n_imports)."""
    col, out = _valid_content(batch, text_col)
    n_rows = len(col)
    flat, _, row_of = _split_lines(col)
    n_imports = np.zeros(n_rows, np.int64)
    if len(flat):
        hit = pc.is_valid(_line_modules(flat)).to_numpy(zero_copy_only=False)
        n_imports = np.bincount(row_of[hit], minlength=n_rows).astype(np.int64)
    return out.append_column("n_imports", pa.array(n_imports, pa.int64()))


def _partial_import_counts(batch: pa.Table, *, text_col: str = "content") -> pa.Table:
    empty = pa.table(
        {"module": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
    )
    col, _ = _valid_content(batch, text_col)
    if len(col) == 0:
        return empty
    flat, _, _ = _split_lines(col)
    if len(flat) == 0:
        return empty
    mods = _line_modules(flat).drop_null()
    if len(mods) == 0:
        return empty
    vc = pc.value_counts(mods)
    return pa.table(
        {"module": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
    )


def top_imports(
    files: ray.data.Dataset, *, k: int = 50, text_col: str = "content"
) -> ray.data.Dataset:
    """Top-``k`` imported modules corpus-wide, tie-broken (n DESC, module
    ASC) — per-batch partial counts bound the shuffle at (batches × batch
    module vocabulary) rows; the global aggregate is module-sized."""
    from europa_ray.pipelines.vocab import fold_partial_counts

    partials = files.map_batches(
        _partial_import_counts, fn_kwargs={"text_col": text_col},
        batch_format="pyarrow",
    )
    agg = fold_partial_counts(partials, "module", "n")
    return agg.sort(["n", "module"], descending=[True, False]).limit(k)


def license_stats_batch(batch: pa.Table, *, text_col: str = "content") -> pa.Table:
    """Per-doc license label from the lowercased header (first
    ``LICENSE_HEADER_CHARS`` chars): first ``LICENSE_RULES`` phrase found
    wins, else ``'none'``. Applied lowest-priority-first so later
    ``if_else`` writes override — the CASE-chain order of the oracle."""
    col, out = _valid_content(batch, text_col)
    hdr = pc.utf8_lower(pc.utf8_slice_codeunits(col, 0, LICENSE_HEADER_CHARS))
    lab = pa.array(np.full(len(col), "none", dtype=object), pa.string())
    for name, phrase in reversed(LICENSE_RULES):
        lab = pc.if_else(pc.match_substring(hdr, phrase), pa.scalar(name), lab)
    return out.append_column("license", lab)


def secret_stats_batch(batch: pa.Table, *, text_col: str = "content") -> pa.Table:
    """Per-doc credential match counts: (…, n_aws_keys, n_ghp_tokens,
    n_private_keys, n_secrets)."""
    return pii_stats_batch(
        batch, text_col=text_col, patterns=SECRET_PATTERNS, total_col="n_secrets"
    )


def secret_redact_batch(batch: pa.Table, *, text_col: str = "content") -> pa.Table:
    """Redact credentials in place (AWS → GHP → private-key order) and emit
    the redacted text's sha256 — value-checkable against the SQL
    ``sha256(regexp_replace(...))`` chain."""
    return pii_redact_batch(batch, text_col=text_col, patterns=SECRET_PATTERNS)


AUTOGEN_HEADER_CHARS = 4096
#: (label, lowercase phrase) in priority order — first phrase found in the
#: lowercased header wins (the license_stats pattern). Markers are the
#: standard generator banners (protoc/thrift "DO NOT EDIT", Facebook's
#: ``@generated``, generic "generated by"/"automatically generated") The
#: Stack excludes before training use (Kocetkov et al. 2022 §3.1).
AUTOGEN_RULES = (
    ("do_not_edit", "do not edit"),
    ("generated_marker", "@generated"),
    ("generated_by", "generated by"),
    ("auto_generated", "automatically generated"),
)


def _autogen_label(col: pa.Array) -> pa.Array:
    """Generator-marker label per doc from the lowercased header (first
    ``AUTOGEN_HEADER_CHARS`` chars); first matching ``AUTOGEN_RULES`` phrase
    wins, else ``'none'`` — applied lowest-priority-first so later
    ``if_else`` writes override (the license_stats CASE-chain shape)."""
    hdr = pc.utf8_lower(pc.utf8_slice_codeunits(col, 0, AUTOGEN_HEADER_CHARS))
    lab = pa.array(np.full(len(col), "none", dtype=object), pa.string())
    for name, phrase in reversed(AUTOGEN_RULES):
        lab = pc.if_else(pc.match_substring(hdr, phrase), pa.scalar(name), lab)
    return lab


def autogen_stats_batch(batch: pa.Table, *, text_col: str = "content") -> pa.Table:
    """Per-doc generated-code marker: (…, autogen) with the matched rule
    label or ``'none'`` — header-only scan (generators put banners at the
    top), so at 100 TB the pass reads 4 KB/doc, not the whole content."""
    col, out = _valid_content(batch, text_col)
    return out.append_column("autogen", _autogen_label(col))


# quality-gate failure bits (The Stack v1 file filters, Kocetkov et al.
# 2022: drop when avg line length > 100, max line length > 1000, or
# alphanumeric fraction < 0.25; plus the generated-code marker)
QF_AVG_LINE = 1
QF_MAX_LINE = 2
QF_ALNUM_FRAC = 4
QF_AUTOGEN = 8


def code_quality_filter_batch(
    batch: pa.Table, *, text_col: str = "content"
) -> pa.Table:
    """The-Stack-style code-quality gate: (…, n_alnum, fail_mask) with
    ``fail_mask`` an integer-exact failure bitmask (0 = keep):

    - bit 0: avg line length > 100 — compared as ``sum(line lens) >
      100 * n_lines`` (sum of line lengths = chars − newlines), so the
      check is integer-exact on both the Arrow and the SQL side;
    - bit 1: max line length > 1000;
    - bit 2: alphanumeric fraction < 0.25 — ``4 * n_alnum < n_chars``;
    - bit 3: a generated-code banner in the header (``AUTOGEN_RULES``).

    One fused pass: the line split feeds only the max-line reduction; the
    alnum count is an RE2 scan (the engine DuckDB embeds, so the oracle's
    ``regexp_replace`` count agrees by construction)."""
    col, out = _valid_content(batch, text_col)
    n_rows = len(col)
    n_chars = pc.utf8_length(col).cast(pa.int64()).to_numpy()
    n_alnum = (
        pc.count_substring_regex(col, "[A-Za-z0-9]").cast(pa.int64()).to_numpy()
    )
    flat, n_lines, row_of = _split_lines(col)
    max_len = np.zeros(n_rows, np.int64)
    if len(flat):
        lens = pc.utf8_length(flat).cast(pa.int64()).to_numpy()
        np.maximum.at(max_len, row_of, lens)
    line_chars = n_chars - (n_lines - 1)
    autogen = pc.not_equal(_autogen_label(col), "none").to_numpy(
        zero_copy_only=False
    )
    mask = (
        np.where(line_chars > 100 * n_lines, QF_AVG_LINE, 0)
        | np.where(max_len > 1000, QF_MAX_LINE, 0)
        | np.where(4 * n_alnum < n_chars, QF_ALNUM_FRAC, 0)
        | np.where(autogen, QF_AUTOGEN, 0)
    )
    out = out.append_column("n_alnum", pa.array(n_alnum, pa.int64()))
    return out.append_column("fail_mask", pa.array(mask.astype(np.int64)))


# identifier tokens: split on non-word runs; a token is an identifier iff
# it starts with a letter or underscore. The split/filter regexes are RE2
# and shared verbatim with the SQL oracle.
IDENT_SPLIT_RE = r"[^A-Za-z0-9_]+"
IDENT_START_RE = r"^[A-Za-z_]"
#: exact-match (case-sensitive) reserved words excluded from the corpus
#: top-k ranking (kept in per-doc counts: a doc's identifier density
#: includes keywords; the corpus ranking should not be all `if`/`return`)
IDENT_KEYWORDS = (
    "break", "case", "class", "const", "continue", "def", "elif", "else",
    "enum", "false", "for", "from", "if", "import", "include", "int",
    "let", "new", "none", "null", "public", "return", "static", "struct",
    "switch", "true", "try", "var", "void", "while",
)


def _ident_tokens(col: pa.Array):
    """(flat identifier tokens, row index per token) after split+filter."""
    split = pc.split_pattern_regex(col, IDENT_SPLIT_RE)
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    n_tok = pc.list_value_length(split).cast(pa.int64()).to_numpy()
    flat = split.flatten()
    row_of = np.repeat(np.arange(len(col), dtype=np.int64), n_tok)
    if len(flat) == 0:
        return flat, row_of
    keep = pc.match_substring_regex(flat, IDENT_START_RE).to_numpy(
        zero_copy_only=False
    )
    return flat.filter(pa.array(keep)), row_of[keep]


def identifier_stats_batch(
    batch: pa.Table, *, text_col: str = "content"
) -> pa.Table:
    """Per-doc identifier profile: (…, n_identifiers,
    n_distinct_identifiers). Distinct counting is dictionary-encode +
    one ``np.unique`` over packed (row, code) keys — no per-row Python."""
    col, out = _valid_content(batch, text_col)
    n_rows = len(col)
    toks, row_of = _ident_tokens(col)
    n_ident = np.bincount(row_of, minlength=n_rows).astype(np.int64)
    n_distinct = np.zeros(n_rows, np.int64)
    if len(toks):
        codes = pc.dictionary_encode(toks).indices.cast(pa.int64()).to_numpy()
        vocab = int(codes.max()) + 1
        uniq_keys = np.unique(row_of * vocab + codes)
        n_distinct = np.bincount(uniq_keys // vocab, minlength=n_rows).astype(
            np.int64
        )
    out = out.append_column("n_identifiers", pa.array(n_ident, pa.int64()))
    return out.append_column(
        "n_distinct_identifiers", pa.array(n_distinct, pa.int64())
    )


def _partial_ident_counts(batch: pa.Table, *, text_col: str = "content") -> pa.Table:
    empty = pa.table(
        {"identifier": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
    )
    col, _ = _valid_content(batch, text_col)
    if len(col) == 0:
        return empty
    toks, _ = _ident_tokens(col)
    if len(toks):
        kw = pa.array(list(IDENT_KEYWORDS), pa.string())
        toks = toks.filter(pc.invert(pc.is_in(toks, value_set=kw)))
    if len(toks) == 0:
        return empty
    vc = pc.value_counts(toks)
    return pa.table(
        {"identifier": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
    )


def top_identifiers(
    files: ray.data.Dataset, *, k: int = 50, text_col: str = "content"
) -> ray.data.Dataset:
    """Top-``k`` identifiers corpus-wide (reserved words excluded),
    tie-broken (n DESC, identifier ASC) — per-batch partial counts bound
    the shuffle at (batches × batch identifier vocabulary) rows; the
    global aggregate is vocabulary-sized (the top_imports shape)."""
    from europa_ray.pipelines.vocab import fold_partial_counts

    partials = files.map_batches(
        _partial_ident_counts, fn_kwargs={"text_col": text_col},
        batch_format="pyarrow",
    )
    agg = fold_partial_counts(partials, "identifier", "n")
    return agg.sort(["n", "identifier"], descending=[True, False]).limit(k)


REPO_LICENSE_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("repo", pa.string()),
        pa.field("license", pa.string()),
        pa.field("repo_license", pa.string()),
    ]
)

_WORKER_REPO_LIC_CACHE: dict = {}


def repo_license_files(
    files,
    *,
    text_col: str = "content",
    id_col: str = "doc_id",
    repo_col: str = "repo",
    repo_broadcast_max: int = 5_000_000,
):
    """Repo-level license propagation (The Stack's licensing model: a
    file's effective license comes from its REPOSITORY): detect each
    file's header license, elect the repo's dominant DECLARED license by
    majority vote among licensed files (count DESC, license ASC on ties —
    deterministic), and label every file with it; a repo with no licensed
    file propagates ``'none'``.

    Scale shape: one detect pass with an in-batch (repo, license) combine
    → one ``groupby(repo, license)`` shuffle (≤ repos × |rules| rows) →
    one repo-cardinality ``map_groups`` argmax. Below
    ``repo_broadcast_max`` repos the winner table is broadcast and a
    second detect pass labels in-batch (no file-keyed shuffle); above it,
    a repo-keyed join fallback (budget-0 equivalence-tested).

    Output: ``(doc_id, repo, license, repo_license)`` per nonempty file.
    """
    import ray
    import ray.data

    def votes(batch: pa.Table) -> pa.Table:
        lab = license_stats_batch(batch, text_col=text_col)
        t = pa.table(
            {
                "repo": lab[repo_col].cast(pa.string()),
                "license": lab["license"],
                "one": pa.array(np.ones(lab.num_rows, np.int64)),
            }
        ).filter(pc.not_equal(lab["license"], "none"))
        g = t.group_by(["repo", "license"]).aggregate([("one", "sum")])
        return pa.table(
            {"repo": g["repo"], "license": g["license"], "one": g["one_sum"]}
        )

    tally = (
        files.map_batches(votes, batch_format="pyarrow")
        .groupby(["repo", "license"])
        .sum("one")
    )

    def pick(group: pa.Table) -> pa.Table:
        c = group["sum(one)"].to_numpy()
        lic = group["license"].to_pylist()
        order = sorted(range(len(lic)), key=lambda i: (-int(c[i]), lic[i]))
        return pa.table(
            {
                "repo": group["repo"][:1],
                "repo_license": pa.array([lic[order[0]]], pa.string()),
            }
        )

    winners = tally.groupby("repo").map_groups(pick, batch_format="pyarrow")
    winners = winners.materialize()

    if winners.count() <= repo_broadcast_max:
        repos_p: list[pa.Array] = []
        lics_p: list = []
        for b in winners.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
            repos_p.extend(
                b["repo"].chunks
                if isinstance(b["repo"], pa.ChunkedArray)
                else [b["repo"]]
            )
            lics_p.extend(b["repo_license"].to_pylist())
        table = dict(zip(pa.chunked_array(repos_p).to_pylist() if repos_p else [], lics_p))
        ref = ray.put(table)

        def label(batch: pa.Table) -> pa.Table:
            from europa_ray.pipelines.sampling import _lang_lookup

            key = ref.hex()
            lut = _WORKER_REPO_LIC_CACHE.get(key)
            if lut is None:
                _WORKER_REPO_LIC_CACHE.clear()
                lut = _WORKER_REPO_LIC_CACHE[key] = ray.get(ref)
            lab = license_stats_batch(batch, text_col=text_col)
            if lab.num_rows == 0:
                return REPO_LICENSE_SCHEMA.empty_table()
            rl = _lang_lookup(lab, repo_col, lut, "none")
            return pa.table(
                {
                    "doc_id": lab[id_col].cast(pa.int64()),
                    "repo": lab[repo_col].cast(pa.string()),
                    "license": lab["license"],
                    "repo_license": pa.array(rl.tolist(), pa.string()),
                }
            )

        return files.map_batches(label, batch_format="pyarrow")

    # --- join fallback: file labels ⟕ winner table on repo ---
    from europa_ray.util import hash_join, scrub_empty_blocks

    def detect(batch: pa.Table) -> pa.Table:
        lab = license_stats_batch(batch, text_col=text_col)
        return pa.table(
            {
                "doc_id": lab[id_col].cast(pa.int64()),
                "repo": lab[repo_col].cast(pa.string()),
                "license": lab["license"],
            }
        )

    labeled = files.map_batches(detect, batch_format="pyarrow")
    # scrub BEFORE the join: the map_groups-descended winners table carries
    # Ray 2.49's zero-column empty blocks, which map_batches passes through
    # uncalled and the hash join then rejects ("no match … __r")
    win_side = scrub_empty_blocks(
        winners.map_batches(
            lambda b: pa.table(
                {"__r": b["repo"], "repo_license": b["repo_license"]}
            ),
            batch_format="pyarrow",
        ).materialize(),
        pa.schema(
            [pa.field("__r", pa.string()), pa.field("repo_license", pa.string())]
        ),
    )
    joined = hash_join(labeled, win_side, "left_outer", ("repo",), right_on=("__r",))
    joined = scrub_empty_blocks(joined.materialize(), REPO_LICENSE_SCHEMA)

    def finish(batch: pa.Table) -> pa.Table:
        rl = batch["repo_license"]
        if isinstance(rl, pa.ChunkedArray):
            rl = rl.combine_chunks()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "repo": batch["repo"],
                "license": batch["license"],
                "repo_license": pc.fill_null(rl, "none"),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")
