"""Seeded, vectorized workload generator for the benchmark.

Each workload is written as Parquet in the ``files(repo, path, commit, lang,
content)`` shape the engine reads, plus a ``truth.parquet`` the engine never
sees: the planted family of every row, its sha256, whether it sits in the
grey zone, and (append workload) whether it belongs to the base or the delta.

Documents are arrays of token ids rendered as whitespace-separated words, so
one generator token is exactly one engine token and the generator can compute
the true 5-shingle Jaccard of every planted mutant against its template.

Grey zone: a mutant whose true Jaccard to its template lies in
``[GREY_LO, GREY_HI)`` is flagged grey and every pair that touches it is left
out of recall and precision. The band brackets the engine's
``jaccard_threshold`` (0.72) and covers the part of the b=16, r=8 LSH S-curve
where the candidate probability climbs from ~0.24 (J=0.60) to ~0.99 (J=0.84),
so whether such a row joins its family is a matter of hash luck, not of
correctness. Rows planted below the band (far mutants, shared-substring pairs)
are their own families: clustering them with anything costs precision.

Inputs are cached under a work directory keyed by workload, seed and a
digest of this file, so any change to the generator makes new inputs; a
cache entry is reused only when every file matches the
sha256 digests recorded in its ``MANIFEST.json``, which is written last.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SHINGLE_K = 5
GREY_LO = 0.60
GREY_HI = 0.84

LANG_EXT = {"python": "py", "rust": "rs", "go": "go", "java": "java",
            "js": "js", "c": "c", "md": "md", "txt": "txt"}
LANGS = list(LANG_EXT)
KEYWORDS = ["def", "return", "if", "else", "for", "in", "import", "class",
            "None", "self", "fn", "let", "mut", "impl", "pub", "match", "func",
            "var", "range", "package", "public", "static", "void", "final",
            "new", "int", "char", "struct", "while", "const"]
PUNCT = list("(){}[];,=+-*.:<>")
N_COMMON = len(KEYWORDS) + len(PUNCT)
N_IDENT = 20000
_SYLL = ["foo", "bar", "baz", "qux", "num", "idx", "val", "tmp", "acc", "buf",
         "ptr", "len", "cnt", "pos", "key", "map", "arr", "obj", "ctx", "cfg",
         "src", "dst", "row", "col"]

# Sizes per workload, in files (rows) unless named otherwise; at one CPU
# each near-dup job takes a few seconds.
SIZES = {
    "planted-dedup": {"rows": 12000, "wide_tokens": 200_000},
    "hot-families": {"families": 160, "family_size": 75, "tokens": 120},
    "incremental-append": {"base": 10000, "delta": 2000, "wide_tokens": 200_000},
}
N_SHARDS = 8


class Corpus:
    """Rows under construction: token-id documents plus truth labels."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.docs: list[np.ndarray] = []
        self.family: list[int] = []
        self.klass: list[str] = []
        self.grey: list[bool] = []
        self.raw: dict[int, str] = {}  # row -> literal content (edge rows)
        self._next_family = 0

    def new_family(self) -> int:
        self._next_family += 1
        return self._next_family

    def add(self, doc: np.ndarray, family: int, klass: str, grey: bool = False) -> int:
        self.docs.append(doc)
        self.family.append(family)
        self.klass.append(klass)
        self.grey.append(grey)
        return len(self.docs) - 1

    def add_raw(self, text: str, klass: str) -> None:
        row = self.add(np.empty(0, np.int64), self.new_family(), klass)
        self.raw[row] = text

    def __len__(self) -> int:
        return len(self.docs)


def vocabulary(rng: np.random.Generator) -> np.ndarray:
    """Keywords and punctuation first (ids < N_COMMON), then identifiers."""
    a = np.arange(len(_SYLL))
    combos = [f"{_SYLL[i]}{_SYLL[j]}{d}" for i in a for j in a for d in range(40)]
    pick = rng.choice(len(combos), size=N_IDENT, replace=False)
    idents = [combos[i] for i in pick]
    return np.array(KEYWORDS + PUNCT + idents, dtype=object)


def draw_tokens(rng: np.random.Generator, n: int) -> np.ndarray:
    """25% keywords, 15% punctuation, 60% identifiers."""
    kind = rng.random(n)
    kw = rng.integers(0, len(KEYWORDS), n)
    pu = len(KEYWORDS) + rng.integers(0, len(PUNCT), n)
    ident = N_COMMON + rng.integers(0, N_IDENT, n)
    return np.where(kind < 0.25, kw, np.where(kind < 0.40, pu, ident)).astype(np.int64)


def draw_docs(rng: np.random.Generator, lengths: np.ndarray) -> list[np.ndarray]:
    flat = draw_tokens(rng, int(lengths.sum()))
    return np.split(flat, np.cumsum(lengths)[:-1])


def shingle_set(doc: np.ndarray) -> np.ndarray:
    """Distinct 5-token shingles as uint64 polynomial hashes; rows shorter
    than k give one whole-row shingle, as the engine does."""
    d = doc.astype(np.uint64)
    if d.shape[0] == 0:
        return np.empty(0, np.uint64)
    k = min(SHINGLE_K, d.shape[0])
    n = d.shape[0] - k + 1
    h = np.zeros(n, np.uint64)
    with np.errstate(over="ignore"):
        for i in range(k):
            h = h * np.uint64(1_000_003) + d[i : i + n] + np.uint64(1)
    return np.unique(h)


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = shingle_set(a), shingle_set(b)
    inter = np.intersect1d(sa, sb, assume_unique=True).shape[0]
    union = sa.shape[0] + sb.shape[0] - inter
    return inter / union if union else 1.0


def point_edits(rng: np.random.Generator, doc: np.ndarray, n_edits: int) -> np.ndarray:
    out = doc.copy()
    n_edits = min(n_edits, out.shape[0])
    pos = rng.choice(out.shape[0], size=n_edits, replace=False)
    out[pos] = draw_tokens(rng, n_edits)
    return out


def add_mutant(c: Corpus, template: np.ndarray, family: int, klass: str, rate: float) -> None:
    """Mutant of ``template``: in its family above the grey zone, grey inside
    it, its own family below it."""
    n_edits = max(1, int(round(rate * template.shape[0])))
    doc = point_edits(c.rng, template, n_edits)
    j = jaccard(doc, template)
    if j >= GREY_HI:
        c.add(doc, family, klass)
    elif j >= GREY_LO:
        c.add(doc, family, klass, grey=True)
    else:
        c.add(doc, c.new_family(), klass)


# near-dup mutation tiers: point-edit rate per token. close/mid land above
# the grey zone, edge tiers straddle the threshold, far lands well below.
MUTANT_TIERS = (0.004, 0.010, 0.025, 0.045, 0.30)


def plant_mix(c: Corpus, n_rows: int, wide_tokens: int) -> None:
    """The FIXTURES.md class mix: 10% exact dups, 15% tiered near-dup
    families, 5% boilerplate cliques, 5% shared-substring pairs, edge rows,
    uniques for the rest."""
    rng = c.rng
    # 1. exact duplicate groups of 2-4 identical copies
    n_exact = n_rows // 10
    made = 0
    while made < n_exact:
        k = int(rng.integers(2, 5))
        doc = draw_docs(rng, rng.integers(40, 400, 1))[0]
        fam = c.new_family()
        for _ in range(k):
            c.add(doc, fam, "exact")
        made += k
    # 2. near-dup families: template + 1-5 tiered mutants
    n_near = n_rows * 15 // 100
    made = 0
    while made < n_near:
        tmpl = draw_docs(rng, rng.integers(80, 500, 1))[0]
        fam = c.new_family()
        c.add(tmpl, fam, "near")
        made += 1
        for _ in range(int(rng.integers(1, 6))):
            add_mutant(c, tmpl, fam, "near", MUTANT_TIERS[int(rng.integers(len(MUTANT_TIERS)))])
            made += 1
    # 3. boilerplate cliques: one 300-token header + a short distinct tail;
    #    each clique is larger than the engine's max_band_size (256) so its
    #    hot LSH buckets take the windowed pairing path
    n_boiler = n_rows // 20
    n_cliques = max(1, n_boiler // 300)
    for _ in range(n_cliques):
        header = draw_docs(rng, np.array([300]))[0]
        fam = c.new_family()
        size = n_boiler // n_cliques
        tails = draw_docs(rng, rng.integers(5, 15, size))
        for t in tails:
            c.add(np.concatenate([header, t]), fam, "boiler")
    # 4. shared-substring pairs: a 300-token verbatim block inside two
    #    otherwise different 400-700 token bodies (true Jaccard ~0.2)
    for _ in range(n_rows // 40):
        block = draw_docs(rng, np.array([300]))[0]
        for body in draw_docs(rng, rng.integers(400, 700, 2)):
            at = int(rng.integers(0, body.shape[0]))
            c.add(np.concatenate([body[:at], block, body[at:]]), c.new_family(), "substr")
    # 6. edge rows: empty, one token, non-ASCII, one wide row
    c.add_raw("", "edge")
    c.add_raw("x", "edge")
    c.add_raw("héllo wörld ünicode 漢字 → ok", "edge")
    c.add(draw_docs(rng, np.array([wide_tokens]))[0], c.new_family(), "edge")
    # 5. uniques
    rest = n_rows - len(c)
    for doc in draw_docs(rng, rng.integers(30, 500, max(0, rest))):
        c.add(doc, c.new_family(), "unique")


def plant_hot_families(c: Corpus, families: int, family_size: int, tokens: int) -> None:
    """Short files in large families of near-identical files: each row is its
    family's template with 1-2 point edits, so contents are distinct while
    nearly every pair in a family collides in some LSH band."""
    rng = c.rng
    for tmpl in draw_docs(rng, np.full(families, tokens)):
        fam = c.new_family()
        seen: set[bytes] = set()
        while len(seen) < family_size:
            doc = point_edits(rng, tmpl, int(rng.integers(1, 3)))
            key = doc.tobytes()
            if key in seen:
                continue
            seen.add(key)
            j = jaccard(doc, tmpl)
            c.add(doc, fam, "hot", grey=GREY_LO <= j < GREY_HI)


def plant_delta(c: Corpus, base_rows: int, n_delta: int) -> None:
    """Append delta over rows [0, base_rows): a third exact copies of base
    files, a third close near-dup mutants of base files, a third new files
    (new near-dup families and uniques)."""
    rng = c.rng
    n_copy = n_delta // 3
    n_mut = n_delta // 3
    src = rng.choice(base_rows, size=n_copy + n_mut, replace=False)
    for r in src[:n_copy]:
        r = int(r)
        if r in c.raw:
            c.add_raw(c.raw[r], "delta-copy")
        else:
            c.add(c.docs[r], c.family[r], "delta-copy", c.grey[r])
    for r in src[n_copy:]:
        r = int(r)
        if r in c.raw or c.docs[r].shape[0] < 40 or c.grey[r]:
            c.add(draw_docs(rng, rng.integers(30, 500, 1))[0], c.new_family(), "delta-new")
            continue
        add_mutant(c, c.docs[r], c.family[r], "delta-mutant", MUTANT_TIERS[int(rng.integers(2))])
    while len(c) < base_rows + n_delta:
        if rng.random() < 0.3 and len(c) + 3 <= base_rows + n_delta:
            tmpl = draw_docs(rng, rng.integers(80, 500, 1))[0]
            fam = c.new_family()
            c.add(tmpl, fam, "delta-new")
            for _ in range(2):
                add_mutant(c, tmpl, fam, "delta-new", MUTANT_TIERS[int(rng.integers(2))])
        else:
            c.add(draw_docs(rng, rng.integers(30, 500, 1))[0], c.new_family(), "delta-new")


def render(vocab: np.ndarray, doc: np.ndarray) -> str:
    words = vocab[doc].tolist()
    return "\n".join(" ".join(words[i : i + 9]) for i in range(0, len(words), 9))


def build_tables(c: Corpus, vocab: np.ndarray, part: np.ndarray) -> tuple[pa.Table, pa.Table]:
    """Render rows to the files table and the truth table. ``part`` tags
    each row (0 = base, 1 = delta)."""
    rng = c.rng
    n = len(c)
    contents = [c.raw[i] if i in c.raw else render(vocab, d) for i, d in enumerate(c.docs)]
    lang_idx = rng.integers(0, len(LANGS), n)
    langs = [LANGS[i] for i in lang_idx]
    org = rng.integers(0, 10, n)
    proj = rng.integers(0, 5, n)
    sub = rng.integers(0, 50, n)
    words = rng.integers(0, 1 << 32, (n, 5), dtype=np.uint64)
    commits = ["".join(f"{w:08x}" for w in row) for row in words.tolist()]
    repos = [f"org{o}/proj{p}" for o, p in zip(org.tolist(), proj.tolist())]
    paths = [f"src/m{s}/f{i}.{LANG_EXT[l]}" for i, (s, l) in enumerate(zip(sub.tolist(), langs))]
    shas = [hashlib.sha256(t.encode()).hexdigest() for t in contents]
    files = pa.table({
        "repo": pa.array(repos, pa.string()),
        "path": pa.array(paths, pa.string()),
        "commit": pa.array(commits, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "content": pa.array(contents, pa.string()),
    })
    truth = pa.table({
        "path": pa.array(paths, pa.string()),
        "family": pa.array(c.family, pa.int64()),
        "klass": pa.array(c.klass, pa.string()),
        "grey": pa.array(c.grey, pa.bool_()),
        "empty": pa.array([t == "" for t in contents], pa.bool_()),
        "sha256": pa.array(shas, pa.string()),
        "part": pa.array(part, pa.int8()),
    })
    return files, truth


def write_shards(files: pa.Table, out_dir: str, prefix: str, n_shards: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-files.num_rows // n_shards)
    for s in range(n_shards):
        chunk = files.slice(s * per, per)
        if chunk.num_rows:
            pq.write_table(chunk, os.path.join(out_dir, f"{prefix}-{s:03d}.parquet"))


def generate(workload: str, seed: int, out_dir: str) -> None:
    """Write the workload's inputs under ``out_dir``:

    - ``base/``: the base corpus, which seeds a checkpoint cache;
    - ``full/``: base plus one delta shard: every file the jobs read;
    - ``truth.parquet``, whose ``part`` column is 0 for base and 1 for delta.

    The append workload's delta is planted against its base; on the other
    workloads a random eighth of the rows is the delta.
    """
    # workload name is mixed into the stream so workloads differ at one seed
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    rng = np.random.default_rng([seed, tag])
    vocab = vocabulary(rng)
    c = Corpus(rng)
    size = SIZES[workload]
    if workload == "planted-dedup":
        plant_mix(c, size["rows"], size["wide_tokens"])
    elif workload == "hot-families":
        plant_hot_families(c, size["families"], size["family_size"], size["tokens"])
    elif workload == "incremental-append":
        plant_mix(c, size["base"], size["wide_tokens"])
        n_base = len(c)
        plant_delta(c, n_base, size["delta"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    part = np.zeros(len(c), np.int8)
    if workload == "incremental-append":
        part[n_base:] = 1
    else:
        part[rng.permutation(len(c))[: len(c) // N_SHARDS]] = 1
    files, truth = build_tables(c, vocab, part)
    # shuffle within each part so every shard holds the whole class mix
    order = np.concatenate([
        rng.permutation(np.flatnonzero(part == p)) for p in (0, 1)
    ])
    files, truth = files.take(order), truth.take(order)
    is_base = truth["part"].to_numpy() == 0
    base = files.filter(pa.array(is_base))
    for d in ("base", "full"):
        write_shards(base, os.path.join(out_dir, d), "base", N_SHARDS - 1)
    write_shards(files.filter(pa.array(~is_base)), os.path.join(out_dir, "full"), "delta", 1)
    pq.write_table(truth, os.path.join(out_dir, "truth.parquet"))


def _digests(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name == "MANIFEST.json":
                continue
            p = os.path.join(dirpath, name)
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = hashlib.sha256(f.read()).hexdigest()
    return out


def _valid(out_dir: str) -> bool:
    man = os.path.join(out_dir, "MANIFEST.json")
    if not os.path.exists(man):
        return False
    with open(man) as f:
        recorded = json.load(f)
    return recorded.get("files") == _digests(out_dir)


def ensure_inputs(workload: str, seed: int, work_dir: str) -> str:
    """Directory holding the workload's inputs for ``seed``, generated unless
    a complete, digest-verified copy is already there."""
    with open(__file__, "rb") as f:
        version = hashlib.sha256(f.read()).hexdigest()[:12]
    out_dir = os.path.join(work_dir, f"{workload}-s{seed}-{version}")
    if _valid(out_dir):
        return out_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    generate(workload, seed, out_dir)
    record = {"workload": workload, "seed": seed, "files": _digests(out_dir)}
    tmp = os.path.join(out_dir, "MANIFEST.json.tmp")
    with open(tmp, "w") as f:
        json.dump(record, f)
    os.replace(tmp, os.path.join(out_dir, "MANIFEST.json"))
    return out_dir
