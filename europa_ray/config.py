"""Engine configuration — the analog of Europa's ``SearchParameters``
(``/root/reference/Core/Entities/SearchParameters/SearchParameters.cs:6-34``),
validated up-front like ``SearchParametersValidator``
(``/root/reference/Api/Controllers/SearchParametersValidator.cs:11-46``).

All signature parameters are frozen at the north-rule config by default:
5-gram shingles, 128-permutation MinHash, LSH b=16 r=8, 64-bit SimHash.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class EngineConfig:
    # --- input predicates (FileFilter semantics, FileFilter.cs:7-28) ---
    include_langs: tuple[str, ...] = ()   # empty = all; include-list wins
    exclude_langs: tuple[str, ...] = ()   # only applied when include empty
    min_size: int | None = None           # bounds on len(content), inclusive
    max_size: int | None = None

    # --- signature config (north rule) ---
    shingle_k: int = 5                    # 5-gram token shingles
    num_perm: int = 128                   # MinHash permutations
    lsh_bands: int = 16                   # b
    lsh_rows: int = 8                     # r  (b * r == num_perm)
    simhash_bits: int = 64
    fuzzy_algo: str = "simhash"           # 64-bit fuzzy-signature algorithm,
    #   resolved from functions.registry (the keyed-DI algorithm swap,
    #   Program.cs:104-108 / ImageHashResolver.cs:15-20): "simhash" (pHash
    #   analog) or "diffhash" (dHash analog); extensible via
    #   register_signature().
    candidates: str = "lsh"               # candidate generation: "lsh"
    #   (banded MinHash LSH — the probabilistic scale path) or "all" (one
    #   global band: COMPLETE candidate coverage through the same
    #   explode→pair→dedupe machinery, quadratic in distinct contents —
    #   the ≡-by-construction oracle/verification mode, like IVF at
    #   nprobe=nlist; use on verification-scale corpora only)
    ppjoin_order: str = "hash"            # prefix-filter token order: "hash"
    #   (ascending 64-bit shingle hash — no extra pass) or "df"
    #   (document-frequency ascending — rarest grams first, the classic
    #   AllPairs/PPJoin ordering: one budgeted gram-frequency pass demotes
    #   hot grams out of every prefix, shrinking the groupby(gram) buckets
    #   the distributed path shuffles; completeness holds under ANY fixed
    #   total order, so the df pass may be sampled). Measured (BASELINE.md
    #   round 4): 'df' collapses hot buckets ~n/df_min on PARTIAL-share skew
    #   (hot boilerplate header + distinct bodies) but cannot shrink
    #   full-clique buckets (identical gram sets reorder identically), so on
    #   the clique-dominated bench corpus its extra corpus pass costs more
    #   than it saves — hence 'hash' default; flip to 'df' when the corpus
    #   shows hot partially-shared grams.
    verify_mode: str = "estimate"         # pair verification: "estimate"
    #   (128-slot signature Jaccard ≥ τ − verify_margin — streaming, no
    #   content re-read) or "exact" (TRUE shingle-set Jaccard ≥ τ via the
    #   pairverify cogroup machinery — value-exact, SQL-oracle-comparable)
    minhash_mode: str = "oph"             # "oph" (default): one-permutation
    #   hashing with circular densification (Li/Owen/Zhang NIPS'12,
    #   Shrivastava/Li ICML'14) — one hash pass instead of num_perm, same
    #   128-component signature layout and banding; measured recall 0.9996 /
    #   precision 0.9989 vs brute-force truth (identical to "perm": 0.9994 /
    #   0.9989, 20k planted pairs) at 2.1× flagship throughput. "perm":
    #   num_perm independent multiply-shift passes.
    seed: int = 42

    # --- thresholds ---
    jaccard_threshold: float = 0.72       # ≈ (1/b)^(1/r) for b=16, r=8
    verify_margin: float = 0.03           # verification keeps est ≥ τ − margin:
    #   the 128-perm Jaccard estimator has σ ≈ 0.04 at τ, so filtering at
    #   exactly τ rejects ~half of TRUE boundary pairs; the margin trades a
    #   little precision for recall ≥ 0.99 at the threshold (the target
    #   metric; precision is report-only)
    simhash_max_hamming: int = 3          # Europa's degreeOfSimilarity analog:
    #   score threshold hashSize − degree − 1 ⇔ Hamming ≤ degree
    #   (QdrantRepository.cs:192)
    substr_window: int = 16               # w-gram width for substring pass
    substr_min_tokens: int = 256          # min shared-substring length (tokens)
    substr_sample_mod: int = 8            # winnow: keep w-grams with h % mod == 0

    # --- skew / capacity guards ---
    max_sig_tokens: int = 65536           # signature computed over the first
    #   N tokens per row (wide-row straggler guard; the reference similarly
    #   hashes a bounded prefix in pass 1, DuplicateByHashFinder.cs:42-44).
    #   Exact dedup always uses the FULL content sha256.
    max_band_size: int = 256              # all-pairs within a band up to this
    pair_window: int = 8                  # windowed pairing for oversize bands
    max_pairs_per_band: int = 40_000      # analog of ANN top-100 cap (K1)

    # --- execution ---
    batch_size: int = 2048                # rows per signature batch
    two_pass: bool = False                # 10%-prefix pre-pass (A2) — IO saver in
    #   the reference; correctness-neutral here (tested)
    cc_driver_max_edges: int = 5_000_000  # driver union-find below this, else
    #   distributed min-label propagation

    def __post_init__(self) -> None:
        # SearchParametersValidator.cs:13-46 analog: fail fast on bad config.
        if self.shingle_k < 1:
            raise ValueError("shingle_k must be >= 1")
        if self.lsh_bands * self.lsh_rows != self.num_perm:
            raise ValueError(
                f"lsh_bands*lsh_rows ({self.lsh_bands}*{self.lsh_rows}) must equal num_perm ({self.num_perm})"
            )
        if not (0.0 < self.jaccard_threshold <= 1.0):
            raise ValueError("jaccard_threshold must be in (0, 1]")
        if not (0 <= self.simhash_max_hamming <= self.simhash_bits):
            # degree ≤ hash bits, as the validator enforces degree ≤ 64 for
            # 64-bit algorithms (SearchParametersValidator.cs:28-39)
            raise ValueError("simhash_max_hamming must be within [0, simhash_bits]")
        if self.simhash_bits != 64:
            raise ValueError("only 64-bit fuzzy signatures are supported")
        from europa_ray.functions.registry import registered_signatures

        if self.fuzzy_algo not in registered_signatures():
            # ImageHashResolver.cs:15-20 analog: unknown algorithm key fails
            raise ValueError(
                f"unknown fuzzy_algo {self.fuzzy_algo!r}; registered: "
                f"{registered_signatures()}"
            )
        if self.minhash_mode not in ("perm", "oph"):
            raise ValueError("minhash_mode must be 'perm' or 'oph'")
        if self.candidates not in ("lsh", "all"):
            raise ValueError("candidates must be 'lsh' or 'all'")
        if self.verify_mode not in ("estimate", "exact"):
            raise ValueError("verify_mode must be 'estimate' or 'exact'")
        if self.ppjoin_order not in ("df", "hash"):
            raise ValueError("ppjoin_order must be 'df' or 'hash'")
        if self.minhash_mode == "oph" and (self.num_perm & (self.num_perm - 1)):
            raise ValueError("minhash_mode='oph' requires num_perm to be a power of two")
        if self.min_size is not None and self.max_size is not None and self.min_size > self.max_size:
            raise ValueError("min_size must be <= max_size")
        if self.include_langs and self.exclude_langs:
            # include-list wins over exclude-list (DirectoryReader.cs:80-82) —
            # normalize by ignoring exclude when include present; keep both
            # fields but document precedence (enforced in filters.apply_filters).
            pass


DEFAULT_CONFIG = EngineConfig()
