"""CLI entrypoint — the ``ray job submit`` surface (north rule).

Usage (single node: ``python -m europa_ray.cli ...``; on a cluster submit
the same command via ``ray job submit --working-dir .``)::

    python -m europa_ray.cli neardup --input DIR --output DIR
        [--checkpoint DIR] [--simhash] [--substr]
        [--include-langs python,go] [--min-size N] [--max-size N]
    python -m europa_ray.cli exact   --input DIR --output DIR [--two-pass]
    python -m europa_ray.cli textstats --input DIR --output DIR
    python -m europa_ray.cli sample  --input DIR --output DIR
        [--rate 0.25] [--rate-overrides lang=rate,...] [--token-budget N]
    python -m europa_ray.cli decontam --input DIR --output DIR
        [--benchmark DIR]
    python -m europa_ray.cli containment --input DIR --output DIR
        [--threshold 0.8] [--keep] [--reference DIR]

Output is partitioned Parquet (resumable: with ``--checkpoint`` every stage
records per-partition lineage + counters in ``manifest.json`` and a re-run
skips completed stages — SURVEY.md §4.4 / the reference's Qdrant-as-cache
behavior, ``SimilarImageFinder.cs:167-178``).

Only this entrypoint owns the Ray session (guarded ``ray.init``): library
code never initialises Ray.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(256 * 1024 * 1024))
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(256 * 1024 * 1024))


def _init_ray() -> bool:
    """Init Ray if not already up; returns True when WE own the session
    (and should shut it down on exit)."""
    import ray

    owned = False
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
        owned = True
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return owned


def _config_from_args(args) -> "EngineConfig":
    from europa_ray.config import EngineConfig

    kw = {}
    if args.include_langs:
        kw["include_langs"] = tuple(args.include_langs.split(","))
    if args.exclude_langs:
        kw["exclude_langs"] = tuple(args.exclude_langs.split(","))
    if args.min_size is not None:
        kw["min_size"] = args.min_size
    if args.max_size is not None:
        kw["max_size"] = args.max_size
    if getattr(args, "two_pass", False):
        kw["two_pass"] = True
    if getattr(args, "fuzzy_algo", None):
        kw["fuzzy_algo"] = args.fuzzy_algo
    if getattr(args, "minhash_mode", None):
        kw["minhash_mode"] = args.minhash_mode
    return EngineConfig(**kw)


def cmd_neardup(args) -> dict:
    import ray.data

    from europa_ray.sources.files import read_files
    from europa_ray.pipelines.neardup import near_dup_pipeline
    from europa_ray.stages.signatures import signatures
    from europa_ray.stages.simhash_pass import simhash_pairs
    from europa_ray.stages.substr import substring_pairs

    cfg = _config_from_args(args)
    files = read_files(args.input)

    progress = None
    if getattr(args, "progress", False):
        # live per-stage row stream to stderr while the run is in flight —
        # the SignalR notification analog (DuplicateByHashFinder.cs:146-171)
        from europa_ray.state.progress import Progress

        progress = Progress().watch()

    extra = None
    if args.substr:
        extra = substring_pairs(read_files(args.input), cfg)
    if args.simhash:
        sh = simhash_pairs(
            signatures(read_files(args.input), cfg, compute_minhash=False).materialize(),
            cfg,
        )
        extra = sh if extra is None else extra.union(sh)

    if args.checkpoint:
        # Incremental cross-run flow (J1/J2/SO2): signatures are computed
        # only for content nodes absent from the cache; new verified pairs
        # are anti-joined against (and unioned with) the persisted edge set;
        # per-stage counters + per-partition output lineage go to the
        # manifest (A8).
        from europa_ray.pipelines.neardup import assemble_members
        from europa_ray.stages.lsh import candidate_pairs
        from europa_ray.state.manifest import Manifest, fingerprint_of
        from europa_ray.state.sigcache import incremental_pairs, incremental_signatures
        from europa_ray.state.unionfind import components

        man = Manifest(args.checkpoint)
        fp = fingerprint_of("neardup-v2", args.input, cfg)

        sigs, sig_counters = incremental_signatures(
            read_files(args.input), cfg, cache_root=args.checkpoint
        )
        if progress is not None:
            sigs = progress.count_stage(sigs, "signature_rows")
        sigs = sigs.materialize()
        man.record("signatures", fp, sig_counters, rows_out=sigs.count())

        new_pairs = candidate_pairs(sigs, cfg).materialize()
        pairs, pair_counters = incremental_pairs(
            new_pairs, cache_root=args.checkpoint, cfg=cfg
        )
        pair_counters["verified_pairs"] = float(new_pairs.count())
        if extra is not None:
            from europa_ray.stages.lsh import dedupe_pairs

            pairs = dedupe_pairs(pairs.union(extra), source=None)
        if progress is not None:
            pairs = progress.count_stage(pairs, "verified_pairs")
        pairs = pairs.materialize()
        man.record("pairs", fp, pair_counters, rows_out=pairs.count())

        labels = components(pairs, driver_max_edges=cfg.cc_driver_max_edges)
        clusters = assemble_members(sigs, labels, cfg)
        if progress is not None:
            clusters = progress.count_stage(clusters, "cluster_rows").materialize()
        out = {"pairs": pairs, "clusters": clusters}
    else:
        out = near_dup_pipeline(files, cfg, extra_pairs=extra, progress=progress)

    # clusters is lazy: materialize once so write + count don't re-execute
    # the assembly (and don't double-count the live progress stream)
    out["clusters"] = out["clusters"].materialize()
    out["clusters"].write_parquet(args.output + "/clusters")
    out["pairs"].write_parquet(args.output + "/pairs")
    result = {
        "clusters_rows": out["clusters"].count(),
        "pairs_rows": out["pairs"].count(),
    }
    if progress is not None:
        progress.close()  # drain + final flush, then release the actor
    if args.checkpoint:
        man.record_output(
            "clusters",
            fp,
            args.output + "/clusters",
            counters={"clusters_rows": float(result["clusters_rows"])},
        )
    return result


def cmd_exact(args) -> dict:
    from europa_ray.pipelines.exact import exact_dup_clusters
    from europa_ray.sources.files import read_files

    cfg = _config_from_args(args)
    out = exact_dup_clusters(read_files(args.input), cfg)
    out.write_parquet(args.output + "/exact_clusters")
    return {"clusters_rows": out.count()}


def cmd_clones(args) -> dict:
    """Type-2 (consistent-rename) clone groups over the parameterized
    canonical form (:mod:`europa_ray.pipelines.clones`) — the tier between
    normalization-exact and MinHash near-dup in the clone taxonomy."""
    from europa_ray.pipelines.clones import type2_clone_members
    from europa_ray.sources.files import read_files

    cfg = _config_from_args(args)
    out = type2_clone_members(read_files(args.input), cfg)
    out.write_parquet(args.output + "/type2_clones")
    return {"clone_rows": out.count()}


def cmd_textstats(args) -> dict:
    from europa_ray.pipelines.textstats import (
        lang_id_batch,
        quality_ppm_batch,
        token_count_batch,
    )
    from europa_ray.sources.files import read_files

    import pyarrow as pa

    ds = read_files(args.input)

    def stats(batch: pa.Table) -> pa.Table:
        counted = token_count_batch(batch, text_col="content")
        quality = quality_ppm_batch(batch, text_col="content")
        lang = lang_id_batch(batch, text_col="content")
        out = counted
        for col in ("n_chars", "alpha_ppm", "digit_ppm", "ws_ppm"):
            out = out.append_column(col, quality[col])
        out = out.append_column("lang_pred", lang["lang_pred"])
        return out

    out = ds.map_batches(stats, batch_format="pyarrow")
    pcols = [args.partition_by] if getattr(args, "partition_by", None) else None
    # hive-partitioned output (one directory per key value) makes a failed
    # run resumable per key range — the S4 partitioned-sink criterion
    out.write_parquet(args.output + "/textstats", partition_cols=pcols)
    return {"rows": out.count()}


def _with_row_id(files):
    """Deterministic int64 ``row_id`` from the (repo, path, commit)
    identity — the corpus table has no integer id; budget sampling needs an
    orderable per-row tie-breaker that is stable across runs/partitions."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from europa_ray.util import hash_strings

    def add_id(batch: pa.Table) -> pa.Table:
        # "\x1f" separator, NOT "\x00": pandas' string hash truncates at
        # the first NUL byte, so a NUL-joined key hashed only `repo` —
        # 6000-row corpora collapsed to ~50 distinct row_ids (see
        # util.hash_strings pitfall note; regression-tested in test_cli.py)
        ident = pc.binary_join_element_wise(
            batch["repo"], batch["path"], batch["commit"], "\x1f"
        )
        rid = hash_strings(ident.to_pylist()).view(np.int64)
        return batch.append_column("row_id", pa.array(rid))

    return files.map_batches(add_id, batch_format="pyarrow")


def cmd_sample(args) -> dict:
    from europa_ray.pipelines.sampling import hash_sample, token_budget_sample
    from europa_ray.sources.files import read_files

    files = _with_row_id(read_files(args.input))
    if args.token_budget is not None:
        out = token_budget_sample(
            files, budget=args.token_budget, id_col="row_id"
        )
    else:
        rates = {}
        for spec in (args.rate_overrides or "").split(","):
            if spec:
                lang, r = spec.split("=")
                rates[lang] = float(r)
        out = hash_sample(
            files, rates=rates, default_rate=args.rate, id_col="row_id",
            keep_cols=("row_id", "repo", "path", "commit", "lang"),
        )
    out.write_parquet(args.output + "/sample")
    return {"rows": out.count()}


def cmd_decontam(args) -> dict:
    from europa_ray.sources.files import read_files
    from europa_ray.stages.decontam import benchmark_snippets, decontam_stats

    corpus = _with_row_id(read_files(args.input))
    bench_src = (
        _with_row_id(read_files(args.benchmark)) if args.benchmark else corpus
    )
    snippets = benchmark_snippets(bench_src, id_col="row_id")
    out = decontam_stats(corpus, snippets, id_col="row_id")
    out.write_parquet(args.output + "/decontam")
    return {"snippets": snippets.num_rows, "flagged_rows": out.count()}


def cmd_forks(args) -> dict:
    """Repo-level fork detection (pipelines/forks.py)."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.forks import repo_fork_pairs
    from europa_ray.sources.files import read_files

    out = repo_fork_pairs(
        read_files(args.input),
        threshold=args.threshold,
        max_repos_per_sha=args.max_repos_per_sha,
    )
    if isinstance(out, pa.Table):
        out = ray.data.from_arrow(out)
    out.write_parquet(args.output + "/fork_pairs")
    return {"pairs": out.count()}


def cmd_crossdup(args) -> dict:
    """Cross-corpus near dedup: --input (new) vs --reference."""
    from europa_ray.pipelines.crossdup import cross_corpus_near_dup_stats
    from europa_ray.sources.files import read_files

    import pyarrow as pa
    import ray.data

    cfg = _config_from_args(args)
    new = _with_row_id(read_files(args.input))
    ref = _with_row_id(read_files(args.reference))
    out = cross_corpus_near_dup_stats(new, ref, cfg, id_col="row_id")
    if isinstance(out, pa.Table):
        out = ray.data.from_arrow(out)
    out.write_parquet(args.output + "/cross_near_dups")
    return {"matched_rows": out.count()}


def cmd_containment(args) -> dict:
    """Set-containment join / dedup policy; --reference switches to
    cross-corpus decontamination (benchmark snippets in --reference)."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.containment import (
        containment_kept_nodes,
        containment_pairs,
        cross_corpus_containment_stats,
    )
    from europa_ray.sources.files import read_files

    cfg = _config_from_args(args)
    files = read_files(args.input)
    if args.reference:
        new = _with_row_id(files)
        ref = read_files(args.reference)
        out = cross_corpus_containment_stats(
            new, ref, cfg, tau=args.threshold, id_col="row_id"
        )
        if isinstance(out, pa.Table):
            out = ray.data.from_arrow(out)
        out.write_parquet(args.output + "/cross_containment")
        return {"contaminated_rows": out.count()}
    if args.keep:
        out = containment_kept_nodes(files, cfg, tau=args.threshold)
        out.write_parquet(args.output + "/containment_kept")
        return {"kept_rows": out.count()}
    out = containment_pairs(files, cfg, tau=args.threshold)
    out.write_parquet(args.output + "/containment_pairs")
    return {"pairs": out.count()}


def cmd_semdedup(args) -> dict:
    """SemDeDup over an embeddings parquet (vec_id, embedding)."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.semdedup import semantic_dup_pairs, semdedup_kept_ids

    emb = ray.data.read_parquet(args.input)
    pairs = semantic_dup_pairs(
        emb, threshold=args.threshold, nlist=args.nlist
    )
    if isinstance(pairs, pa.Table):
        pairs = ray.data.from_arrow(pairs)
    pairs.write_parquet(args.output + "/semantic_pairs")
    kept = semdedup_kept_ids(emb, threshold=args.threshold, nlist=args.nlist)
    if isinstance(kept, pa.Table):
        kept = ray.data.from_arrow(kept)
    kept.write_parquet(args.output + "/kept_ids")
    return {"pairs": pairs.count(), "kept": kept.count()}


def cmd_report(args) -> dict:
    """Per-repo exact-dedup report card."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.exact import dedup_report
    from europa_ray.sources.files import read_files

    cfg = _config_from_args(args)
    out = dedup_report(read_files(args.input), cfg)
    if isinstance(out, pa.Table):
        out = ray.data.from_arrow(out)
    out.write_parquet(args.output + "/dedup_report")
    return {"groups": out.count()}


def cmd_tiers(args) -> dict:
    """Tiered dedup attribution (exact → norm → near over survivors):
    writes the total (doc_id → tier, canonical dup_of) mapping plus a
    per-tier row-count summary."""
    import pyarrow as pa
    import ray.data

    from europa_ray.pipelines.tiers import tiered_dedup
    from europa_ray.sources.files import read_files

    cfg = _config_from_args(args)
    progress = None
    if getattr(args, "progress", False):
        from europa_ray.state.progress import Progress

        progress = Progress().watch()
    out = tiered_dedup(
        _with_row_id(read_files(args.input)), cfg, id_col="row_id",
        rep_rule=args.rep_rule, with_type2=getattr(args, "type2", False),
        t2_min_tokens=getattr(args, "t2_min_tokens", 5),
        progress=progress,
    ).materialize()
    out.write_parquet(args.output + "/tiers")
    counts = {
        row["tier"]: int(row["count()"])
        for row in out.groupby("tier").count().take_all()
    }
    if progress is not None:
        progress.close()
    return {"rows": out.count(), "tiers": counts}


COMMANDS = {
    "neardup": cmd_neardup,
    "exact": cmd_exact,
    "textstats": cmd_textstats,
    "sample": cmd_sample,
    "decontam": cmd_decontam,
    "forks": cmd_forks,
    "crossdup": cmd_crossdup,
    "semdedup": cmd_semdedup,
    "report": cmd_report,
    "tiers": cmd_tiers,
    "clones": cmd_clones,
    "containment": cmd_containment,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="europa_ray")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--input", required=True)
        sp.add_argument("--output", required=True)
        sp.add_argument("--include-langs", default="")
        sp.add_argument("--exclude-langs", default="")
        sp.add_argument("--min-size", type=int, default=None)
        sp.add_argument("--max-size", type=int, default=None)
        if name == "neardup":
            sp.add_argument("--checkpoint", default=None)
            sp.add_argument("--simhash", action="store_true")
            sp.add_argument("--substr", action="store_true")
            sp.add_argument("--progress", action="store_true",
                            help="stream live per-stage row counts to stderr")
            # algorithm swaps (keyed-DI analog, Program.cs:104-108)
            sp.add_argument("--fuzzy-algo", default=None, choices=["simhash", "diffhash"])
            sp.add_argument("--minhash-mode", default=None, choices=["perm", "oph"])
        if name == "exact":
            sp.add_argument("--two-pass", action="store_true")
        if name == "sample":
            sp.add_argument("--rate", type=float, default=0.25)
            sp.add_argument("--rate-overrides", default="",
                            help="lang=rate[,lang=rate...] per-language overrides")
            sp.add_argument("--token-budget", type=int, default=None,
                            help="per-language token budget (switches to budget sampling)")
        if name == "decontam":
            sp.add_argument("--benchmark", default=None,
                            help="files-shaped corpus to derive benchmark snippets from (default: the input)")
        if name == "forks":
            sp.add_argument("--threshold", type=float, default=0.5)
            sp.add_argument("--max-repos-per-sha", type=int, default=16)
        if name == "crossdup":
            sp.add_argument("--reference", required=True,
                            help="files-shaped reference corpus to screen --input against")
        if name == "containment":
            sp.add_argument("--threshold", type=float, default=0.8)
            sp.add_argument("--keep", action="store_true",
                            help="emit the KEPT set (drop docs contained in "
                                 "a longer doc) instead of the pair table")
            sp.add_argument("--reference", default=None,
                            help="benchmark corpus: switch to cross-corpus "
                                 "containment decontamination of --input")
        if name == "semdedup":
            sp.add_argument("--threshold", type=float, default=0.9)
            sp.add_argument("--nlist", type=int, default=64)
        if name == "textstats":
            sp.add_argument("--partition-by", default=None,
                            help="hive-partition the output by this column "
                                 "(e.g. lang): one directory per key value, "
                                 "resumable per key range")
        if name == "tiers":
            sp.add_argument("--progress", action="store_true",
                            help="stream live near-tier row counts to stderr")
            sp.add_argument("--rep-rule", default="min_id",
                            choices=["min_id", "longest"],
                            help="group representative: minimum id or most content bytes")
            sp.add_argument("--type2", action="store_true",
                            help="insert the Type-2 (consistent-rename) tier "
                                 "between norm and near")
            sp.add_argument("--t2-min-tokens", type=int, default=5,
                            help="Type-2 eligibility guard: group only docs "
                                 "with >= N tokens and a repeated token "
                                 "(0 disables)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    owned = _init_ray()
    t0 = time.time()
    result = COMMANDS[args.cmd](args)
    result["seconds"] = round(time.time() - t0, 2)
    print(json.dumps(result))
    if owned:
        import ray

        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
