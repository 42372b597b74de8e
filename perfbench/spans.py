"""Outside-in layer traces: the benchmark calls each layer's public function
one at a time, materializing at every boundary, and records a span around
each call.

A span holds its name, start, end, parent and run id, plus counts of the work
the call did. Spans stay in memory until :meth:`Tracer.write`. A layer's self
time is its span minus its child spans (children of one parent run one after
another, so they never overlap).

Three traced chains mirror the user jobs:

- :func:`exact_chain`: read, the hash stage alone, then ``exact_dup_clusters``
  (which hashes again inside: the program offers no public entry that takes
  hashed rows, so ``exact`` self time includes its own hash pass);
- :func:`oneshot_chain`: ``near_dup_pipeline`` layer by layer;
- :func:`checkpoint_chain`: the ``cli.cmd_neardup --checkpoint`` flow layer by
  layer, including the CLI's output write (counted as the root's self time).

``lsh`` is split into candidate generation (``candidate_pairs(verify=False)``)
and signature verification (``verify_pairs_by_signature``); the pipeline's
``candidate_pairs(verify=True)`` runs exactly these two steps in sequence.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from perfbench.jobs import ID_COLS, collect


class Tracer:
    """The spans of one benchmark run, kept in memory until written."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._run_id = ""

    @contextmanager
    def span(self, name: str, run_id: str | None = None):
        """Record a span around the body; a span opened with ``run_id``
        starts a new run (a root)."""
        if run_id is not None:
            self._run_id = run_id
        rec = {
            "name": name,
            "run_id": self._run_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
            "error": None,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, i: int) -> float:
        s = self.spans[i]
        return s["end"] - s["start"]

    def self_time(self, i: int) -> float:
        children = [j for j, s in enumerate(self.spans) if s["parent"] == i]
        return self.duration(i) - sum(self.duration(j) for j in children)

    def find(self, run_id: str, name: str) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s["run_id"] == run_id and s["name"] == name
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **s, "self_s": self.self_time(i)}) + "\n")


def _sources(tr: Tracer, full_dir: str):
    from europa_ray.sources.files import read_files

    with tr.span("sources") as s:
        files = read_files(full_dir).materialize()
    s["counts"] = {"rows": files.count(), "bytes": files.size_bytes()}
    return files


def _lsh(tr: Tracer, sigs, cfg):
    import ray.data

    from europa_ray.stages.lsh import candidate_pairs, verify_pairs_by_signature

    with tr.span("lsh.candidates") as s:
        cand, aux = candidate_pairs(sigs, cfg, return_aux=True, verify=False)
        cand = cand.materialize()
    s["counts"] = {"candidates": cand.count()}
    with tr.span("lsh.pairs") as s:
        pairs = ray.data.from_arrow(
            verify_pairs_by_signature(cand.to_pandas(), sigs, cfg)
        ).materialize()
    s["counts"] = {"verified_pairs": pairs.count()}
    return pairs, aux


def _components(tr: Tracer, pairs, cfg):
    from europa_ray.state.unionfind import components

    with tr.span("unionfind") as s:
        labels = components(pairs, driver_max_edges=cfg.cc_driver_max_edges)
        if not isinstance(labels, dict):
            labels = labels.materialize()
    n = len(labels) if isinstance(labels, dict) else labels.count()
    s["counts"] = {"edges": pairs.count(), "nodes": n}
    return labels


def _assemble(tr: Tracer, sigs, labels, cfg, dup_nodes):
    from europa_ray.pipelines.neardup import assemble_members

    with tr.span("neardup.assemble") as s:
        clusters = assemble_members(sigs, labels, cfg, dup_nodes=dup_nodes).materialize()
    s["counts"] = {"cluster_rows": clusters.count()}
    return clusters


def exact_chain(tr: Tracer, run_id: str, full_dir: str):
    from europa_ray.pipelines.exact import exact_dup_clusters
    from europa_ray.stages.hash_stage import add_sha256

    with tr.span("exact.job", run_id=run_id):
        files = _sources(tr, full_dir)
        with tr.span("hash_stage") as s:
            hashed = files.map_batches(
                add_sha256, fn_kwargs={"keep_cols": ID_COLS}, batch_format="pyarrow"
            ).materialize()
        s["counts"] = {"rows": hashed.count()}
        with tr.span("exact") as s:
            out = exact_dup_clusters(files).materialize()
    out = collect(out)
    groups = len(set(out["cluster_id"].to_pylist())) if out.num_rows else 0
    s["counts"] = {"groups": groups, "member_rows": out.num_rows}
    return out


def oneshot_chain(tr: Tracer, run_id: str, full_dir: str, cfg):
    from europa_ray.stages.signatures import signatures

    with tr.span("neardup.job", run_id=run_id):
        files = _sources(tr, full_dir)
        with tr.span("signatures") as s:
            sigs = signatures(files, cfg, compute_fuzzy=False).materialize()
        s["counts"] = {"rows": sigs.count()}
        pairs, aux = _lsh(tr, sigs, cfg)
        labels = _components(tr, pairs, cfg)
        clusters = _assemble(tr, sigs, labels, cfg, aux["dup_nodes"])
    return collect(clusters)


def checkpoint_chain(tr: Tracer, run_id: str, full_dir: str, out_dir: str,
                     checkpoint: str, cfg):
    from europa_ray.state.sigcache import incremental_pairs, incremental_signatures

    with tr.span("neardup.job", run_id=run_id):
        files = _sources(tr, full_dir)
        with tr.span("sigcache.signatures") as s:
            sigs, sig_counters = incremental_signatures(files, cfg, cache_root=checkpoint)
            sigs = sigs.materialize()
        rows_in = sig_counters["rows_in"]
        s["counts"] = {
            "nodes_computed": sig_counters["sig_nodes_computed"],
            "nodes_cached": sig_counters["sig_nodes_cached"],
            "hit_ratio": sig_counters["rows_from_cache"] / rows_in if rows_in else 0.0,
        }
        new_pairs, _ = _lsh(tr, sigs, cfg)
        with tr.span("sigcache.pairs") as s:
            pairs, pair_counters = incremental_pairs(new_pairs, cache_root=checkpoint, cfg=cfg)
            pairs = pairs.materialize()
        s["counts"] = {
            "pairs_new": pair_counters["pairs_new"],
            "pairs_cached": pair_counters["pairs_from_cache"],
        }
        labels = _components(tr, pairs, cfg)
        clusters = _assemble(tr, sigs, labels, cfg, None)
        # the CLI writes both tables; kept in the root's self time
        clusters.write_parquet(out_dir + "/clusters")
        pairs.write_parquet(out_dir + "/pairs")
    return collect(clusters)


# per-layer metric -> (layer span name, count key or None for self time)
LAYER_METRICS = {
    "sources.read_s": ("sources", None),
    "sources.bytes": ("sources", "bytes"),
    "hash_stage.sha256_s": ("hash_stage", None),
    "hash_stage.rows": ("hash_stage", "rows"),
    "exact.clusters_s": ("exact", None),
    "exact.groups": ("exact", "groups"),
    "exact.member_rows": ("exact", "member_rows"),
    "signatures.busy_s": ("signatures", None),
    "signatures.rows": ("signatures", "rows"),
    "lsh.candidates_s": ("lsh.candidates", None),
    "lsh.candidates": ("lsh.candidates", "candidates"),
    "lsh.pairs_s": ("lsh.pairs", None),
    "lsh.verified_pairs": ("lsh.pairs", "verified_pairs"),
    "unionfind.components_s": ("unionfind", None),
    "unionfind.edges": ("unionfind", "edges"),
    "unionfind.nodes": ("unionfind", "nodes"),
    "neardup.assemble_s": ("neardup.assemble", None),
    "neardup.cluster_rows": ("neardup.assemble", "cluster_rows"),
    "sigcache.signatures_s": ("sigcache.signatures", None),
    "sigcache.nodes_computed": ("sigcache.signatures", "nodes_computed"),
    "sigcache.nodes_cached": ("sigcache.signatures", "nodes_cached"),
    "sigcache.hit_ratio": ("sigcache.signatures", "hit_ratio"),
    "sigcache.pairs_s": ("sigcache.pairs", None),
    "sigcache.pairs_new": ("sigcache.pairs", "pairs_new"),
    "sigcache.pairs_cached": ("sigcache.pairs", "pairs_cached"),
}
LAYERS = ("sources", "hash_stage", "exact", "signatures", "lsh", "unionfind",
          "neardup", "sigcache")


def layer_of(span_name: str) -> str:
    return span_name.split(".")[0]


def layer_metrics(tr: Tracer, run_order: list[str]) -> dict[str, float]:
    """Per-layer metrics, each taken from the first run in ``run_order`` whose
    path holds the layer: a workload's own near-dup job first, then the exact
    job, then the other near-dup flow."""
    out: dict[str, float] = {}
    for metric, (name, key) in LAYER_METRICS.items():
        value = 0.0
        for run_id in run_order:
            found = tr.find(run_id, name)
            if found:
                i = found[0]
                value = tr.self_time(i) if key is None else tr.spans[i]["counts"].get(key, 0)
                break
        out[metric] = float(value)
    cand = out["lsh.candidates"]
    out["lsh.verify_yield"] = out["lsh.verified_pairs"] / cand if cand else 0.0
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(sum(
            1 for s in tr.spans if s["error"] and layer_of(s["name"]) == layer
        ))
    return out


def shares(tr: Tracer, run_id: str) -> dict[str, float]:
    """Each layer's self time as a share of the run's root span."""
    roots = [i for i, s in enumerate(tr.spans) if s["run_id"] == run_id and s["parent"] is None]
    if not roots:
        return {}
    total = tr.duration(roots[0])
    acc: dict[str, float] = {}
    for i, s in enumerate(tr.spans):
        if s["run_id"] == run_id and s["parent"] is not None:
            layer = layer_of(s["name"])
            acc[layer] = acc.get(layer, 0.0) + tr.self_time(i)
    return {k: float(np.round(v / total, 4)) for k, v in acc.items()}
