"""Checkpoint manifest — per-stage, per-partition lineage + counters, and
mid-pipeline resume (north rule).

The reference's durable state is the Qdrant collection doubling as a
cross-run cache: cached signatures skip recompute
(``/root/reference/Api/Implementations/SimilarImages/SimilarImageFinder.cs:
167-178``), cached edges skip re-query (``:303-312``). The engine's durable
state is plain partitioned Parquet plus a JSON manifest:

    <root>/manifest.json
    <root>/stages/<stage>/part-*.parquet

``Manifest.stage(name, fingerprint, compute)`` returns the recorded output
when the stage already completed with the same input fingerprint (config +
upstream lineage), otherwise runs ``compute()``, writes partitioned Parquet,
and records per-file row counts. Progress counters (A8 — the SignalR
notification analog, ``DuplicateByHashFinder.cs:146-171``) live in the same
record. Resume therefore skips completed stages entirely; a killed run
restarts from the last completed stage.
"""

from __future__ import annotations

import glob
import json
import os
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from typing import Any

import pyarrow.parquet as pq
import ray.data

from europa_ray.sources.files import read_files
from europa_ray.util import hash_strings


def fingerprint_of(*parts: Any) -> str:
    """Stable fingerprint of config + lineage strings."""
    joined = "\x1f".join(str(p) for p in parts)
    return f"{int(hash_strings([joined])[0]):016x}"


@dataclass
class StageRecord:
    stage: str
    fingerprint: str
    output_path: str
    rows_out: int
    partitions: dict[str, int] = field(default_factory=dict)  # file → rows
    counters: dict[str, float] = field(default_factory=dict)
    ts: float = 0.0
    status: str = "done"


class Manifest:
    def __init__(self, root: str):
        self.root = root
        self.path = os.path.join(root, "manifest.json")
        os.makedirs(os.path.join(root, "stages"), exist_ok=True)
        self.records: dict[str, StageRecord] = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                raw = json.load(f)
            self.records = {k: StageRecord(**v) for k, v in raw.items()}

    def _flush(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({k: asdict(v) for k, v in self.records.items()}, f, indent=1)
        os.replace(tmp, self.path)

    def completed(self, stage: str, fingerprint: str) -> bool:
        rec = self.records.get(stage)
        if rec is None or rec.status != "done" or rec.fingerprint != fingerprint:
            return False
        files = sorted(glob.glob(os.path.join(rec.output_path, "*.parquet")))
        return bool(files) or rec.rows_out == 0

    def stage(
        self,
        name: str,
        fingerprint: str,
        compute: Callable[[], ray.data.Dataset],
        *,
        counters: dict[str, float] | None = None,
    ) -> ray.data.Dataset:
        """Run-or-resume one stage; output always lives as Parquet on disk."""
        out_dir = os.path.join(self.root, "stages", name)
        if self.completed(name, fingerprint):
            rec = self.records[name]
            if rec.rows_out == 0:
                # zero-row stages keep no parquet; re-running is cheap and exact
                return compute()
            return read_files(rec.output_path)
        ds = compute()
        # clear stale partials from a killed run, then write fresh
        os.makedirs(out_dir, exist_ok=True)
        for f in glob.glob(os.path.join(out_dir, "*.parquet")):
            os.remove(f)
        ds.write_parquet(out_dir)
        parts = {}
        rows = 0
        for f in sorted(glob.glob(os.path.join(out_dir, "*.parquet"))):
            n = pq.ParquetFile(f).metadata.num_rows
            parts[os.path.basename(f)] = n
            rows += n
        self.records[name] = StageRecord(
            stage=name,
            fingerprint=fingerprint,
            output_path=out_dir,
            rows_out=rows,
            partitions=parts,
            counters=counters or {},
            ts=time.time(),
        )
        self._flush()
        if rows == 0:
            return ds
        return read_files(out_dir)

    def add_counters(self, stage: str, counters: dict[str, float]) -> None:
        if stage in self.records:
            self.records[stage].counters.update(counters)
            self._flush()

    def record(
        self,
        stage: str,
        fingerprint: str,
        counters: dict[str, float],
        *,
        rows_out: int = 0,
        output_path: str = "",
    ) -> None:
        """Record progress counters for a stage WITHOUT owning its output
        (A8 — the SignalR progress-notification analog,
        ``DuplicateByHashFinder.cs:146-171``). Same-fingerprint records
        accumulate; a new fingerprint replaces."""
        rec = self.records.get(stage)
        if rec is None or rec.fingerprint != fingerprint:
            self.records[stage] = StageRecord(
                stage=stage,
                fingerprint=fingerprint,
                output_path=output_path,
                rows_out=rows_out,
                counters=dict(counters),
                ts=time.time(),
            )
        else:
            rec.counters.update(counters)
            if rows_out:
                rec.rows_out = rows_out
            rec.ts = time.time()
        self._flush()

    def record_output(
        self,
        stage: str,
        fingerprint: str,
        out_dir: str,
        counters: dict[str, float] | None = None,
    ) -> None:
        """Record per-partition lineage (file → rows) of an already-written
        Parquet directory plus progress counters (north rule: per-partition
        lineage + metrics)."""
        parts: dict[str, int] = {}
        rows = 0
        for f in sorted(glob.glob(os.path.join(out_dir, "*.parquet"))):
            n = pq.ParquetFile(f).metadata.num_rows
            parts[os.path.basename(f)] = n
            rows += n
        self.records[stage] = StageRecord(
            stage=stage,
            fingerprint=fingerprint,
            output_path=out_dir,
            rows_out=rows,
            partitions=parts,
            counters=dict(counters or {}),
            ts=time.time(),
        )
        self._flush()
