"""Benchmark of the engine's two user jobs on seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload planted-dedup --seed 1 --seconds 24 --trace 0

Workloads (inputs made by ``perfbench/gen.py`` from ``--seed``):

- ``planted-dedup``: the FIXTURES.md class mix; signatures dominate near-dup.
- ``hot-families``: short files in large near-identical families; LSH pairing,
  verification and union-find do the work.
- ``incremental-append``: set-up seeds the checkpoint cache from a base
  corpus; each near-dup job runs the ``--checkpoint`` CLI flow over base +
  delta from the restored seeded cache. Not listed in BENCHMARK.json: at one
  CPU its runs do not fit the run budget beside the other two.

Jobs: ``exact`` (``exact_dup_clusters``) and ``neardup``
(``near_dup_pipeline``, or the checkpoint flow on the append workload). Each
job is run once untimed, then timed back to back for half of ``--seconds``
(at least three runs); the jobs are not interleaved, because switching
between them makes both noisier. Timings are medians of wall time net of
hypervisor steal (see ``Stopwatch``); raw wall times are printed too. Every
timed job's output is checked; a job that raises or fails a check counts as
failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the jobs
layer by layer under spans (``perfbench/spans.py``) and prints the per-layer
metrics, plus ``trace.overhead_s`` against one untraced near-dup job. Spans
are written to ``perfbench/_w/spans-<workload>-s<seed>.jsonl``.

The Ray session gets the CPU count ``nproc`` reports. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_w")
WORKLOADS = ("planted-dedup", "hot-families", "incremental-append")
KEEP_INPUTS = 12  # generated inputs kept in the work dir, newest first
AF_UNIX_MAX = 107
RAY_SOCKET_SUFFIX = 64  # "/session_<date>_<usec>_<pid>/sockets/plasma_store"


def nproc() -> int:
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True, timeout=10)
        return max(1, int(out.stdout.strip()))
    except (OSError, ValueError, subprocess.SubprocessError):
        return os.cpu_count() or 1


def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def start_ray(cpus: int) -> None:
    import ray
    import ray.data

    kw = {}
    tmp = os.path.join(WORK, "r")
    if len(tmp) + RAY_SOCKET_SUFFIX <= AF_UNIX_MAX:
        kw["_temp_dir"] = tmp
    else:  # Ray's socket paths would not fit under the checkout
        print(f"perfbench: {tmp} too long for Ray sockets; using Ray's default temp dir",
              file=sys.stderr)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    # inputs are ~25 MB; a small object store is warm after fewer jobs
    # (fresh shared-memory pages make the first jobs slower)
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=300 << 20, **kw)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _descendants(root: int) -> list[int]:
    """Live descendant pids of ``root``, from the ppid field of /proc/*/stat."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(name))
    out, stack = [], [root]
    while stack:
        kids = children.get(stack.pop(), [])
        out += kids
        stack += kids
    return out


def _alive(pid: int) -> bool:
    try:
        if os.waitpid(pid, os.WNOHANG)[0] == pid:
            return False  # our own child, now reaped
    except ChildProcessError:
        pass
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_ray(timeout: float = 60.0) -> None:
    """Shut the session down and wait until every process it started ended."""
    import ray

    started = _descendants(os.getpid())
    if ray.is_initialized():
        ray.shutdown()
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in started):
        if time.monotonic() > deadline:
            for p in started:
                if _alive(p):
                    os.kill(p, signal.SIGKILL)
            deadline = time.monotonic() + timeout
        time.sleep(0.05)
    shutil.rmtree(os.path.join(WORK, "r"), ignore_errors=True)


def prune_inputs(data_dir: str, keep: str) -> None:
    entries = sorted(
        (os.path.join(data_dir, d) for d in os.listdir(data_dir)),
        key=os.path.getmtime, reverse=True,
    )
    for d in entries[KEEP_INPUTS:]:
        if d != keep:
            shutil.rmtree(d, ignore_errors=True)


class Bench:
    """One workload's inputs, scratch dirs and jobs."""

    def __init__(self, workload: str, seed: int, cpus: int, data: str, run_dir: str):
        import pandas as pd
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from europa_ray.config import DEFAULT_CONFIG

        self.workload = workload
        self.seed = seed
        self.cpus = cpus
        self.append = workload == "incremental-append"
        self.full = os.path.join(data, "full")
        self.base = os.path.join(data, "base")
        self.truth: pd.DataFrame = pq.read_table(os.path.join(data, "truth.parquet")).to_pandas()
        content = pq.read_table(self.full, columns=["content"])["content"]
        self.n_files = len(self.truth)
        self.mb = pc.sum(pc.binary_length(content.cast("binary"))).as_py() / 1e6
        self.cfg = DEFAULT_CONFIG
        self.run_dir = run_dir
        self.ckpt_seeded = os.path.join(run_dir, "ckpt-seeded")
        self.ckpt = os.path.join(run_dir, "ckpt")
        self.out = os.path.join(run_dir, "out")
        self.ref: dict[str, str] | None = None  # near-dup assignment to match

    # -- jobs ---------------------------------------------------------------
    def exact(self):
        from perfbench import jobs

        return jobs.run_exact(self.full)

    def prepare_near(self) -> None:
        """Untimed, before an append job: restore the seeded cache and clear
        the CLI's output dir."""
        from perfbench import jobs

        if self.append:
            jobs.restore(self.ckpt_seeded, self.ckpt)
            shutil.rmtree(self.out, ignore_errors=True)

    def near(self):
        from perfbench import jobs

        if self.append:
            return jobs.run_checkpoint(self.full, self.out, self.ckpt)
        return jobs.run_oneshot(self.full)

    def seed_cache(self) -> None:
        """Fill the checkpoint cache from the base corpus."""
        from perfbench import jobs

        jobs.run_checkpoint(self.base, os.path.join(self.run_dir, "seed-out"),
                            self.ckpt_seeded)

    def setup(self) -> None:
        """Seed the cache (append workload), then every job once, untimed."""
        if self.append:
            self.seed_cache()
        self.prepare_near()
        self.near()
        self.exact()

    # -- checks -------------------------------------------------------------
    def check_exact(self, out) -> None:
        from perfbench import jobs

        jobs.check_exact(jobs.collect(out), self.truth)

    def near_assignment(self, out) -> dict[str, str]:
        """Check a near-dup job's output; returns its assignment."""
        from perfbench import jobs

        if self.append:
            clusters, counters = jobs.read_checkpoint_output(self.out, self.ckpt)
            jobs.check_append_counters(counters, self.truth)
        else:
            clusters = jobs.collect(out)
        assign = jobs.assignment(clusters)
        self.check_near(assign)
        return assign

    def check_near(self, assign: dict[str, str]) -> None:
        from perfbench import jobs

        jobs.check_exact_inside_neardup(assign, self.truth)
        if self.ref is None:
            self.ref = assign
        else:
            jobs.check_same(assign, self.ref, "the first near-dup output")


def cpu_ticks() -> tuple[int, int]:
    """(busy, steal) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        jiffies = [int(x) for x in f.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = jiffies[:8]
    return user + nice + system + irq + softirq, steal


class Stopwatch:
    """Wall time, and wall time net of hypervisor steal.

    On a host that overcommits its CPUs the hypervisor preempts the VM's
    vCPUs; the guest kernel counts that as steal. These jobs are latency
    bound across several processes, so steal stretches their wall time
    independently of the program (measured on a shared 4-vCPU VM: the exact
    job +13% at 4.6% steal, +67% at 18%). If each busy vCPU-second is stretched alike, the job would have
    taken ``wall * busy / (busy + steal)`` without steal; that is ``net_s``,
    the value the timing metrics report. Raw wall times are printed beside.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.busy0, self.steal0 = cpu_ticks()

    def read(self) -> dict:
        wall = time.perf_counter() - self.t0
        busy, steal = cpu_ticks()
        busy, steal = busy - self.busy0, steal - self.steal0
        net = wall * busy / (busy + steal) if busy + steal else wall
        return {"wall_s": wall, "net_s": net, "steal": steal / (busy + steal) if busy + steal else 0.0}


def timed(fn) -> tuple[dict, object]:
    """Run ``fn``; returns its times and the driver's peak RSS during it,
    plus its output."""
    reset_peak_rss()
    watch = Stopwatch()
    out = fn()
    sample = watch.read()
    sample["rss_mb"] = peak_rss_mb()
    return sample, out


def report_failure(what: str, exc: BaseException) -> None:
    print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


MIN_SAMPLES = 3


def block(fn, check, budget: float) -> tuple[list[dict], int]:
    """Time ``fn`` back to back: at least MIN_SAMPLES runs, more while the
    next one still fits in ``budget`` seconds. Returns the samples of runs
    that passed ``check`` and the number of failed runs."""
    samples, failed = [], 0
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        try:
            sample, out = timed(fn)
            check(out)
            samples.append(sample)
        except Exception as exc:  # noqa: BLE001 - reported and counted
            failed += 1
            report_failure(getattr(fn, "__name__", "job"), exc)
        now = time.perf_counter()
        if len(samples) + failed >= MIN_SAMPLES and now - t0 + (now - r0) > budget:
            return samples, failed


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(x[key] for x in samples) if samples else 0.0


def measure(b: Bench, seconds: float) -> dict:
    """End-to-end run: each job's untimed warm-up, then its timed block. Set-up
    time is Ray start, the warm-up runs and, for the append workload, seeding
    the cache."""
    from perfbench import jobs

    watch = Stopwatch()
    start_ray(b.cpus)
    if b.append:
        b.seed_cache()
    b.prepare_near()
    b.near()
    setup = watch.read()

    def neardup():
        b.prepare_near()
        return b.near()

    # each near-dup job must match the first; the first becomes b.ref
    near, near_failed = block(neardup, b.near_assignment, seconds / 2)

    watch = Stopwatch()
    b.exact()
    warm_exact = watch.read()
    setup_s = setup["net_s"] + warm_exact["net_s"]
    exact, exact_failed = block(b.exact, b.check_exact, seconds / 2)

    attempted = len(near) + near_failed + len(exact) + exact_failed
    failed = near_failed + exact_failed
    if b.append:  # the cache must not change the answer
        attempted += 1
        try:
            b.check_near(jobs.assignment(jobs.collect(jobs.run_oneshot(b.full))))
        except Exception as exc:  # noqa: BLE001
            failed += 1
            report_failure("one-shot reference", exc)
    stop_ray()

    recall, precision = jobs.pair_scores(b.ref, b.truth) if b.ref is not None else (0.0, 0.0)
    exact_s = median_of(exact, "net_s")
    near_s = median_of(near, "net_s")
    metrics = {
        "exact_s": (exact_s, "s"),
        "neardup_s": (near_s, "s"),
        "files_per_s": (b.n_files / (exact_s + near_s) if exact and near else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "driver_peak_rss_mb": (max(median_of(near, "rss_mb"), median_of(exact, "rss_mb")), "MB"),
        "pair_recall": (recall, "ratio"),
        "pair_precision": (precision, "ratio"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    info = {
        "exact_samples (wall s, net s, steal)": [
            (round(x["wall_s"], 3), round(x["net_s"], 3), round(x["steal"], 3)) for x in exact],
        "neardup_samples (wall s, net s, steal)": [
            (round(x["wall_s"], 3), round(x["net_s"], 3), round(x["steal"], 3)) for x in near],
        "median wall s (exact, neardup, setup)": (
            round(median_of(exact, "wall_s"), 3), round(median_of(near, "wall_s"), 3),
            round(setup["wall_s"] + warm_exact["wall_s"], 3)),
        "failed_frac": failed / attempted,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def trace(b: Bench) -> dict:
    """Traced run: set-up, one untraced near-dup job, then under spans the
    exact chain, the one-shot chain, and the checkpoint chain over base +
    delta from a cache seeded with the base. Every chain's output is checked
    like a timed job's."""
    from perfbench import jobs, spans

    start_ray(b.cpus)
    b.setup()
    attempted = failed = 0

    attempted += 1
    untraced = None
    try:
        b.prepare_near()
        sample, out = timed(b.near)
        untraced = sample["wall_s"]
        b.near_assignment(out)
    except Exception as exc:  # noqa: BLE001
        failed += 1
        report_failure("untraced neardup job", exc)

    tr = spans.Tracer()

    def exact_chain() -> None:
        jobs.check_exact(spans.exact_chain(tr, "exact", b.full), b.truth)

    def oneshot_chain() -> None:
        b.check_near(jobs.assignment(spans.oneshot_chain(tr, "oneshot", b.full, b.cfg)))

    def checkpoint_chain() -> None:
        if not b.append:
            b.seed_cache()
        jobs.restore(b.ckpt_seeded, b.ckpt)
        shutil.rmtree(b.out, ignore_errors=True)
        clusters = spans.checkpoint_chain(tr, "checkpoint", b.full, b.out, b.ckpt, b.cfg)
        b.check_near(jobs.assignment(clusters))
        sig = tr.spans[tr.find("checkpoint", "sigcache.signatures")[0]]["counts"]
        pairs = tr.spans[tr.find("checkpoint", "sigcache.pairs")[0]]["counts"]
        jobs.check_append_counters(
            {"signatures": {"sig_nodes_computed": sig["nodes_computed"]},
             "pairs": {"pairs_new": pairs["pairs_new"]}}, b.truth)

    for chain in (exact_chain, oneshot_chain, checkpoint_chain):
        attempted += 1
        try:
            chain()
        except Exception as exc:  # noqa: BLE001
            failed += 1
            report_failure(f"traced {chain.__name__}", exc)
    stop_ray()

    primary = "checkpoint" if b.append else "oneshot"
    other = "oneshot" if b.append else "checkpoint"
    layer = spans.layer_metrics(tr, [primary, "exact", other])
    roots = tr.find(primary, "neardup.job")
    overhead = (tr.duration(roots[0]) - untraced) if roots and untraced is not None else 0.0
    tr.write(os.path.join(WORK, f"spans-{b.workload}-s{b.seed}.jsonl"))

    metrics = {}
    for name, value in layer.items():
        unit = ("s" if name.endswith("_s") else "B" if name.endswith("bytes")
                else "ratio" if name.endswith(("_ratio", "_yield")) else "count")
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (overhead, "s")
    info = {"neardup_shares": spans.shares(tr, primary),
            "untraced_neardup_s": untraced}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import europa_ray.cli  # noqa: F401 - its import sets the CLI's malloc env for Ray
    except ImportError as exc:
        print(f"perfbench: the engine is not importable from {ROOT}: {exc}", file=sys.stderr)
        return 2
    from perfbench import gen

    data_dir = os.path.join(WORK, "data")
    os.makedirs(data_dir, exist_ok=True)
    t0 = time.perf_counter()
    data = gen.ensure_inputs(args.workload, args.seed, data_dir)
    gen_s = time.perf_counter() - t0
    prune_inputs(data_dir, data)

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    b = Bench(args.workload, args.seed, nproc(), data, run_dir)
    try:
        res = trace(b) if args.trace else measure(b, args.seconds)
    finally:
        stop_ray()
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} cpus {b.cpus} "
          f"input {b.n_files} files {b.mb:.2f} MB (generated in {gen_s:.2f} s)")
    for k, v in res["info"].items():
        print(f"  {k}: {v}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted {res['attempted']} failed {res['failed']}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
