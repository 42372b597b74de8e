"""Joins finish on a 1-CPU Ray cluster, and every ``__ray_entry__`` query
matches its DuckDB oracle there.

Ray 2.49's hash-shuffle join asks a CPU for each aggregator actor, and on
one CPU the running map and read tasks never free it, so a plain join makes
no progress (``util.hash_join`` asks none there). The checks run in a Python
process of their own under ``ray.init(num_cpus=1)`` with a timeout, so a
stalled join fails the test instead of hanging the whole run."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import __ray_entry__
from tests.conftest import SF_TINY

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 240
QUERIES_TIMEOUT_S = 900

_PRELUDE = r"""
import json, sys, warnings
warnings.filterwarnings("ignore")
import ray, ray.data

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
"""

_SCRIPT = _PRELUDE + r"""
import numpy as np
import pyarrow as pa

from europa_ray.config import EngineConfig
from europa_ray.pipelines.exact import exact_dup_clusters
from europa_ray.sources.files import read_files
from europa_ray.state.unionfind import components_dense, connected_components_distributed

out = {"cpus": ray.cluster_resources().get("CPU")}

# a random graph of ~1.3k edges: distributed hash-to-min against the dense kernel
rng = np.random.default_rng(7)
a, b = rng.integers(0, 1500, 1300), rng.integers(0, 1500, 1300)
keep = a != b
a, b = a[keep], b[keep]
lo, hi = np.minimum(a, b), np.maximum(a, b)
dist = connected_components_distributed(
    ray.data.from_arrow(pa.table({"a": lo, "b": hi}))
).to_pandas()
node, label = components_dense(1500, lo, hi)
out["edges"] = int(lo.shape[0])
out["cc_equal"] = dict(zip(dist["node"].tolist(), dist["cluster"].tolist())) == dict(
    zip(node.tolist(), label.tolist())
)

# the exact job through the two-pass (prefix-key join) path
cols = ["cluster_id", "repo", "path", "commit"]
one = exact_dup_clusters(read_files(sys.argv[1])).to_pandas()[cols]
two = exact_dup_clusters(read_files(sys.argv[1]), EngineConfig(two_pass=True)).to_pandas()[cols]
key = lambda df: sorted(map(tuple, df.astype(str).to_numpy().tolist()))
out["members"] = len(one)
out["two_pass_equal"] = key(one) == key(two)
ray.shutdown()
print("RESULT " + json.dumps(out))
"""


def _run_one_cpu(script: str, args: list[str], timeout_s: int) -> tuple[int, str, bool]:
    """Run ``script`` in a fresh Python process: its exit code, its log, and
    whether it was killed at ``timeout_s``."""
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = str(REPO)
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *args],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        log, _ = proc.communicate(timeout=timeout_s)
        return proc.returncode, log, False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        log, _ = proc.communicate()
        return proc.returncode, log, True


def _results(log: str) -> list[dict]:
    return [json.loads(ln[len("RESULT "):]) for ln in log.splitlines() if ln.startswith("RESULT ")]


def test_joins_finish_on_one_cpu(tiny_corpus):
    code, log, timed_out = _run_one_cpu(_SCRIPT, [tiny_corpus], TIMEOUT_S)
    if timed_out:
        pytest.fail(f"1-CPU joins did not finish in {TIMEOUT_S} s:\n{log[-3000:]}")
    results = _results(log)
    assert code == 0 and results, log[-3000:]
    got = results[-1]
    assert got["cpus"] == 1
    assert got["edges"] > 1200 and got["members"] > 0
    assert got["cc_equal"], got
    assert got["two_pass_equal"], got


_QUERIES_SCRIPT = _PRELUDE + r"""
import time, traceback

import __ray_entry__
from tests.test_entry import assert_matches_oracle

assert ray.cluster_resources().get("CPU") == 1
for name, fn in __ray_entry__.queries().items():
    t0, err = time.perf_counter(), None
    try:
        assert_matches_oracle(name, fn(sys.argv[1]), sys.argv[1])
    except Exception:
        err = traceback.format_exc()[-3000:]
    s = round(time.perf_counter() - t0, 2)
    # a new line first: DuckDB's progress bar (an oracle query over ~2 s)
    # can leave its last update on the log without a line end
    print("\nRESULT " + json.dumps({"name": name, "s": s, "err": err}), flush=True)
ray.shutdown()
"""


@pytest.fixture(scope="module")
def one_cpu_query_results():
    """Every query run once, in order, on one 1-CPU cluster: its result
    record by name, and the log's tail for the queries that never ran."""
    code, log, timed_out = _run_one_cpu(_QUERIES_SCRIPT, [SF_TINY], QUERIES_TIMEOUT_S)
    why = f"killed at {QUERIES_TIMEOUT_S} s" if timed_out else f"exit code {code}"
    return {r["name"]: r for r in _results(log)}, f"{why}:\n{log[-3000:]}"


@pytest.mark.parametrize("name", list(__ray_entry__.queries()))
def test_query_matches_oracle_on_one_cpu(one_cpu_query_results, name):
    results, tail = one_cpu_query_results
    assert name in results, f"{name} did not run on 1 CPU, {tail}"
    assert results[name]["err"] is None, results[name]["err"]
