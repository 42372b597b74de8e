"""The user jobs the benchmark times, and the checks on their outputs.

Jobs, each timed up to its output materialized (checks collect the output
afterwards):

- exact: ``pipelines.exact.exact_dup_clusters`` over the input files;
- one-shot near-dup: ``pipelines.neardup.near_dup_pipeline``;
- checkpoint near-dup: the cache-backed ``--checkpoint`` flow of
  ``cli.cmd_neardup``, including the CLI's own output write.

Checks raise :class:`CheckFailed`; a job that raises or fails a check counts
as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

ID_COLS = ("repo", "path", "commit")


class CheckFailed(Exception):
    pass


def collect(ds) -> pa.Table:
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


def run_exact(full_dir: str):
    from europa_ray.pipelines.exact import exact_dup_clusters
    from europa_ray.sources.files import read_files

    return exact_dup_clusters(read_files(full_dir)).materialize()


def run_oneshot(full_dir: str):
    from europa_ray.pipelines.neardup import near_dup_pipeline
    from europa_ray.sources.files import read_files

    return near_dup_pipeline(read_files(full_dir))["clusters"].materialize()


def run_checkpoint(input_dir: str, output_dir: str, checkpoint: str) -> dict:
    """``europa_ray neardup --input I --output O --checkpoint C``."""
    from europa_ray.cli import cmd_neardup

    return cmd_neardup(argparse.Namespace(
        input=input_dir, output=output_dir, checkpoint=checkpoint,
        include_langs="", exclude_langs="", min_size=None, max_size=None,
        simhash=False, substr=False, progress=False,
        fuzzy_algo=None, minhash_mode=None,
    ))


def read_checkpoint_output(output_dir: str, checkpoint: str) -> tuple[pa.Table, dict]:
    """Clusters the CLI wrote, and its manifest counters by stage."""
    clusters = pq.read_table(os.path.join(output_dir, "clusters"))
    with open(os.path.join(checkpoint, "manifest.json")) as f:
        manifest = json.load(f)
    counters = {stage: rec.get("counters", {}) for stage, rec in manifest.items()}
    return clusters, counters


def restore(src: str, dst: str) -> None:
    """Make ``dst`` a fresh copy of the directory ``src``."""
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def expected_exact(truth: pd.DataFrame) -> dict[str, str]:
    """path -> sha256 for every non-empty row whose content occurs twice or
    more: the exact-duplicate member table by definition."""
    rows = truth[~truth["empty"]]
    n = rows.groupby("sha256")["path"].transform("size")
    dup = rows[n > 1]
    return dict(zip(dup["path"], dup["sha256"]))


def check_exact(out: pa.Table, truth: pd.DataFrame) -> None:
    want = expected_exact(truth)
    if out.num_rows == 0:
        got = {}
    else:
        got = dict(zip(out["path"].to_pylist(), out["cluster_id"].to_pylist()))
        if len(got) != out.num_rows:
            raise CheckFailed("exact: a path appears twice in the member table")
    if got != want:
        missing = len(set(want) - set(got))
        extra = len(set(got) - set(want))
        raise CheckFailed(
            f"exact: members differ from the sha256 grouping "
            f"({missing} missing, {extra} extra, {len(want)} expected)"
        )


def assignment(out: pa.Table) -> dict[str, str]:
    """path -> cluster_id of a near-dup cluster table."""
    if out.num_rows == 0:
        return {}
    return dict(zip(out["path"].to_pylist(), out["cluster_id"].to_pylist()))


def check_exact_inside_neardup(assign: dict[str, str], truth: pd.DataFrame) -> None:
    want = expected_exact(truth)
    by_sha: dict[str, set] = {}
    for path, sha in want.items():
        by_sha.setdefault(sha, set()).add(assign.get(path))
    split = [sha for sha, ids in by_sha.items() if len(ids) != 1 or None in ids]
    if split:
        raise CheckFailed(
            f"neardup: {len(split)} exact groups are not inside one near-dup cluster"
        )


def check_same(assign: dict[str, str], ref: dict[str, str], what: str) -> None:
    if assign != ref:
        diff = sum(1 for p in set(assign) | set(ref) if assign.get(p) != ref.get(p))
        raise CheckFailed(f"neardup: {diff} rows differ from {what}")


def expected_new_nodes(truth: pd.DataFrame) -> int:
    """Distinct non-empty delta contents absent from the base: what the
    signature cache must compute on an append run."""
    rows = truth[~truth["empty"]]
    base = set(rows.loc[rows["part"] == 0, "sha256"])
    delta = set(rows.loc[rows["part"] == 1, "sha256"])
    return len(delta - base)


def check_append_counters(counters: dict, truth: pd.DataFrame) -> None:
    computed = counters.get("signatures", {}).get("sig_nodes_computed")
    want = expected_new_nodes(truth)
    if computed != want:
        raise CheckFailed(f"sigcache: computed {computed} nodes, delta has {want} new")
    if not counters.get("pairs", {}).get("pairs_new", 0) > 0:
        raise CheckFailed("sigcache: the delta produced no new pairs")


def pair_scores(assign: dict[str, str], truth: pd.DataFrame) -> tuple[float, float]:
    """Pair recall and precision of a cluster assignment against the planted
    families, by pair counting over non-empty, non-grey rows. A row absent
    from the cluster table is a singleton."""
    rows = truth[~truth["empty"] & ~truth["grey"]]
    paths = rows["path"].to_numpy()
    pred = np.array([assign.get(p, "") for p in paths], dtype=object)
    lone = pred == ""
    pred[lone] = paths[lone]  # singletons get a label of their own
    fam = rows["family"].to_numpy()

    def pairs(counts: np.ndarray) -> int:
        counts = counts.astype(np.int64)
        return int((counts * (counts - 1) // 2).sum())

    df = pd.DataFrame({"pred": pred, "fam": fam})
    both = pairs(df.groupby(["pred", "fam"]).size().to_numpy())
    true_pairs = pairs(df.groupby("fam").size().to_numpy())
    pred_pairs = pairs(df.groupby("pred").size().to_numpy())
    recall = both / true_pairs if true_pairs else 1.0
    precision = both / pred_pairs if pred_pairs else 1.0
    return recall, precision
