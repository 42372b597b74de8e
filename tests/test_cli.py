"""CLI entrypoint tests (in-process main(); the CLI reuses the session's
Ray when already initialised)."""

from __future__ import annotations

import glob
import json

import pyarrow.parquet as pq
import pytest


def test_cli_exact_and_neardup_with_resume(ray_session, tiny_corpus, tmp_path, capsys):
    from europa_ray.cli import main

    out1 = str(tmp_path / "exact")
    assert main(["exact", "--input", tiny_corpus, "--output", out1]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["clusters_rows"] > 0
    files = glob.glob(out1 + "/exact_clusters/*.parquet")
    assert files
    tbl = pq.read_table(files)
    assert {"cluster_id", "sha256", "repo", "path", "commit"} <= set(tbl.column_names)

    out2 = str(tmp_path / "nd1")
    ckpt = str(tmp_path / "ckpt")
    assert main(["neardup", "--input", tiny_corpus, "--output", out2, "--checkpoint", ckpt]) == 0
    r1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r1["clusters_rows"] > 0 and r1["pairs_rows"] > 0

    # resume: same checkpoint, fresh output — byte-identical clusters
    out3 = str(tmp_path / "nd2")
    assert main(["neardup", "--input", tiny_corpus, "--output", out3, "--checkpoint", ckpt]) == 0
    a = pq.read_table(glob.glob(out2 + "/clusters/*.parquet")).to_pandas()
    b = pq.read_table(glob.glob(out3 + "/clusters/*.parquet")).to_pandas()
    key = lambda d: sorted(zip(d.path, d.cluster_id))
    assert key(a) == key(b)

    man = json.load(open(ckpt + "/manifest.json"))
    assert man["signatures"]["rows_out"] > 0
    assert man["pairs"]["rows_out"] == r1["pairs_rows"]


def test_cli_filters_flags(ray_session, tiny_corpus, tmp_path, capsys):
    from europa_ray.cli import main

    out = str(tmp_path / "filtered")
    assert (
        main(
            ["exact", "--input", tiny_corpus, "--output", out, "--include-langs", "python", "--min-size", "10"]
        )
        == 0
    )
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["clusters_rows"] >= 0


def test_cli_sample_and_decontam(ray_session, tiny_corpus, tmp_path, capsys):
    from europa_ray.cli import main

    out = str(tmp_path / "s1")
    assert main(["sample", "--input", tiny_corpus, "--output", out,
                 "--rate", "0.25", "--rate-overrides", "python=0.5"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < res["rows"]
    tbl = pq.read_table(glob.glob(out + "/sample/*.parquet"))
    assert {"row_id", "repo", "path", "commit", "lang"} <= set(tbl.column_names)

    # determinism: same command → identical sample
    out2 = str(tmp_path / "s2")
    assert main(["sample", "--input", tiny_corpus, "--output", out2,
                 "--rate", "0.25", "--rate-overrides", "python=0.5"]) == 0
    capsys.readouterr()
    tbl2 = pq.read_table(glob.glob(out2 + "/sample/*.parquet"))
    assert sorted(tbl["row_id"].to_pylist()) == sorted(tbl2["row_id"].to_pylist())

    out3 = str(tmp_path / "tb")
    assert main(["sample", "--input", tiny_corpus, "--output", out3,
                 "--token-budget", "500"]) == 0
    res3 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < res3["rows"]
    tbl3 = pq.read_table(glob.glob(out3 + "/sample/*.parquet"))
    assert {"row_id", "lang", "n_tokens"} <= set(tbl3.column_names)

    out4 = str(tmp_path / "dc")
    assert main(["decontam", "--input", tiny_corpus, "--output", out4]) == 0
    res4 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # snippet sources contain their own snippet → flagged ≥ 1 when any
    # snippet qualifies (planted corpus rows are long enough)
    assert res4["snippets"] > 0 and res4["flagged_rows"] > 0


def test_cli_round4_subcommands(ray_session, tiny_corpus, tmp_path, capsys):
    """forks / report / crossdup / semdedup run end-to-end and write
    parquet results."""
    import numpy as np
    import pyarrow as pa

    from europa_ray.cli import main

    out = str(tmp_path / "forks")
    assert main(["forks", "--input", tiny_corpus, "--output", out]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["pairs"] >= 0
    if res["pairs"]:  # an empty Dataset writes no parquet parts
        assert glob.glob(out + "/fork_pairs/*.parquet")

    out = str(tmp_path / "report")
    assert main(["report", "--input", tiny_corpus, "--output", out]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["groups"] > 0
    tbl = pq.read_table(glob.glob(out + "/dedup_report/*.parquet"))
    assert {"repo", "n_files", "n_distinct", "dup_rows", "dup_rate_ppm"} == set(
        tbl.column_names
    )
    # the tiny corpus plants exact dups → some group has dup mass
    assert max(tbl["dup_rows"].to_pylist()) > 0

    out = str(tmp_path / "crossdup")
    assert (
        main(
            ["crossdup", "--input", tiny_corpus, "--reference", tiny_corpus,
             "--output", out]
        )
        == 0
    )
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # corpus vs itself: every row matches itself exactly
    assert res["matched_rows"] > 0

    emb_dir = tmp_path / "emb"
    emb_dir.mkdir()
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(80, 16)).astype(np.float32)
    mat[40:] = mat[:40]  # 40 planted exact copies
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(80), pa.int64()),
                "embedding": pa.array([r.tolist() for r in mat], pa.list_(pa.float32())),
            }
        ),
        str(emb_dir / "emb.parquet"),
    )
    out = str(tmp_path / "semdedup")
    assert (
        main(
            ["semdedup", "--input", str(emb_dir / "emb.parquet"),
             "--output", out, "--nlist", "4"]
        )
        == 0
    )
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["pairs"] >= 40  # every planted copy found (same argmax cell)
    assert res["kept"] == 40


def test_cli_tiers_subcommand(ray_session, tiny_corpus, tmp_path, capsys):
    """tiers runs end-to-end, writes the attribution parquet, and the
    mapping is TOTAL (one row per input file)."""
    import ray.data

    from europa_ray.cli import main

    out = str(tmp_path / "tiers")
    assert main(["tiers", "--input", tiny_corpus, "--output", out]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    n_in = ray.data.read_parquet(tiny_corpus).count()
    assert res["rows"] == n_in
    assert sum(res["tiers"].values()) == n_in
    # the tiny corpus plants exact + near dup classes
    assert res["tiers"].get("exact", 0) > 0
    assert res["tiers"].get("near", 0) > 0
    tbl = pq.read_table(glob.glob(out + "/tiers/*.parquet"))
    assert set(tbl.column_names) == {"doc_id", "tier", "dup_of"}


def test_cli_clones_subcommand(ray_session, tiny_corpus, tmp_path, capsys):
    """clones runs end-to-end and finds at least the planted exact-dup
    classes (Type-2 groups superset exact groups by construction)."""
    from europa_ray.cli import main

    out = str(tmp_path / "clones")
    assert main(["clones", "--input", tiny_corpus, "--output", out]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["clone_rows"] > 0
    tbl = pq.read_table(glob.glob(out + "/type2_clones/*.parquet"))
    assert {"p_sha256", "n_members"} <= set(tbl.column_names)
    assert min(tbl["n_members"].to_pylist()) >= 2


def test_row_id_unique_per_identity(ray_session, tiny_corpus):
    """Regression: pandas' string hash truncates at the first NUL byte, so
    the old "\\x00"-joined row_id collapsed every (path, commit) under one
    repo to a single id (~50 distinct ids on a 6000-row corpus). row_id
    must be unique per distinct (repo, path, commit)."""
    import numpy as np
    import ray.data

    from europa_ray.cli import _with_row_id

    files = _with_row_id(ray.data.read_parquet(tiny_corpus))
    ids = np.concatenate(
        [
            b["row_id"].to_numpy()
            for b in files.select_columns(["row_id"]).iter_batches(
                batch_format="pyarrow", batch_size=1 << 20
            )
        ]
    )
    assert np.unique(ids).shape[0] == ids.shape[0]


def test_cli_containment_subcommand(ray_session, tiny_corpus, tmp_path, capsys):
    from europa_ray.cli import main

    out = str(tmp_path / "cont")
    assert main(["containment", "--input", tiny_corpus, "--output", out]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["pairs"] >= 0
    files = glob.glob(out + "/containment_pairs/*.parquet")
    assert files
    tbl = pq.read_table(files)
    assert {"a", "b", "containment"} <= set(tbl.column_names)

    out2 = str(tmp_path / "kept")
    assert main(["containment", "--input", tiny_corpus, "--output", out2, "--keep"]) == 0
    res2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res2["kept_rows"] > 0

    out3 = str(tmp_path / "cross")
    assert main([
        "containment", "--input", tiny_corpus, "--output", out3,
        "--reference", tiny_corpus,
    ]) == 0
    res3 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # every doc contains its own content (identity, containment 1.0)
    assert res3["contaminated_rows"] > 0


def test_cli_textstats_partitioned_output(ray_session, tiny_corpus, tmp_path, capsys):
    import os

    from europa_ray.cli import main

    out = str(tmp_path / "ts")
    assert main(["textstats", "--input", tiny_corpus, "--output", out,
                 "--partition-by", "lang"]) == 0
    json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # hive layout: one directory per lang value
    dirs = sorted(os.listdir(out + "/textstats"))
    assert any(d.startswith("lang=") for d in dirs), dirs
    files = glob.glob(out + "/textstats/lang=*/*.parquet")
    assert files
    tbl = pq.read_table(out + "/textstats")
    assert "n_tokens" in tbl.column_names
