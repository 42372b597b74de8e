"""Shared fixtures: ONE Ray session per pytest run (session-scoped)."""

from __future__ import annotations

import os
import warnings

import pytest

os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(256 * 1024 * 1024))
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(256 * 1024 * 1024))

warnings.filterwarnings("ignore")

SF_SMALL = "/root/testdata/sf0.01"
SF_TINY = "/root/testdata/sf0.001"


def collect(ds):
    """All non-empty blocks of a Dataset in block order, as one Arrow table
    (row order kept, unlike ``to_pandas`` comparisons on sorted keys)."""
    import pyarrow as pa
    import ray

    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Deterministic planted-truth files corpus (FIXTURES.md §1), tiny scale."""
    from europa_ray.corpus import generate_corpus, write_corpus

    out = tmp_path_factory.mktemp("corpus") / "tiny"
    return write_corpus(str(out), generate_corpus(n_rows=1000, seed=42))
