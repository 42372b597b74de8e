"""Import smoke test: every engine module imports, and the CLI offers exactly
its subcommands — a dangling import or a stale command fails here, at once,
instead of at first use."""

from __future__ import annotations

import argparse
import importlib
import pkgutil

import europa_ray

CLI_SUBCOMMANDS = {
    "neardup", "exact", "textstats", "sample", "decontam", "forks",
    "crossdup", "semdedup", "report", "tiers", "clones", "containment",
}


def test_every_module_imports_and_cli_subcommands():
    names = [m.name for m in pkgutil.walk_packages(europa_ray.__path__, "europa_ray.")]
    assert "europa_ray.cli" in names and "europa_ray.stages.lsh" in names
    failed = {}
    for name in names:
        try:
            importlib.import_module(name)
        except Exception as exc:  # report every broken module, not the first
            failed[name] = repr(exc)
    assert not failed, failed

    from europa_ray.cli import build_parser

    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(sub.choices) == CLI_SUBCOMMANDS
