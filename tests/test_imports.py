"""Import smoke test: every engine module imports, and the CLI offers exactly
its subcommands — a dangling import or a stale command fails here, at once,
instead of at first use. A dead-definition scan fails on any module-level
function or class of the engine that nothing names."""

from __future__ import annotations

import argparse
import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import europa_ray

REPO = Path(europa_ray.__file__).resolve().parent.parent

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


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a ``def``/``class`` name, or
    the plain names an assignment binds (``__all__``-style dunders aside)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_engine_definition_is_named_elsewhere():
    """Every module-level ``def``, ``class`` and assigned name in
    ``europa_ray/`` is named somewhere outside its own definition: in the
    engine, ``__ray_entry__.py``, ``perfbench/`` or ``tests/``. A definition
    nothing names is dead code."""
    word = re.compile(r"\w+")
    files = [REPO / "__ray_entry__.py"] + [
        p for d in ("europa_ray", "perfbench", "tests") for p in sorted((REPO / d).rglob("*.py"))
    ]
    texts = {p: p.read_text() for p in files}
    named = Counter(w for t in texts.values() for w in word.findall(t))
    dead = []
    for p, text in texts.items():
        if not p.is_relative_to(REPO / "europa_ray"):
            continue
        lines = text.splitlines()
        for node in ast.parse(text).body:
            own = word.findall("\n".join(lines[node.lineno - 1 : node.end_lineno]))
            for name in _defined_names(node):
                if named[name] == own.count(name):
                    dead.append(f"{p.relative_to(REPO)}:{node.lineno} {name}")
    assert not dead, dead


def _engine_calls(attr: str):
    """``(file, line, call)`` for each call of a ``.<attr>(...)`` method in
    ``europa_ray/``."""
    for p in sorted((REPO / "europa_ray").rglob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr
            ):
                yield p.relative_to(REPO).as_posix(), node.lineno, node


def test_engine_joins_datasets_only_through_hash_join():
    """``util.hash_join`` is the one ``Dataset.join`` call: a join made
    beside it would stall on a 1-CPU cluster. ``str.join`` and
    ``os.path.join`` take no ``join_type``."""
    sites = [
        f"{f}:{line}"
        for f, line, call in _engine_calls("join")
        if any(k.arg == "join_type" for k in call.keywords)
        or (
            len(call.args) > 1
            and not (isinstance(call.func.value, ast.Attribute) and call.func.value.attr == "path")
        )
    ]
    assert len(sites) == 1 and sites[0].startswith("europa_ray/util.py:"), sites


def test_engine_reads_parquet_only_through_read_files():
    """The engine reads Parquet through ``sources.files.read_files``, whose
    read runs no sampling tasks, not through ``ray.data.read_parquet``."""
    assert [f"{f}:{line}" for f, line, _ in _engine_calls("read_parquet")] == []
