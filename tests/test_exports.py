"""Every exported name resolves and is used by the library itself.

A deleted function cannot linger in ``__all__``, and no public name exists
only for the tests: each one must be read somewhere in ``src/bfdr``
outside its own definition. Imports, ``__all__`` lists and docstrings do
not count as uses.
"""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bfdr

_MODULES = ["bfdr"] + [f"bfdr.{info.name}" for info in pkgutil.iter_modules(bfdr.__path__)]


def _uses_outside_own_definition() -> dict[str, int]:
    """How often each name is read in the package, not counting reads inside a definition of that name."""
    uses: dict[str, int] = {}

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        read = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read = node.attr
        if read is not None and read not in inside:
            uses[read] = uses.get(read, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in Path(bfdr.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), frozenset())
    return uses


_USES = _uses_outside_own_definition()


@pytest.mark.parametrize("module_name", _MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{module_name} declares no __all__"
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", _MODULES)
def test_every_name_in_all_is_used_by_the_library(module_name):
    exported = importlib.import_module(module_name).__all__
    assert [name for name in exported if not _USES.get(name)] == []


def test_sim_study_settings_have_no_parser_default():
    """The sim config types are the only home of the study defaults.

    A ``bfdr sim`` flag that names a ``SimIIConfig`` field keeps ``None``
    as its parser default, so an absent flag leaves the field at the
    config's default; ``--pi0`` and ``--seed`` are per-replicate values
    that the command sets itself.
    """
    from dataclasses import fields

    from bfdr.cli import build_parser
    from bfdr.simulation import SimIIConfig

    (subcommands,) = [a for a in build_parser()._actions if a.dest == "command"]
    settings = {f.name for f in fields(SimIIConfig)} - {"pi0", "seed"}
    flags = {a.dest: a.default for a in subcommands.choices["sim"]._actions if a.dest in settings}
    assert set(flags) == settings
    assert {name: default for name, default in flags.items() if default is not None} == {}


def _perf_counter_calls() -> list[tuple[str, str | None]]:
    """(module, enclosing function) of every ``perf_counter`` call in the package."""
    calls = []

    def visit(node: ast.AST, module: str, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("perf_counter", "perf_counter_ns"):
                calls.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(Path(bfdr.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return calls


def test_stages_are_timed_only_where_they_run():
    """Each stage is timed once, where it runs: the command line times the
    stages it calls, ``permutation.scan_gene`` times each gene's stages,
    and a simulated study II's workers time the stages that run before
    the scan: the permutation draws (``studies._draw_gene``) and the
    generation of a block of genes (``studies._scan_new_genes``). No other
    code keeps a clock, so no stage is counted again in a sum of stages."""
    per_gene = {("permutation", "scan_gene"), ("studies", "_draw_gene"), ("studies", "_scan_new_genes")}
    calls = _perf_counter_calls()
    assert per_gene <= set(calls)
    assert [c for c in calls if c[0] != "cli" and c not in per_gene] == []
