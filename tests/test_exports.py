"""Every exported name resolves and is used by the library itself.

A deleted function cannot linger in ``__all__``, and no public name exists
only for the tests: each exported name, and each public function and class
a module defines, must be read somewhere in ``src/bfdr`` outside its own
definition. Imports, ``__all__`` lists and docstrings do not count as
uses.
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


# Public names that nothing in the package reads, each with the reason it stays.
_UNUSED_PUBLIC = {
    # The benchmark's tracer (perfbench/tracer.py) wraps it, and its self-test
    # fails when a traced name is missing; it goes with the next tracer edit.
    "studies.run_study_ii",
}


def _public_definitions() -> list[str]:
    """``module.name`` of every public function and class defined at the top level of a package module."""
    names = []
    for path in sorted(Path(bfdr.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            is_definition = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_definition and not node.name.startswith("_"):
                names.append(f"{path.stem}.{node.name}")
    return names


def test_every_public_definition_is_used_by_the_library():
    """A public function or class outside ``__all__`` cannot linger for the tests alone either."""
    unused = {name for name in _public_definitions() if not _USES.get(name.rsplit(".", 1)[1])}
    assert unused == _UNUSED_PUBLIC


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


def _perf_counter_uses() -> list[tuple[str, str | None]]:
    """(module, enclosing function) of every reference to ``perf_counter`` in the package."""
    uses = []

    def visit(node: ast.AST, module: str, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if isinstance(node, (ast.Attribute, ast.Name)) and name in ("perf_counter", "perf_counter_ns"):
            uses.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(Path(bfdr.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return uses


def test_stages_are_timed_only_where_they_run():
    """Every stage is timed by ``bfdr._trace``, the one clock of the package, and no result carries
    a time: a gene's scan holds its statistics only, a study no per-gene seconds. The command line
    reads the clock once more, for the run time on its closing summary line."""
    from dataclasses import fields

    from bfdr import cli, permutation, studies

    uses = _perf_counter_uses()
    assert ("_trace", None) in uses
    assert [u for u in uses if u[0] != "_trace"] == [("cli", "cmd_sim")] * 2
    assert permutation.GeneScan._fields == ("log_bf", "null_q", "pvalue")
    assert "gene_seconds" not in {f.name for f in fields(studies.StudyResult)}
    assert not hasattr(cli, "_timed")
