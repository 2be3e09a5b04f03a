"""Every name in a src/rissim annotation is bound in its module or is a builtin.

With `from __future__ import annotations` an unbound name costs nothing at
import, but typing.get_type_hints raises NameError on it. One test walks each
module's syntax tree, so it also reaches nested functions; the other imports
each module and resolves the hints of what it defines at module level.
"""
import ast
import builtins
import importlib
import inspect
import typing
from pathlib import Path

import pytest

import rissim

MODULES = sorted(Path(rissim.__file__).parent.glob("*.py"))


def _module_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's own statements, including those under if and try."""
    names = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            pending.extend(s for h in getattr(node, "handlers", []) for s in h.body)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_in(annotation: ast.expr):
    """The bare names an annotation reads, string annotations parsed as expressions."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for name, _ in _names_in(ast.parse(node.value, mode="eval").body):
                yield name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_annotation_names_are_bound(path):
    tree = ast.parse(path.read_text())
    bound = _module_names(tree) | set(dir(builtins))
    unbound = sorted(
        (line, name)
        for annotation in _annotations(tree)
        for name, line in _names_in(annotation)
        if name not in bound
    )
    assert unbound == [], f"{path.name}: annotation names not bound in the module"


def test_a_name_only_under_type_checking_counts_and_a_missing_one_does_not():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .planner import UpdateSchedule\n"
        "def f(a: UpdateSchedule, b: 'list[Missing]') -> np.ndarray: ...\n"
    )
    bound = _module_names(tree) | set(dir(builtins))
    names = [name for annotation in _annotations(tree) for name, _ in _names_in(annotation)]
    assert [n for n in names if n not in bound] == ["Missing", "np"]


def _defined_at_module_level(module):
    """The module's own functions and classes, and the classes' methods and properties."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                member = member.fget if isinstance(member, property) else member
                member = getattr(member, "__func__", member)  # staticmethod, classmethod
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_type_hints_resolve_at_run_time(path):
    module = importlib.import_module(f"rissim.{path.stem}")
    failed = []
    for obj in _defined_at_module_level(module):
        try:
            typing.get_type_hints(obj)
        except NameError as error:
            failed.append((obj.__qualname__, str(error)))
    assert failed == [], f"{path.name}: typing.get_type_hints fails"
