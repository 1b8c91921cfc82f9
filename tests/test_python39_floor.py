"""The CI tier-1 matrix runs Python 3.9 (see ``test_ci_workflows``), so
no file under ``src/``, ``bench/`` or ``tests/`` may need a newer
interpreter just to be imported.  Three checks cover what has broken it:
3.10+ syntax, 3.10+ ``dataclass`` options, and ``X | Y`` annotations
that 3.9 evaluates at definition time."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "bench", "tests")
               for path in (REPO_ROOT / top).rglob("*.py"))
#: ``dataclass`` keywords added in Python 3.10 or later.
NEWER_DATACLASS_OPTIONS = {"slots", "kw_only", "match_args", "weakref_slot"}


def _relative(path: Path) -> str:
    return str(path.relative_to(REPO_ROOT))


@pytest.fixture(scope="module")
def trees() -> dict:
    """Each file's 3.9 parse, or the SyntaxError it raised."""
    parsed = {}
    for path in FILES:
        try:
            parsed[path] = ast.parse(path.read_text(encoding="utf-8"),
                                     str(path), feature_version=(3, 9))
        except SyntaxError as exc:
            parsed[path] = exc
    return parsed


def test_every_file_parses_as_python_39(trees):
    assert len(trees) > 100
    assert [f"{_relative(path)}: {tree}" for path, tree in trees.items()
            if isinstance(tree, SyntaxError)] == []


def test_no_newer_dataclass_options(trees):
    found = []
    for path, tree in trees.items():
        if isinstance(tree, SyntaxError):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None)) \
                    == "dataclass":
                found += [f"{_relative(path)}:{node.lineno} {kw.arg}="
                          for kw in node.keywords
                          if kw.arg in NEWER_DATACLASS_OPTIONS]
    assert found == []


def _evaluated_annotations(tree: ast.Module):
    """Annotations 3.9 evaluates when the def or class runs: signatures,
    and module- or class-level variable annotations."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    yield stmt.annotation


def test_union_annotations_are_postponed(trees):
    """``int | None`` in an evaluated annotation is a TypeError on 3.9
    unless the module has ``from __future__ import annotations``."""
    found = []
    for path, tree in trees.items():
        if isinstance(tree, SyntaxError) or any(isinstance(stmt, ast.ImportFrom)
               and stmt.module == "__future__"
               and any(alias.name == "annotations" for alias in stmt.names)
               for stmt in tree.body):
            continue
        found += [f"{_relative(path)}:{annotation.lineno}"
                  for annotation in _evaluated_annotations(tree)
                  if any(isinstance(node, ast.BinOp)
                         and isinstance(node.op, ast.BitOr)
                         for node in ast.walk(annotation))]
    assert found == []
