"""Repo gate: ruff (pyflakes + import hygiene) must be clean.

ruff is not always installed, so that gate skips gracefully when the
binary is absent — but any environment that *does* have ruff (a
developer laptop, CI with the test extra) enforces the ``[tool.ruff]``
config in pyproject.toml.  The unused-import check below needs only the
standard library, so it runs everywhere.
"""

import ast
import re
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("ruff") is None,
                    reason="ruff is not installed in this environment")
def test_ruff_is_clean():
    result = subprocess.run(
        ["ruff", "check", "src", "tests"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, (
        f"ruff findings:\n{result.stdout}\n{result.stderr}")


def _imported_names(tree: ast.Module):
    """``(line, bound name)`` for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def test_no_unused_imports():
    """Every imported name occurs as a whole word at least once more in
    its file (string annotations and ``__all__`` count as uses).
    Package ``__init__`` modules are exempt: they import to re-export."""
    unused = []
    for top in ("src", "tests"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            text = path.read_text()
            for line, name in _imported_names(ast.parse(text)):
                uses = re.findall(rf"\b{re.escape(name)}\b", text)
                if len(uses) < 2:
                    unused.append(
                        f"{path.relative_to(REPO_ROOT)}:{line}: {name}")
    assert unused == []
