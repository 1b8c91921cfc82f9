"""Repo gate: no generated build output is tracked in git.

``pip install -e .`` writes ``src/repro.egg-info/`` and every import
writes ``__pycache__/``; both go stale the moment a module is added or
removed, so neither belongs in the tree (``.gitignore`` lists them).
Skips when git or the ``.git`` directory is absent (an exported tree).
"""

import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("git") is None
                    or not (REPO_ROOT / ".git").exists(),
                    reason="not a git checkout")
def test_no_build_output_is_tracked():
    result = subprocess.run(
        ["git", "ls-files"], cwd=REPO_ROOT, capture_output=True,
        text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    generated = [path for path in result.stdout.splitlines()
                 if any(part.endswith(".egg-info") or part == "__pycache__"
                        for part in Path(path).parts[:-1])]
    assert generated == []
