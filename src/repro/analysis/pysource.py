"""Python-source loading shared by the AST passes.

Wraps one parsed module per file: dotted module name (for allowlists),
repo-relative path (for diagnostics), the AST, and the per-line
inline-comment directives.  One scanner serves every pass:

* ``# simlint: disable=RULE[,RULE…]`` silences non-flow findings on
  that line (``all`` silences every non-FLOW rule);
* ``# flow: disable=RULE[,RULE…]`` silences flow-engine findings on
  that line (``all`` here scopes to FLOW rules only — the two tags
  never silence each other's families);
* ``# flow: charged`` declares that the annotated statement satisfies
  the FLOW002 charge-coverage obligation (used on intentionally
  charge-free paths: zero-length accesses, decline-and-fall-back
  returns, loops over by-construction non-empty collections).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import AnalysisError

_SUPPRESS_RE = re.compile(
    r"#\s*(simlint|flow):\s*disable=([A-Za-z0-9_,\s]+)")
_CHARGED_RE = re.compile(r"#\s*flow:\s*charged\b")


@dataclass
class Module:
    """One parsed source file, ready for an AST pass."""

    path: str                      # repo-relative POSIX path
    name: str                      # dotted module name, e.g. "repro.sgx.mee"
    tree: ast.Module
    suppressions: dict[int, frozenset[str]]  # line -> disabled rule IDs
    #: Lines carrying a ``# flow: charged`` declared-intent annotation.
    charged: frozenset = field(default_factory=frozenset)

    def suppressed(self, line: int, rule: str) -> bool:
        rules = self.suppressions.get(line, frozenset())
        if rule in rules:
            return True
        scope = "flow:all" if rule.startswith("FLOW") else "all"
        return scope in rules


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Per-line disabled rule IDs, for both the simlint and flow tags.

    A bare ``all`` under the ``flow:`` tag is stored as ``flow:all`` so
    it only matches FLOW-family rules (see :meth:`Module.suppressed`);
    the legacy ``simlint: disable=all`` keeps its unscoped spelling for
    every other family.
    """
    table: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        rules: set[str] = set()
        for match in _SUPPRESS_RE.finditer(text):
            tag = match.group(1)
            for rule in match.group(2).split(","):
                rule = rule.strip()
                if not rule:
                    continue
                if rule == "all" and tag == "flow":
                    rule = "flow:all"
                rules.add(rule)
        if rules:
            table[lineno] = frozenset(rules)
    return table


def parse_charged_lines(source: str) -> frozenset:
    """Lines annotated ``# flow: charged`` (FLOW002 declared intent)."""
    return frozenset(
        lineno for lineno, text in enumerate(source.splitlines(), start=1)
        if _CHARGED_RE.search(text))


def load_module(file: Path, root: Path) -> Module:
    """Parse one file.  ``root`` is the directory that *contains* the
    top-level package (i.e. ``src``), so dotted names come out as
    ``repro.sgx.mee``."""
    try:
        source = file.read_text()
        tree = ast.parse(source, filename=str(file))
    except (OSError, SyntaxError) as exc:
        raise AnalysisError(f"cannot parse {file}: {exc}") from exc
    rel = file.relative_to(root)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return Module(path=rel.as_posix(), name=".".join(parts), tree=tree,
                  suppressions=parse_suppressions(source),
                  charged=parse_charged_lines(source))


def iter_modules(package_dir: Path, root: Path) -> Iterator[Module]:
    """Yield every ``*.py`` module under ``package_dir`` (sorted)."""
    for file in sorted(package_dir.rglob("*.py")):
        yield load_module(file, root)
