"""Python-source loading shared by the AST passes.

Wraps one parsed module per file: dotted module name (for allowlists),
repo-relative path (for diagnostics), the AST, and the per-line
comment directives.  One reader serves every pass, and it reads only
comment tokens, so a string that quotes a directive is data:

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
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import AnalysisError

_DIRECTIVE_RE = re.compile(
    r"#\s*(?:(?P<tag>simlint|flow):\s*disable=(?P<rules>[A-Za-z0-9_,\s]+)"
    r"|flow:\s*(?P<charged>charged)\b)")


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


def parse_directives(source: str) -> tuple:
    """``(suppressions, charged)``: each line's disabled rule IDs under
    either tag (a ``flow:`` ``all`` is stored as ``flow:all``, see
    :meth:`Module.suppressed`) and the ``# flow: charged`` lines, read
    from comment tokens only — a string quoting a directive is data."""
    suppressions: dict[int, frozenset[str]] = {}
    charged: set[int] = set()
    if not _DIRECTIVE_RE.search(source):
        return suppressions, frozenset()
    try:
        comments = [(token.start[0], token.string) for token in
                    tokenize.generate_tokens(io.StringIO(source).readline)
                    if token.type == tokenize.COMMENT]
    except (tokenize.TokenError, SyntaxError) as exc:
        raise AnalysisError(f"cannot tokenize: {exc}") from exc
    for line, comment in comments:
        for match in _DIRECTIVE_RE.finditer(comment):
            if match["charged"]:
                charged.add(line)
                continue
            rules = {rule.strip() for rule in match["rules"].split(",")} - {""}
            if match["tag"] == "flow" and "all" in rules:
                rules = rules - {"all"} | {"flow:all"}
            suppressions[line] = suppressions.get(line, frozenset()) | rules
    return suppressions, frozenset(charged)


def load_module(file: Path, root: Path) -> Module:
    """Parse one file.  ``root`` is the directory that *contains* the
    top-level package (i.e. ``src``), so dotted names come out as
    ``repro.sgx.mee``."""
    try:
        source = file.read_text()
        tree = ast.parse(source, filename=str(file))
        suppressions, charged = parse_directives(source)
    except (OSError, SyntaxError, AnalysisError) as exc:
        raise AnalysisError(f"cannot parse {file}: {exc}") from exc
    rel = file.relative_to(root)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return Module(path=rel.as_posix(), name=".".join(parts), tree=tree,
                  suppressions=suppressions, charged=charged)


def iter_modules(package_dir: Path, root: Path) -> Iterator[Module]:
    """Yield every ``*.py`` module under ``package_dir`` (sorted)."""
    for file in sorted(package_dir.rglob("*.py")):
        yield load_module(file, root)
