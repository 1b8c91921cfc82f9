"""Shared finding/report plumbing for every analysis pass.

A :class:`Finding` is one diagnostic anchored to a file and line; a
:class:`Report` is the merged output of a run — it renders as text or
JSON and diffs itself against a *baseline* of grandfathered finding
fingerprints so the CLI can fail only on regressions.

Fingerprints deliberately exclude the line number: a baseline must
survive unrelated edits shifting code up or down, so identity is
``rule : path : symbol : message``.

:func:`minimize` is the one witness shrinker every pass that reports a
counterexample (event log, fuzz schedule, model-checker trace) uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError


class AnalysisError(ReproError):
    """A pass could not run (unreadable file, bad baseline, bad config)."""


def minimize(items, still_fails) -> list:
    """Shrink ``items`` by greedy single deletion, to a fixpoint.

    Each pass tries dropping one item at a time and keeps a removal iff
    ``still_fails`` holds for the shorter list; passes repeat until one
    changes nothing, so the result is 1-minimal: removing any single
    remaining item makes ``still_fails`` false.  Deterministic for a
    given input, which lets tests pin witnesses.  The caller decides
    what to do when ``items`` itself does not fail.
    """
    kept = list(items)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(kept):
            candidate = kept[:i] + kept[i + 1:]
            if still_fails(candidate):
                kept = candidate
                changed = True
            else:
                i += 1
    return kept


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: ``RULE path:line message``."""

    path: str          # repo-relative, POSIX separators
    line: int          # 1-based; 0 when the finding is file-level
    rule: str          # e.g. "SIM002", "EDL004", "FLOW001"
    message: str
    symbol: str = ""   # function/interface name, for stable fingerprints

    @property
    def fingerprint(self) -> str:
        return f"{self.rule}:{self.path}:{self.symbol}:{self.message}"

    def render(self) -> str:
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "message": self.message, "symbol": self.symbol,
                "fingerprint": self.fingerprint}


@dataclass
class Report:
    """Findings from one run of one or more passes."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0         # findings silenced by inline disables
    passes: list[str] = field(default_factory=list)

    def extend(self, other: "Report") -> None:
        self.findings.extend(other.findings)
        self.suppressed += other.suppressed
        self.passes.extend(p for p in other.passes if p not in self.passes)

    @staticmethod
    def order_key(finding: Finding) -> tuple:
        """Canonical report order: rule family first, then location.

        Grouping by rule keeps all findings of one family adjacent in
        text/JSON/SARIF output regardless of which pass emitted them or
        in what order passes ran — never dict/insertion order, so
        baselines and CI logs are byte-stable across runs.
        """
        return (finding.rule, finding.path, finding.line,
                finding.message, finding.symbol)

    def dedupe(self) -> None:
        """Collapse identical findings from overlapping passes and fix
        the canonical (rule, path, line, message, symbol) order."""
        self.findings[:] = sorted(set(self.findings), key=self.order_key)

    def new_findings(self, baseline: frozenset[str]) -> list[Finding]:
        return sorted((f for f in self.findings
                       if f.fingerprint not in baseline),
                      key=self.order_key)

    def render_text(self, baseline: frozenset[str] = frozenset()) -> str:
        new = self.new_findings(baseline)
        grandfathered = len(self.findings) - len(new)
        lines = [f.render() for f in new]
        summary = (f"{len(new)} finding(s)"
                   f" [{', '.join(self.passes) or 'no passes'}]")
        if grandfathered:
            summary += f", {grandfathered} grandfathered by baseline"
        if self.suppressed:
            summary += f", {self.suppressed} suppressed inline"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self, baseline: frozenset[str] = frozenset()) -> str:
        new = self.new_findings(baseline)
        return json.dumps({
            "passes": self.passes,
            "findings": [f.to_dict()
                         for f in sorted(self.findings, key=self.order_key)],
            "new": [f.fingerprint for f in new],
            "suppressed": self.suppressed,
            "ok": not new,
        }, indent=2)


def load_baseline(path: str | Path | None) -> frozenset[str]:
    """Read a baseline file: a JSON object ``{"findings": [fingerprint…]}``.

    A missing path (``None``) means an empty baseline; a named file that
    does not exist is an error — a silently-empty gate is worse than a
    loud one.
    """
    if path is None:
        return frozenset()
    path = Path(path)
    if not path.exists():
        raise AnalysisError(f"baseline file {path} does not exist")
    try:
        data = json.loads(path.read_text())
        entries = data["findings"]
        if not all(isinstance(e, str) for e in entries):
            raise TypeError("non-string fingerprint")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # OSError: unreadable / is-a-directory; ValueError covers both
        # JSONDecodeError and UnicodeDecodeError (binary garbage).  All
        # become AnalysisError so the CLI exits 2, never a traceback.
        raise AnalysisError(f"malformed baseline file {path}: {exc}") from exc
    return frozenset(entries)


def write_baseline(path: str | Path, report: Report) -> None:
    payload = {"findings": sorted(f.fingerprint for f in report.findings)}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
