"""Pass orchestration: locate the repo, run the selected passes, merge.

Kept separate from :mod:`repro.analysis.cli` so tests and the tier-1
gate can call :func:`run_repo_analysis` in-process without arg parsing.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import edl_lint, simlint
from repro.analysis.findings import AnalysisError, Report

#: CLI pass names → runner (the default set; heavier opt-in checks such
#: as ``modelcheck`` are selected explicitly by name).
PASSES = ("edl", "sim")

#: Opt-in checks accepted alongside PASSES.
EXTRA_CHECKS = ("modelcheck", "orderliness", "flow")


def repo_root() -> Path:
    """The directory containing ``src/`` (three levels above us)."""
    return Path(__file__).resolve().parents[3]


def run_repo_analysis(root: Path | None = None,
                      passes: tuple[str, ...] = PASSES,
                      modelcheck_scope: str = "default") -> Report:
    """Run the selected passes over the repo rooted at ``root``."""
    root = Path(root) if root is not None else repo_root()
    src = root / "src"
    package = src / "repro"
    ports = package / "apps" / "ports"
    if not package.is_dir():
        raise AnalysisError(f"{root} does not contain src/repro")
    report = Report()
    for name in passes:
        if name == "edl":
            report.extend(edl_lint.lint_ports(ports, src))
        elif name == "sim":
            report.extend(simlint.lint_tree(package, src))
        elif name == "modelcheck":
            report.extend(_run_modelcheck_pass(modelcheck_scope))
        elif name == "orderliness":
            report.extend(_run_orderliness_pass())
        elif name == "flow":
            report.extend(_run_flow_pass(root))
        else:
            raise AnalysisError(
                f"unknown pass {name!r}; choose from "
                f"{', '.join(PASSES + EXTRA_CHECKS)}")
    report.dedupe()
    return report


def _run_modelcheck_pass(scope: str) -> Report:
    # Imported lazily: the checker pulls in the whole machine model,
    # which the default lint-only passes must not pay for.
    from repro.analysis import modelcheck

    if scope not in modelcheck.SCOPES:
        raise AnalysisError(
            f"unknown scope {scope!r}; choose from "
            f"{', '.join(sorted(modelcheck.SCOPES))}")
    result = modelcheck.run_modelcheck(scope)
    return Report(findings=list(result.findings), passes=["modelcheck"])


def _run_orderliness_pass() -> Report:
    # Lazy for the same reason as modelcheck: the pass replays the
    # fingerprint workloads, which build full machines.
    from repro.analysis import orderliness

    return orderliness.run_orderliness()


def _run_flow_pass(root: Path) -> Report:
    # Lazy: the flow engine parses and summarizes the whole tree to
    # fixpoint — opt-in like the other heavy checks.
    from repro.analysis import flow

    return flow.run_flow(root).report
