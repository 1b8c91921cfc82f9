"""Simulation-integrity lint: the SIM001–SIM006 and SIM008 ``ast`` rules.

The simulator's results are only meaningful if (a) every simulated
memory access goes through the validation automaton and (b) nothing in a
cost path reads host state (wall clock, unseeded RNG).  These rules make
both properties checkable per commit:

``SIM001``
    No direct DRAM/PRM access — ``*.phys.read/write/drop_frame(…)``,
    ``PhysicalMemory(…)``, or touching the backing ``._frames`` —
    outside the memory subsystem itself (:data:`DEFAULT_CONFIG`
    ``.sim001_allowed``: the Fig. 2/Fig. 6 validators, the MEE, the
    physical memory model, and the ISA/eviction microcode that the
    paper defines as running below the automaton).  Everyone else must
    take the validated core path.  Deliberate physical attackers
    (:mod:`repro.os.malicious`) carry per-line disables — grep for
    ``simlint: disable=SIM001`` to enumerate the attack surface.
``SIM002``
    No wall-clock reads (``time.time``, ``perf_counter``, ``monotonic``,
    argless ``datetime.now``, …) outside :mod:`repro.perf.wallclock`,
    the single sanctioned helper for operator-facing progress output.
``SIM003``
    No unseeded randomness: module-level ``random.*`` calls,
    ``random.Random()``/``np.random.default_rng()`` without a seed, and
    legacy ``np.random.<dist>`` calls are all flagged; construct a
    seeded ``Random(seed)`` / ``default_rng(seed)`` instead.
``SIM004``
    No bare or broad ``except`` (``except:``, ``except Exception``,
    ``except BaseException``) — they swallow simulator faults that the
    security story depends on surfacing.
``SIM005``
    No hard-coded latency constants (module- or class-level
    ``NAME_NS = <number>`` and friends) outside
    :mod:`repro.perf.costmodel`, so every calibrated number has one
    home and ablations can vary it.
``SIM006``
    Determinism guard for fault injection and fault *handling*: inside
    the modules listed in :data:`DEFAULT_CONFIG` ``.sim006_fault_modules``
    (``repro.faults`` and the SDK/OS recovery paths), **any** dotted
    ``time.*`` call (including ``time.sleep``, which SIM002 does not
    cover) and any ``random.*`` call other than a *seeded* generator
    constructor are flagged — a fault plan must replay byte-identically
    from its seed, so hot paths may not consult host time or shared RNG
    state.
``SIM008``
    No direct per-access validator calls (``*.validator.validate(…)``)
    outside the allowlisted translation leaves
    (:data:`DEFAULT_CONFIG` ``.sim008_allowed``, ``module:function``
    granularity — by default only ``repro.sgx.cpu:_translate``).  The
    core validates each page once, at its TLB fill, and serves later
    hits from the TLB; a fast path that re-runs the validator per
    access silently reverts that, and one that calls it from a *new*
    leaf sidesteps the TLB's flush discipline.

Tcs/Secs lifecycle-field mutation is FLOW004's business
(:mod:`repro.analysis.flow.lifecycle`), which follows it through helpers.

Any finding can be silenced on its line with ``# simlint:
disable=SIM00X`` (comma-separate several IDs; ``disable=all`` kills
them all) — suppressed findings are counted in the report.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding, Report
from repro.analysis.pysource import Module, iter_modules

RULES = ("SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006",
         "SIM008")

#: ``*.phys`` methods that move or destroy bytes (geometry queries such
#: as ``in_prm``/``in_epc``/``frame_exists`` are not accesses).
_PHYS_MUTATORS = frozenset({"read", "write", "drop_frame"})

#: Canonical dotted names of wall-clock reads.
_WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.utcnow", "datetime.date.today",
})
#: Flagged only when called with no arguments (a tz-aware ``now(tz)``
#: is still wall-clock, but the ISSUE-level contract is "argless").
_WALLCLOCK_ARGLESS = frozenset({"datetime.datetime.now"})

#: ``random.X`` / ``numpy.random.X`` attributes that *construct* a
#: generator and therefore may be called — with a seed argument.
_RNG_CTORS = frozenset({"Random", "SystemRandom", "Generator",
                        "default_rng", "RandomState"})

#: Effect kinds :func:`nondet_effect` classifies a call into.
WALLCLOCK = "wallclock"
SHARED_RNG = "shared-rng"
UNSEEDED_RNG = "unseeded-rng"
LEGACY_RNG = "legacy-rng"


def nondet_effect(name: str, node: ast.Call) -> str | None:
    """Classify a call of the resolved dotted ``name``: a host-clock
    read (:data:`WALLCLOCK`), a module-level ``random.X`` on the shared
    unseeded RNG (:data:`SHARED_RNG`), a generator constructed without
    a seed (:data:`UNSEEDED_RNG`), numpy's legacy global RNG
    (:data:`LEGACY_RNG`), or None for a deterministic call.  SIM002,
    SIM003 and FLOW003 all classify through here."""
    argless = not node.args and not node.keywords
    if name in _WALLCLOCK or (name in _WALLCLOCK_ARGLESS and argless):
        return WALLCLOCK
    parts = name.split(".")
    if parts[0] == "random":
        if parts[-1] not in _RNG_CTORS:
            return SHARED_RNG if len(parts) == 2 else None
        return UNSEEDED_RNG if argless else None
    if parts[:2] == ["numpy", "random"] and len(parts) >= 3:
        if parts[2] not in _RNG_CTORS:
            return LEGACY_RNG
        return UNSEEDED_RNG if argless else None
    return None


_LATENCY_NAME_RE = re.compile(
    r".*(_ns|_us|_ms|_cycles|_latency)$", re.IGNORECASE)


@dataclass(frozen=True)
class SimlintConfig:
    """Per-rule module allowlists (dotted module names)."""

    sim001_allowed: frozenset[str] = frozenset({
        "repro.sgx.access",     # Fig. 2 automaton
        "repro.core.access",    # Fig. 6 nested automaton
        "repro.sgx.mee",        # cacheline encryption engine
        "repro.sgx.memory",     # the physical memory model itself
        "repro.sgx.machine",    # CPU-side LLC+MEE accessors
        "repro.sgx.isa",        # microcode leaves (below the automaton)
        "repro.sgx.eviction",   # EWB/ELDB page movers
        # The core's inline TLB-hit serve moves bytes for translations
        # the automaton already validated; SIM008 polices that it never
        # *re-enters* the validator.
        "repro.sgx.cpu",
    })
    sim002_allowed: frozenset[str] = frozenset({
        "repro.perf.wallclock",  # the one sanctioned wall-clock helper
    })
    sim005_allowed: frozenset[str] = frozenset({
        "repro.perf.costmodel",
    })
    #: Module-name *prefixes* held to the stricter SIM006 determinism
    #: contract (fault injection itself plus every recovery path it
    #: exercises).
    sim006_fault_modules: tuple[str, ...] = (
        "repro.faults",
        "repro.host",
        "repro.sdk.runtime",
        "repro.sdk.secure_channel",
        "repro.os.ipc",
    )
    #: ``module:function`` pairs that may call ``*.validator.validate``
    #: directly (SIM008).  Exactly one leaf validates per-access; bulk
    #: fast paths must reuse its TLB fills.
    sim008_allowed: frozenset[str] = frozenset({
        "repro.sgx.cpu:_translate",
    })


DEFAULT_CONFIG = SimlintConfig()


class _ImportTable:
    """Maps local names to canonical dotted prefixes.

    ``import numpy as np``           → ``np → numpy``
    ``from time import perf_counter``→ ``perf_counter → time.perf_counter``
    ``from datetime import datetime``→ ``datetime → datetime.datetime``
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] \
                        = alias.name if alias.asname else \
                        alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted name of an expression, if it is one."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.aliases.get(node.id, node.id)
        return ".".join([head] + list(reversed(parts)))


class _SimlintVisitor(ast.NodeVisitor):
    def __init__(self, module: Module, config: SimlintConfig) -> None:
        self.module = module
        self.config = config
        self.imports = _ImportTable(module.tree)
        self.raw: list[Finding] = []
        self._depth = 0  # >0 while inside a function body
        self._func_stack: list[str] = []  # enclosing function names

    def _flag(self, node: ast.AST, rule: str, message: str,
              symbol: str = "") -> None:
        self.raw.append(Finding(path=self.module.path, line=node.lineno,
                                rule=rule, message=message, symbol=symbol))

    # -- SIM001 -------------------------------------------------------------
    def _check_phys(self, node: ast.Call) -> None:
        if self.module.name in self.config.sim001_allowed:
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _PHYS_MUTATORS \
                and isinstance(func.value, ast.Attribute) \
                and func.value.attr == "phys":
            self._flag(node, "SIM001",
                       f"direct physical-memory access '.phys.{func.attr}' "
                       "bypasses the validation automaton",
                       symbol=f"phys.{func.attr}")
        name = self.imports.resolve(func)
        if name is not None and name.split(".")[-1] == "PhysicalMemory":
            self._flag(node, "SIM001",
                       "constructing PhysicalMemory outside the memory "
                       "subsystem", symbol="PhysicalMemory")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "_frames" \
                and self.module.name not in self.config.sim001_allowed:
            self._flag(node, "SIM001",
                       "touching PhysicalMemory._frames bypasses the "
                       "validation automaton", symbol="_frames")
        self.generic_visit(node)

    # -- SIM008 -------------------------------------------------------------
    def _check_validator_call(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "validate"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "validator"):
            return
        where = self._func_stack[-1] if self._func_stack else "<module>"
        if f"{self.module.name}:{where}" in self.config.sim008_allowed:
            return
        self._flag(node, "SIM008",
                   "direct per-access '.validator.validate' call outside "
                   "the allowlisted translation leaves; bulk fast paths "
                   "must reuse the TLB's validated fills",
                   symbol=f"{where}:validator.validate")

    # -- SIM002 / SIM003 (call-shaped rules) --------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_phys(node)
        self._check_validator_call(node)
        name = self.imports.resolve(node.func)
        if name is not None:
            effect = nondet_effect(name, node)
            self._check_wallclock(node, name, effect)
            self._check_random(node, name, effect)
            self._check_fault_path(node, name)
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call, name: str,
                         effect: str | None) -> None:
        if effect == WALLCLOCK \
                and self.module.name not in self.config.sim002_allowed:
            self._flag(node, "SIM002",
                       f"wall-clock read '{name}' breaks determinism; go "
                       "through repro.perf.wallclock", symbol=name)

    def _check_random(self, node: ast.Call, name: str,
                      effect: str | None) -> None:
        if effect == SHARED_RNG:
            self._flag(node, "SIM003",
                       f"module-level '{name}()' uses the shared "
                       "unseeded RNG; construct random.Random(seed)",
                       symbol=name)
        elif effect == UNSEEDED_RNG:
            self._flag(node, "SIM003",
                       f"'{name}()' without a seed is nondeterministic",
                       symbol=name)
        elif effect == LEGACY_RNG:
            self._flag(node, "SIM003",
                       f"legacy 'np.random.{name.split('.')[2]}()' uses "
                       "the global unseeded RNG; use "
                       "np.random.default_rng(seed)", symbol=name)
    # -- SIM006 -------------------------------------------------------------
    def _check_fault_path(self, node: ast.Call, name: str) -> None:
        module = self.module.name
        if not any(module == prefix or module.startswith(prefix + ".")
                   for prefix in self.config.sim006_fault_modules):
            return
        parts = name.split(".")
        if parts[0] == "time" and len(parts) > 1:
            self._flag(node, "SIM006",
                       f"'{name}' on a fault-injection/recovery path: "
                       "fault plans must replay from their seed alone; "
                       "use simulated-time backoff (cost.charge)",
                       symbol=name)
        elif parts[0] == "random" and len(parts) > 1:
            seeded_ctor = (parts[-1] in _RNG_CTORS
                           and bool(node.args or node.keywords))
            if not seeded_ctor:
                self._flag(node, "SIM006",
                           f"'{name}' on a fault-injection/recovery path: "
                           "only seeded generator constructors (e.g. "
                           "random.Random(seed)) are allowed here",
                           symbol=name)

    # -- SIM004 -------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = []
        if node.type is None:
            broad.append("bare except")
        else:
            types = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            for t in types:
                resolved = self.imports.resolve(t) or ""
                if resolved.split(".")[-1] in ("Exception", "BaseException"):
                    broad.append(f"except {resolved}")
        for what in broad:
            self._flag(node, "SIM004",
                       f"{what} swallows simulator faults; catch the "
                       "specific repro error type", symbol=what)
        self.generic_visit(node)

    # -- SIM005 -------------------------------------------------------------
    def _check_latency_assign(self, targets: list[ast.expr],
                              value: ast.expr | None) -> None:
        if value is None or self.module.name in self.config.sim005_allowed:
            return
        if isinstance(value, ast.UnaryOp) \
                and isinstance(value.op, ast.USub):
            value = value.operand
        if not (isinstance(value, ast.Constant)
                and isinstance(value.value, (int, float))
                and not isinstance(value.value, bool)):
            return
        for target in targets:
            if isinstance(target, ast.Name) \
                    and _LATENCY_NAME_RE.match(target.id):
                self._flag(target, "SIM005",
                           f"hard-coded latency constant '{target.id}'; "
                           "calibrated numbers live in repro.perf.costmodel",
                           symbol=target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._depth == 0:
            self._check_latency_assign(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._depth == 0:
            self._check_latency_assign([node.target], node.value)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._depth += 1
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()
        self._depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef


@dataclass
class _ModuleResult:
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0


def lint_module(module: Module,
                config: SimlintConfig = DEFAULT_CONFIG) -> _ModuleResult:
    visitor = _SimlintVisitor(module, config)
    visitor.visit(module.tree)
    result = _ModuleResult()
    for finding in visitor.raw:
        if module.suppressed(finding.line, finding.rule):
            result.suppressed += 1
        else:
            result.findings.append(finding)
    return result


def lint_tree(package_dir: Path, root: Path,
              config: SimlintConfig = DEFAULT_CONFIG) -> Report:
    """Lint every module under ``package_dir`` (dotted names relative to
    ``root``, which must contain the top-level package)."""
    report = Report(passes=["simlint"])
    for module in iter_modules(package_dir, root):
        result = lint_module(module, config)
        report.findings.extend(result.findings)
        report.suppressed += result.suppressed
    report.findings.sort()
    return report
