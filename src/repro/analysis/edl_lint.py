"""EDL interface linter: rules EDL001–EDL004 over the ports' EDL sources.

The ports embed their EDL text as module-level ``*_EDL`` string
constants (the analogue of the ``.edl`` files an SDK build would ship).
This pass parses each one with the real parser, maps every declaration's
source span back to the embedding Python file, and checks the interface
*shape* — properties the runtime cannot express because each check spans
sections or spans the EDL/Python boundary:

``EDL001``
    The same function name declared in two sections of one spec.  The
    runtime resolves some calls by searching several sections (n_ocall
    falls back from ``trusted`` to ``nested_trusted``), so a duplicate
    silently binds to whichever section wins.
``EDL002``
    A nested section declaration shadowing its plain counterpart
    (``nested_trusted`` vs ``trusted``, ``nested_untrusted`` vs
    ``untrusted``) — the special case of EDL001 where an n_ecall/n_ocall
    and a plain ecall/ocall compete for one name across the two
    boundary levels.
``EDL003``
    A ``bytes`` parameter named like key material (``key``, ``secret``,
    ``priv*``, ``psk``, ``password``, ``token``) declared in an
    untrusted-side section: the interface itself advertises that a
    secret crosses out of the enclave.
``EDL004``
    Dead interface surface: a declared function that no runtime in the
    module ever binds (``add_entry``/``register_untrusted``) or calls —
    unreachable declarations widen the reviewed boundary for nothing.

Use :func:`lint_spec` for a parsed :class:`~repro.sdk.edl.EdlSpec` alone
(rules EDL001–EDL003) and :func:`lint_ports` to sweep every port module
including the binding-aware EDL004.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding, Report
from repro.errors import EdlSyntaxError
from repro.sdk.edl import EdlSpec, parse_edl

RULES = ("EDL001", "EDL002", "EDL003", "EDL004")

_SECRET_NAME_RE = re.compile(
    r"(^|_)(key|keys|secret|secrets|psk|password|token|priv\w*)($|_)",
    re.IGNORECASE)

#: (nested section, plain counterpart) pairs for EDL002.
_SHADOW_PAIRS = (("nested_trusted", "trusted"),
                 ("nested_untrusted", "untrusted"))

#: Sections whose parameters leave the enclave boundary (EDL003).
_UNTRUSTED_SECTIONS = ("untrusted", "nested_untrusted")


def lint_spec(spec: EdlSpec, path: str = "<edl>",
              line_offset: int = 0) -> list[Finding]:
    """Rules EDL001–EDL003 on one parsed spec.

    ``line_offset`` shifts the EDL-internal line numbers to absolute
    lines of the embedding file (pass the line of the string literal's
    opening quotes).
    """
    findings: list[Finding] = []

    def flag(rule: str, func, message: str) -> None:
        findings.append(Finding(path=path, line=line_offset + func.line,
                                rule=rule, message=message,
                                symbol=f"{spec.name}.{func.name}"))

    shadow = {(nested, plain) for nested, plain in _SHADOW_PAIRS}
    seen: dict[str, str] = {}  # function name -> first section
    for section, functions in spec.sections():
        for func in functions.values():
            first = seen.setdefault(func.name, section)
            if first != section:
                if (section, first) in shadow or (first, section) in shadow:
                    nested = section if section.startswith("nested") \
                        else first
                    plain = first if nested == section else section
                    flag("EDL002", func,
                         f"'{func.name}' in {nested!r} shadows the plain "
                         f"declaration in {plain!r}")
                else:
                    flag("EDL001", func,
                         f"'{func.name}' declared in both {first!r} and "
                         f"{section!r}")

    for section in _UNTRUSTED_SECTIONS:
        for func in spec.section(section).values():
            for ptype, pname in func.params:
                if ptype == "bytes" and _SECRET_NAME_RE.search(pname):
                    flag("EDL003", func,
                         f"bytes parameter {pname!r} of '{func.name}' in "
                         f"the {section!r} section is named like key "
                         "material crossing an untrusted boundary")
    return findings


# ---------------------------------------------------------------------------
# Module sweep: discover embedded EDL constants and runtime bindings
# ---------------------------------------------------------------------------

@dataclass
class _PortModule:
    path: str
    specs: list[tuple[str, EdlSpec, int]] = field(default_factory=list)
    parse_errors: list[Finding] = field(default_factory=list)
    bound_entries: set[str] = field(default_factory=set)     # add_entry
    bound_untrusted: set[str] = field(default_factory=set)   # register_…
    called: set[str] = field(default_factory=set)            # *call("name")


def scan_edl_constants(tree: ast.Module, path: str):
    """Discover embedded ``*_EDL`` string constants in a parsed module.

    Returns ``(specs, parse_errors)`` where each spec entry is
    ``(const_name, EdlSpec, line_offset)`` — the offset maps EDL-internal
    line 1 to the line after the literal's opening quotes (the house
    style starts the string with a newline).
    """
    specs: list[tuple[str, EdlSpec, int]] = []
    parse_errors: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id.endswith("_EDL") \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            const_name = node.targets[0].id
            try:
                spec = parse_edl(node.value.value, name=const_name)
            except EdlSyntaxError as exc:
                parse_errors.append(Finding(
                    path=path, line=node.lineno, rule="EDL000",
                    message=f"{const_name} does not parse: {exc}",
                    symbol=const_name))
                continue
            specs.append((const_name, spec, node.value.lineno - 1))
    return specs, parse_errors


def _scan_port_module(file: Path, rel_path: str) -> _PortModule:
    tree = ast.parse(file.read_text(), filename=str(file))
    info = _PortModule(path=rel_path)
    info.specs, info.parse_errors = scan_edl_constants(tree, rel_path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            first = node.args[0] if node.args else None
            is_name = isinstance(first, ast.Constant) \
                and isinstance(first.value, str)
            if attr == "add_entry" and is_name:
                info.bound_entries.add(first.value)
            elif attr == "register_untrusted" and is_name:
                info.bound_untrusted.add(first.value)
            elif attr in ("ecall", "n_ecall", "ocall", "n_ocall"):
                for arg in node.args:
                    if isinstance(arg, ast.Constant) \
                            and isinstance(arg.value, str):
                        info.called.add(arg.value)
                        break
    return info


def _lint_dead_surface(info: _PortModule) -> list[Finding]:
    """EDL004: declarations never bound or called by the module."""
    findings: list[Finding] = []
    exported: set[str] = set()  # names some spec makes callable
    for _, spec, _ in info.specs:
        exported |= set(spec.trusted) | set(spec.nested_trusted)
    for const_name, spec, offset in info.specs:
        for section, functions in spec.sections():
            for func in functions.values():
                if section in ("trusted", "nested_trusted"):
                    live = func.name in info.bound_entries
                    need = "bound by add_entry"
                elif section == "untrusted":
                    live = func.name in info.bound_untrusted
                    need = "bound by register_untrusted"
                else:  # nested_untrusted: consumed via n_ocall fallthrough
                    live = func.name in info.called \
                        or func.name in exported
                    need = "called or exported by a sibling spec"
                if not live:
                    findings.append(Finding(
                        path=info.path, line=offset + func.line,
                        rule="EDL004",
                        message=f"'{func.name}' declared in {const_name} "
                                f"section {section!r} is never {need} in "
                                "this module (dead interface surface)",
                        symbol=f"{const_name}.{func.name}"))
    return findings


def lint_ports(ports_dir: Path, root: Path) -> Report:
    """Run every EDL rule over each module in ``repro.apps.ports``."""
    report = Report(passes=["edl_lint"])
    for file in sorted(ports_dir.glob("*.py")):
        rel = file.relative_to(root).as_posix()
        info = _scan_port_module(file, rel)
        report.findings.extend(info.parse_errors)
        for const_name, spec, offset in info.specs:
            report.findings.extend(lint_spec(spec, path=rel,
                                             line_offset=offset))
        report.findings.extend(_lint_dead_surface(info))
    report.findings.sort()
    return report
