"""Flow engine: call-graph pins, repo cleanliness, the secret-flow and
lifecycle fixture tables, suppression directives, the mutation
kill-list, and CLI integration."""

import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.findings import AnalysisError
from repro.analysis.flow import (DEFAULT_CONFIG, MUTATIONS, FlowConfig,
                                 run_flow, run_flow_mutations)
from repro.analysis.flow.charges import check_charge_coverage
from repro.analysis.flow.determinism import check_determinism_reachability
from repro.analysis.flow.graph import build_graph
from repro.analysis.flow.lifecycle import check_lifecycle_escape
from repro.analysis.flow.secret import check_secret_flow
from repro.analysis.pysource import load_module
from repro.analysis.runner import repo_root


@pytest.fixture(scope="module")
def repo_result():
    """One analysis of the real tree, shared by the read-only tests."""
    return run_flow(repo_root())


def _graph_of(tmp_path, source, name="mod", extra=None):
    """Call graph over ``name`` (a slash path under ``tmp_path``) plus
    any ``extra`` ``{name: source}`` modules."""
    modules = []
    for mod_name, text in [(name, source)] + sorted((extra or {}).items()):
        file = tmp_path / f"{mod_name}.py"
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(text))
        modules.append(load_module(file, tmp_path))
    return build_graph(modules)


def _verdict(findings):
    return [(f.rule, f.line, f.symbol) for f in findings]


class TestCallGraph:
    def test_pinned_stats(self, repo_result):
        """Drift tripwire: adding/removing functions or changing the
        resolver shows up here first.  Update deliberately."""
        # Last re-pin, by what moved (the record-only MEE writeback):
        # - functions +8: Mee.writeback, Mee.stale_plaintext,
        #   Mee._ciphertext, Mee.settle, mee._line_mask,
        #   PhysicalMemory.watch, PhysicalMemory._observe, Machine._fill
        #   and Machine.encrypt_prm_bytes (+9); Mee.encrypt_lines (-1).
        # - call_edges +13: the six raw accessors (read, write, digest,
        #   zero_page, drop_frame, frame_exists) -> _observe, and
        #   _observe -> _frame; Mee.root_mac and Mee.settle ->
        #   _ciphertext; Mee.writeback and Mee.stale_plaintext ->
        #   _line_mask; Machine._read_prm_plaintext and
        #   _write_prm_plaintext -> Machine._fill.
        # - weak_edges +0, matched by method name (19 out, 19 in): the
        #   PRM helpers' 12 (.read, .write, decrypt_lines,
        #   encrypt_lines) and encrypt_lines' 7 go; Machine._fill's 5,
        #   _write_prm_plaintext -> Mee.writeback, Mee._ciphertext's 6
        #   (.from_bytes, .to_bytes, .copy, .digest), the .get of
        #   Mee.writeback and Mee.stale_plaintext (2 each), Mee.settle's
        #   .pop, FaultEngine.attach -> Machine.encrypt_prm_bytes and
        #   Machine.__init__ -> PhysicalMemory.watch come.
        # - secret_summaries +3: Machine._fill, Mee._ciphertext,
        #   Mee.stale_plaintext and _line_mask return their parameters'
        #   taint (+4); Mee.encrypt_lines is gone (-1).
        assert repo_result.stats == {
            "modules": 139,
            "functions": 976,
            "call_edges": 938,
            "weak_edges": 2289,
            "secret_summaries": 489,
            "always_charging": 65,
        }

    def test_strong_edge_import_resolved(self, repo_result):
        """driver.evict_page calls eviction.ewb through an import."""
        graph = repo_result.graph
        caller = "repro.os.driver:SgxDriver.evict_page"
        assert "repro.sgx.eviction:ewb" in graph.strong[caller]

    def test_weak_edge_by_method_name(self, repo_result):
        """The eviction-pressure workload reaches the driver only
        through an untyped receiver — the weak tier must carry it."""
        graph = repo_result.graph
        caller = "repro.perf.fingerprint:_wl_eviction_pressure"
        assert "repro.os.driver:SgxDriver.evict_page" in graph.weak[caller]

    def test_self_method_edge(self, repo_result):
        graph = repo_result.graph
        caller = "repro.sgx.machine:Machine.epc_read"
        assert "repro.sgx.machine:Machine.memside_read" \
            in graph.strong[caller]

    def test_nested_defs_are_nodes(self, repo_result):
        fids = repo_result.graph.functions
        assert "repro.perf.fingerprint:nested_pair.<locals>.poke" in fids

    def test_method_call_receiver_is_an_edge(self, repo_result):
        """``isa.egetkey(…).hex()``-style chains: the call in the
        receiver position is a strong edge of the caller."""
        strong = repo_result.graph.strong
        assert "repro.sgx.isa:egetkey" in strong["repro.sdk.attest:_key_half"]
        assert "repro.experiments.registry:specs" \
            in strong["repro.runner.__main__:_list_registry"]

    def test_receiver_call_edge_in_a_fixture(self, tmp_path):
        graph = _graph_of(tmp_path, """
            import other

            def f():
                return b""

            class Box:
                def probe(self):
                    f().hex()
                    other.g()
                    self.x.m()
        """, extra={"other": "def g():\n    return 1\n"})
        probe = "mod:Box.probe"
        assert graph.strong[probe] == {"mod:f", "other:g"}
        # A plain dotted receiver takes no address.
        assert graph.weak[probe] == set()

    def test_self_call_is_a_strong_edge(self, tmp_path):
        graph = _graph_of(tmp_path, """
            def walk(node):
                for child in node:
                    walk(child)
        """)
        assert graph.strong["mod:walk"] == {"mod:walk"}


class TestRepoClean:
    def test_no_findings_on_the_real_tree(self, repo_result):
        assert repo_result.report.findings == []
        assert repo_result.report.passes == ["flow"]

    def test_real_isa_leaves_are_clean(self, repo_result):
        """The sweep covers the ISA leaves, whose transition-log calls
        carry no key material."""
        assert "repro.sgx.isa" in repo_result.graph.modules

    def test_real_ports_are_clean(self, repo_result):
        """The sweep covers the enclave ports, which ocall no key
        material."""
        assert [name for name in repo_result.graph.modules
                if name.startswith("repro.apps.ports.")]

    def test_charge_entry_points_all_exist(self, repo_result):
        """A rename would silently drop coverage; the engine reports
        missing entry points as findings, so clean == all present."""
        from repro.analysis.flow.config import DEFAULT_CONFIG
        for fid in DEFAULT_CONFIG.charge_entry_points:
            assert fid in repo_result.graph.functions, fid


#: FLOW001 regression corpus: case id → (source, expected findings as
#: ``(rule, line, symbol)``; ``[]`` means clean).  Sources: EGETKEY
#: results and secret-named parameters/attributes.  Sinks: ocall and
#: transition-log payloads.  Declassifiers: seal/encrypt results and
#: comparisons.
SECRET_FLOW_CASES = {
    "egetkey_result_to_ocall": ("""
        def handler(ctx):
            seal_key = ctx.get_key("seal")
            ctx.ocall("store_blob", seal_key)
        """, [("FLOW001", 4, "handler")]),
    "secret_named_parameter_to_ocall": ("""
        def export(ctx, session_key):
            ctx.ocall("log_line", session_key.hex())
        """, [("FLOW001", 3, "export")]),
    "secret_attribute_to_ocall": ("""
        def export(ctx, config):
            ctx.ocall("push", config.key)
        """, [("FLOW001", 3, "export")]),
    "derived_value_still_tainted": ("""
        def export(ctx):
            key = ctx.get_key("seal")
            blob = b"hdr:" + key
            ctx.ocall("send", blob)
        """, [("FLOW001", 5, "export")]),
    "sealed_payload_is_declassified": ("""
        def export(ctx, gcm):
            key = ctx.get_key("seal")
            ciphertext = gcm.seal(b"nonce", key)
            ctx.ocall("send", ciphertext)
        """, []),
    "n_ocall_is_not_a_sink": ("""
        def inner(ctx, session_key):
            ctx.n_ocall("ssl_write", session_key)
        """, []),
    "comparison_declassifies": ("""
        def check(ctx, key, expected):
            ctx.ocall("report", key == expected)
        """, []),
    "interface_name_argument_ignored": ("""
        def ping(ctx, payload):
            ctx.ocall("harmless", payload)
        """, []),
    "leak_through_helper": ("""
        def _ship(ctx, blob):
            ctx.ocall("send", blob)

        def export(ctx):
            key = ctx.get_key("seal")
            _ship(ctx, key)
        """, [("FLOW001", 7, "export")]),
    "tainted_return_through_helper": ("""
        def _fetch(ctx):
            return ctx.get_key("seal")

        def export(ctx):
            material = _fetch(ctx)
            ctx.ocall("send", material)
        """, [("FLOW001", 7, "export")]),
    "sanitizing_helper_clears_taint": ("""
        def _sealed(gcm, value):
            return gcm.seal(b"n", value)

        def export(ctx, gcm):
            key = ctx.get_key("seal")
            ctx.ocall("send", _sealed(gcm, key))
        """, []),
    "key_in_log_transition_kwarg": ("""
        def leak(ctx, machine):
            seal_key = ctx.get_key("seal")
            machine.log_transition("EENTER", 0, eid=1, key=seal_key)
        """, [("FLOW001", 4, "leak")]),
    "secret_parameter_in_record_payload": ("""
        def stash(machine, session_key):
            machine.transitions.record("X", 0, 1, 0, 0, session_key)
        """, [("FLOW001", 3, "stash")]),
    "event_kind_argument_is_not_payload": ("""
        def name_only(machine, session_key):
            machine.log_transition(session_key)
        """, []),
    "plain_metadata_payload_passes": ("""
        def record(machine, tcs_vaddr):
            machine.log_transition("EENTER", 0, eid=1, tcs=tcs_vaddr,
                                   depth=1)
        """, []),
    "sealed_log_payload_is_declassified": ("""
        def record(ctx, gcm, machine):
            key = ctx.get_key("seal")
            machine.log_transition("KEYED", blob=gcm.seal(b"n", key))
        """, []),
    "inline_suppression": ("""
        def export(ctx, session_key):
            ctx.ocall("dbg", session_key)  # flow: disable=FLOW001
        """, []),
    "yielded_key_reaches_the_iterating_caller": ("""
        def gen(ctx):
            yield ctx.get_key("seal")

        def export(ctx):
            for b in gen(ctx):
                ctx.ocall("s", b)
        """, [("FLOW001", 7, "export")]),
    "yield_from_passes_a_parameter_through": ("""
        def relay(blobs):
            yield from blobs

        def export(ctx, session_key):
            for b in relay(session_key):
                ctx.ocall("s", b)
        """, [("FLOW001", 7, "export")]),
    "yielded_ciphertext_is_declassified": ("""
        def gen(ctx, gcm):
            yield gcm.seal(b"n", ctx.get_key("seal"))

        def export(ctx, gcm):
            for b in gen(ctx, gcm):
                ctx.ocall("s", b)
        """, []),
    "lookup_key_does_not_taint_the_value": ("""
        def export(ctx, session_key, table):
            ctx.ocall("send", table.get(session_key))
            ctx.ocall("send", table.pop(session_key))
        """, []),
    "lookup_default_taints_the_value": ("""
        def export(ctx, table, name):
            ctx.ocall("send", table.get(name, ctx.get_key("seal")))
        """, [("FLOW001", 3, "export")]),
    "lookup_in_a_tainted_mapping_stays_tainted": ("""
        def export(ctx, name):
            keys = {"seal": ctx.get_key("seal")}
            ctx.ocall("send", keys.pop(name))
        """, [("FLOW001", 4, "export")]),
    "subscript_index_keeps_its_taint": ("""
        TABLE = {}

        def export(ctx, session_key):
            ctx.ocall("send", TABLE[session_key])
        """, [("FLOW001", 5, "export")]),
    "lambda_called_through_a_local_name": ("""
        def export(ctx):
            fn = lambda: ctx.get_key("seal")
            ctx.ocall("s", fn())
        """, [("FLOW001", 4, "export")]),
    "clean_lambda_called_through_a_local_name": ("""
        def export(ctx, session_key):
            fn = lambda: len(b"hdr")
            ctx.ocall("s", fn())
        """, []),
}

#: Decided meaning: within one function a name carries the union of
#: everything bound to it anywhere in the body (branches, handlers and
#: loop iterations alike), through every binding form, and a sink is
#: checked wherever a statement evaluates an expression.  Rebinding a
#: key's name to its ciphertext does not clear it; a fresh name does.
UNION_CASES = {
    "rebinding_a_name_keeps_its_key": ("""
        def export(ctx, gcm):
            x = ctx.get_key("seal")
            x = gcm.seal(b"n", x)
            ctx.ocall("send", x)
        """, [("FLOW001", 5, "export")]),
    "fresh_name_for_the_ciphertext_is_clean": ("""
        def export(ctx, gcm):
            x = ctx.get_key("seal")
            sealed = gcm.seal(b"n", x)
            ctx.ocall("send", sealed)
        """, []),
    "if_else_merge": ("""
        def export(ctx, flag):
            if flag:
                blob = ctx.get_key("seal")
            else:
                blob = b""
            ctx.ocall("send", blob)
        """, [("FLOW001", 7, "export")]),
    "try_except_merge": ("""
        def export(ctx):
            try:
                blob = ctx.get_key("seal")
            except KeyError:
                blob = b""
            ctx.ocall("send", blob)
        """, [("FLOW001", 7, "export")]),
    "loop_carried_after_initialiser": ("""
        def export(ctx, n):
            blob = b""
            while n:
                ctx.ocall("send", blob)
                blob = ctx.get_key("seal")
        """, [("FLOW001", 5, "export")]),
    "loop_carried_two_deep_after_initialiser": ("""
        def export(ctx, n):
            blob = b""
            prev = b""
            while n:
                ctx.ocall("send", blob)
                blob = prev
                prev = ctx.get_key("seal")
        """, [("FLOW001", 6, "export")]),
    "augmented_assignment": ("""
        def export(ctx):
            blob = b"hdr:"
            blob += ctx.get_key("seal")
            ctx.ocall("send", blob)
        """, [("FLOW001", 5, "export")]),
    "for_target": ("""
        def export(ctx):
            for part in ctx.get_key("seal"):
                ctx.ocall("send", part)
        """, [("FLOW001", 4, "export")]),
    "tuple_and_starred_targets": ("""
        def export(ctx):
            head, *rest = ctx.get_key("seal")
            ctx.ocall("send", rest)
        """, [("FLOW001", 4, "export")]),
    "with_as_name": ("""
        def export(ctx, vault):
            with vault.opened(ctx.get_key("seal")) as handle:
                ctx.ocall("send", handle)
        """, [("FLOW001", 4, "export")]),
    "walrus": ("""
        def export(ctx):
            if (blob := ctx.get_key("seal")):
                ctx.ocall("send", blob)
        """, [("FLOW001", 4, "export")]),
    "comprehension_iterable": ("""
        def export(ctx):
            ctx.ocall("send", [b ^ 0x5C for b in ctx.get_key("seal")])
        """, [("FLOW001", 3, "export")]),
    "sink_in_a_with_item": ("""
        def export(ctx, session_key):
            with ctx.ocall("open", session_key):
                pass
        """, [("FLOW001", 3, "export")]),
    "sink_in_a_raise": ("""
        def export(ctx, session_key):
            raise ValueError(ctx.ocall("send", session_key))
        """, [("FLOW001", 3, "export")]),
    "sink_in_an_assert": ("""
        def export(ctx, session_key):
            assert ctx.ocall("send", session_key)
        """, [("FLOW001", 3, "export")]),
    "sink_inside_a_comparison": ("""
        def export(ctx, session_key):
            return ctx.ocall("send", session_key) == 0
        """, [("FLOW001", 3, "export")]),
    "sink_in_a_lambda_body": ("""
        def export(ctx, session_key, schedule):
            schedule(lambda: ctx.ocall("send", session_key))
        """, [("FLOW001", 3, "export")]),
    "sink_in_a_return": ("""
        def export(ctx, session_key):
            return ctx.ocall("send", session_key)
        """, [("FLOW001", 3, "export")]),
    "sink_in_a_call_receiver": ("""
        def export(ctx, session_key):
            ctx.ocall("send", session_key).hex()
        """, [("FLOW001", 3, "export")]),
}

#: Call-argument binding: positional arguments skip the implicit
#: receiver of bound-method and constructor calls (never that of
#: staticmethod or unbound ``Cls.method(obj, …)`` calls), and keyword
#: arguments bind by parameter name.
BINDING_CASES = {
    "bound_method_call": ("""
        class Exporter:
            def _ship(self, ctx, blob):
                ctx.ocall("dump", blob)

            def probe(self, ctx, session_key):
                self._ship(ctx, session_key)
        """, [("FLOW001", 7, "Exporter.probe")]),
    "keyword_argument": ("""
        def ship(ctx, blob):
            ctx.ocall("dump", blob)

        def probe(ctx, session_key):
            ship(ctx, blob=session_key)
        """, [("FLOW001", 6, "probe")]),
    "bound_method_return": ("""
        class Exporter:
            def _wrap(self, blob):
                return b"hdr:" + blob

            def probe(self, ctx, session_key):
                ctx.ocall("dump", self._wrap(session_key))
        """, [("FLOW001", 7, "Exporter.probe")]),
    "keyword_return": ("""
        def _wrap(blob):
            return b"hdr:" + blob

        def probe(ctx, session_key):
            ctx.ocall("dump", _wrap(blob=session_key))
        """, [("FLOW001", 6, "probe")]),
    "constructor_call": ("""
        class Shipper:
            def __init__(self, ctx, blob):
                ctx.ocall("dump", blob)

        def probe(ctx, session_key):
            Shipper(ctx, session_key)
        """, [("FLOW001", 7, "probe")]),
    "staticmethod_call": ("""
        class Exporter:
            @staticmethod
            def _ship(ctx, blob):
                ctx.ocall("dump", blob)

            def probe(self, ctx, session_key):
                self._ship(ctx, session_key)
        """, [("FLOW001", 8, "Exporter.probe")]),
    "keyword_only_secret_parameter": ("""
        def export(ctx, *, session_key):
            ctx.ocall("log_line", session_key.hex())
        """, [("FLOW001", 3, "export")]),
    "keyword_only_argument": ("""
        def ship(ctx, *, blob):
            ctx.ocall("dump", blob)

        def probe(ctx, session_key):
            ship(ctx, blob=session_key)
        """, [("FLOW001", 6, "probe")]),
    "positional_only_argument": ("""
        def ship(ctx, blob, /):
            ctx.ocall("dump", blob)

        def probe(ctx, session_key):
            ship(ctx, session_key)
        """, [("FLOW001", 6, "probe")]),
    "keyword_never_binds_positional_only": ("""
        def ship(ctx, blob, /, **extra):
            ctx.ocall("dump", blob)

        def probe(ctx, session_key):
            ship(ctx, b"", blob=session_key)
        """, []),
    "surplus_positional_never_binds_keyword_only": ("""
        def ship(ctx, *rest, blob=b""):
            ctx.ocall("dump", blob)

        def probe(ctx, session_key):
            ship(ctx, session_key)
        """, []),
}

#: Module defining a class whose methods are called unbound from "mod".
_SHIPPER = """
    class Shipper:
        def ship(self, ctx, blob):
            ctx.ocall("dump", blob)
"""


class TestSecretFlow:
    @pytest.mark.parametrize("case", sorted(SECRET_FLOW_CASES))
    def test_verdict(self, tmp_path, case):
        source, expected = SECRET_FLOW_CASES[case]
        findings, _ = check_secret_flow(_graph_of(tmp_path, source))
        assert _verdict(findings) == expected

    @pytest.mark.parametrize("case", sorted(UNION_CASES))
    def test_union_of_bindings(self, tmp_path, case):
        source, expected = UNION_CASES[case]
        findings, _ = check_secret_flow(_graph_of(tmp_path, source))
        assert _verdict(findings) == expected

    @pytest.mark.parametrize("case", sorted(BINDING_CASES))
    def test_argument_binding(self, tmp_path, case):
        source, expected = BINDING_CASES[case]
        findings, _ = check_secret_flow(_graph_of(tmp_path, source))
        assert _verdict(findings) == expected

    def test_unbound_method_call_binds_the_receiver_explicitly(
            self, tmp_path):
        graph = _graph_of(tmp_path, """
            import other

            def probe(shipper, ctx, session_key):
                other.Shipper.ship(shipper, ctx, session_key)
        """, extra={"other": _SHIPPER})
        findings, _ = check_secret_flow(graph)
        assert _verdict(findings) == [("FLOW001", 5, "probe")]


def _lifecycle(tmp_path, source, name="pkg/victim", config=DEFAULT_CONFIG):
    return _verdict(check_lifecycle_escape(
        _graph_of(tmp_path, source, name=name), config))


class TestLifecycleFields:
    def test_lifecycle_assignments_flagged(self, tmp_path):
        assert _lifecycle(tmp_path, """
        from repro.sgx.constants import TCS_ACTIVE

        def shortcut(machine, tcs):
            tcs.state = TCS_ACTIVE
            tcs.saved_context = None
            tcs.aex_count += 1
        """) == [("FLOW004", line, "shortcut") for line in (5, 6, 7)]

    def test_annotated_assignment_flagged(self, tmp_path):
        assert _lifecycle(tmp_path, """
        def reset(tcs):
            tcs.state: int = 0
        """) == [("FLOW004", 3, "reset")]

    def test_module_and_class_body_assignments_flagged(self, tmp_path):
        assert _lifecycle(tmp_path, """
        TCS.state = 0

        class Patch:
            TCS.aex_count = 0
        """) == [("FLOW004", 2, "<module>"), ("FLOW004", 5, "<module>")]

    def test_reads_and_unrelated_attributes_pass(self, tmp_path):
        assert _lifecycle(tmp_path, """
        def observe(tcs, job):
            state = tcs.state
            job.status = "done"
            count = 0
            count += 1
            return state, count
        """) == []

    def test_isa_leaves_allowlisted_by_default(self, tmp_path):
        assert _lifecycle(tmp_path, """
        def eenter(machine, tcs):
            tcs.state = 1
        """, name="repro/sgx/isa") == []

    def test_custom_allowlist(self, tmp_path):
        config = FlowConfig(lifecycle_allowed=frozenset({"pkg.victim"}))
        assert _lifecycle(tmp_path, """
        def restore(tcs, snapshot):
            tcs.saved_context = snapshot
        """, config=config) == []

    def test_suppression_applies(self, tmp_path):
        assert _lifecycle(tmp_path, """
        def patch(tcs):
            tcs.aex_count = 0  # flow: disable=FLOW004
        """) == []


_LEAK = """
    def ship(ctx, blob):
        ctx.ocall("dump", blob)


    def probe(ctx, session_key):
        ship(ctx, session_key){suffix}
"""


class TestSuppression:
    def _findings(self, tmp_path, suffix):
        graph = _graph_of(tmp_path, _LEAK.format(suffix=suffix))
        findings, _ = check_secret_flow(graph)
        return findings

    def test_unsuppressed_leak_is_reported_with_chain(self, tmp_path):
        findings = self._findings(tmp_path, "")
        assert len(findings) == 1
        assert findings[0].rule == "FLOW001"
        assert "probe → ship → ocall sink" in findings[0].message

    def test_flow_disable_rule_silences(self, tmp_path):
        assert self._findings(
            tmp_path, "  # flow: disable=FLOW001") == []

    def test_flow_disable_all_silences(self, tmp_path):
        assert self._findings(tmp_path, "  # flow: disable=all") == []

    def test_simlint_disable_all_does_not_silence_flow(self, tmp_path):
        """The two directive families are scoped to their own rules."""
        findings = self._findings(tmp_path, "  # simlint: disable=all")
        assert len(findings) == 1

    def test_flow_disable_all_keeps_simlint_rules(self, tmp_path):
        from repro.analysis.pysource import parse_directives
        table, _charged = parse_directives("x = 1  # flow: disable=all\n")
        assert table[1] == frozenset({"flow:all"})

    def test_quoted_directive_does_not_silence(self, tmp_path):
        findings = self._findings(
            tmp_path, '\n    note = "# flow: disable=FLOW001"')
        assert len(findings) == 1
        graph = _graph_of(tmp_path, """
            def export(ctx, session_key):
                ctx.ocall("dbg", session_key, f"{1} # flow: disable=all")
        """)
        assert _verdict(check_secret_flow(graph)[0]) == [
            ("FLOW001", 3, "export")]


def _round_robin(graph, analyse, initial):
    """The oracle: analyse every function on every round, in order,
    until a round changes nothing."""
    summaries = {fid: initial() for fid in graph.functions}
    changed = True
    while changed:
        changed = False
        for fid, info in graph.functions.items():
            summary = analyse(info, summaries)
            changed |= summary != summaries[fid]
            summaries[fid] = summary
    return summaries


#: ``probe`` hands a key to ``h1``, which passes it down ten helpers
#: defined outer-first to the ocall in ``h10``.
_OUTER_FIRST_LEAK = (
    "def probe(ctx, session_key):\n"
    "    h1(ctx, session_key)\n"
    + "".join(f"\n\ndef h{i}(ctx, blob):\n    h{i + 1}(ctx, blob)\n"
              for i in range(1, 10))
    + "\n\ndef h10(ctx, blob):\n    ctx.ocall(\"dump\", blob)\n")

#: ``touch`` charges only through a chain of eleven calls.
_DEEP_CHARGE = (
    "def touch(cost):\n"
    "    c1(cost)\n"
    "    return 1\n"
    + "".join(f"\n\ndef c{i}(cost):\n    c{i + 1}(cost)\n"
              for i in range(1, 11))
    + "\n\ndef c11(cost):\n    cost.charge_event(\"x\")\n")


class TestSummarySolver:
    def test_solver_matches_the_round_robin_oracle(self, repo_result,
                                                  monkeypatch):
        """On the real tree the solver returns the summaries and
        findings of analysing every function on every round, with
        fewer analyses."""
        graph = repo_result.graph
        entries = DEFAULT_CONFIG.charge_entry_points
        analyses = {"solver": 0, "oracle": 0}

        def counted(solve, who):
            def run(analyse, initial):
                def counting(info, summaries):
                    analyses[who] += 1
                    return analyse(info, summaries)
                return solve(counting, initial)
            return run

        solver = counted(graph.solve, "solver")
        monkeypatch.setattr(graph, "solve", solver)
        secret = check_secret_flow(graph)
        charges = check_charge_coverage(graph, entries)
        oracle = counted(lambda analyse, initial: _round_robin(
            graph, analyse, initial), "oracle")
        monkeypatch.setattr(graph, "solve", oracle)
        assert check_secret_flow(graph) == secret
        assert check_charge_coverage(graph, entries) == charges
        assert analyses["solver"] < analyses["oracle"] / 2

    def test_ten_deep_outer_first_leak_is_reported(self, tmp_path):
        findings, _ = check_secret_flow(
            _graph_of(tmp_path, _OUTER_FIRST_LEAK))
        assert _verdict(findings) == [("FLOW001", 2, "probe")]
        chain = " → ".join(["probe"] + [f"h{i}" for i in range(1, 11)])
        assert f"{chain} → ocall sink at line " in findings[0].message

    def test_eleven_deep_charge_satisfies_the_entry_point(self, tmp_path):
        findings, summaries = check_charge_coverage(
            _graph_of(tmp_path, _DEEP_CHARGE), ("mod:touch",))
        assert findings == []
        assert summaries["mod:touch"].always_charges

    def test_mutual_recursion_keeps_the_shortest_witness(self, tmp_path):
        """A lifted sink fact never re-enters the function lifting it,
        so ``f ↔ g`` converges with the direct path as the witness."""
        graph = _graph_of(tmp_path, """
            def f(ctx, blob, n):
                g(ctx, blob, n)
                ctx.ocall("send", blob)


            def g(ctx, blob, n):
                if n:
                    f(ctx, blob, n - 1)


            def probe(ctx, session_key):
                f(ctx, session_key, 3)
        """)
        findings, summaries = check_secret_flow(graph)
        assert _verdict(findings) == [("FLOW001", 13, "probe")]
        assert findings[0].message.endswith(
            ": probe → f → ocall sink at line 4")
        assert summaries["mod:f"].param_to_sink[1].chain == ()
        assert summaries["mod:g"].param_to_sink[1].chain == ("mod:f",)

    def test_recursion_still_reports_a_key_sent_round_the_cycle(
            self, tmp_path):
        """Only the lift into the summary is cut: a key that reaches
        the sink through the cycle is still reported where it starts."""
        graph = _graph_of(tmp_path, """
            def f(ctx, blob, n):
                if n:
                    g(ctx, ctx.get_key("seal"))
                else:
                    ctx.ocall("send", blob)


            def g(ctx, blob):
                f(ctx, blob, 0)
        """)
        findings, _ = check_secret_flow(graph)
        assert _verdict(findings) == [("FLOW001", 4, "f")]
        assert ": f → g → f → ocall sink at line 6" in findings[0].message

    def test_analysis_that_never_converges_is_a_typed_error(self,
                                                           tmp_path):
        graph = _graph_of(tmp_path, "def f():\n    f()\n")
        with pytest.raises(AnalysisError, match="did not converge"):
            graph.solve(lambda info, summaries: not summaries[info.fid],
                        bool)

    def test_only_changed_callees_trigger_reanalysis(self, tmp_path):
        """Callers defined first wait for their callee; an unrelated
        function is analysed once."""
        graph = _graph_of(tmp_path, """
            def caller():
                callee()


            def callee():
                return 1


            def loner():
                return 2
        """)
        seen = []

        def analyse(info, summaries):
            seen.append(info.qualname)
            own = int(info.qualname == "callee")
            return max([own] + [summaries[fid]
                                for fid in graph.strong[info.fid]])

        assert graph.solve(analyse, int) == {
            "mod:caller": 1, "mod:callee": 1, "mod:loner": 0}
        assert seen == ["caller", "callee", "loner", "caller"]


class TestChargeCoverage:
    def test_uncharged_branch_is_reported(self, tmp_path):
        graph = _graph_of(tmp_path, """
            def touch(cost, n):
                if n:
                    cost.charge_event("x")
                return n
        """)
        findings, _ = check_charge_coverage(graph, ("mod:touch",))
        assert len(findings) == 1
        assert findings[0].rule == "FLOW002"
        assert "touch → return" in findings[0].message

    def test_charged_annotation_declares_intent(self, tmp_path):
        graph = _graph_of(tmp_path, """
            def touch(cost, n):
                if n:
                    cost.charge_event("x")
                return n  # flow: charged
        """)
        findings, _ = check_charge_coverage(graph, ("mod:touch",))
        assert findings == []

    @pytest.mark.parametrize("quoted", [
        'return n, "# flow: charged"',
        'return f"{n} # flow: charged"',
        '"""Return n.  # flow: charged"""\n    return n'])
    def test_quoted_charged_annotation_declares_nothing(self, tmp_path,
                                                        quoted):
        graph = _graph_of(tmp_path, f"""
def touch(cost, n):
    {quoted}
""")
        findings, _ = check_charge_coverage(graph, ("mod:touch",))
        assert [f.rule for f in findings] == ["FLOW002"]

    def test_always_charging_callee_satisfies(self, tmp_path):
        graph = _graph_of(tmp_path, """
            def helper(cost):
                cost.charge_event("x")


            def touch(cost):
                helper(cost)
                return 1
        """)
        findings, _ = check_charge_coverage(graph, ("mod:touch",))
        assert findings == []

    def test_counters_receiver_is_not_a_seam(self, tmp_path):
        """Counter bumps are bookkeeping; only the cost clock counts."""
        graph = _graph_of(tmp_path, """
            def touch(machine):
                machine.counters.charge_event("tlb_hit")
                return 1
        """)
        findings, _ = check_charge_coverage(graph, ("mod:touch",))
        assert len(findings) == 1

    def test_charge_inside_a_lambda_does_not_satisfy(self, tmp_path):
        """A lambda body does not run where it is defined."""
        graph = _graph_of(tmp_path, """
            def helper(cost):
                cost.charge_event("x")


            def touch(cost, schedule):
                schedule(later=lambda: cost.charge_event("x"))
                schedule(quick=lambda: helper(cost))
                return 1
        """)
        findings, summaries = check_charge_coverage(graph, ("mod:touch",))
        assert _verdict(findings) == [("FLOW002", 9, "touch")]
        assert summaries["mod:helper"].always_charges

    def test_method_name_match_does_not_satisfy(self, tmp_path):
        """An untyped receiver's by-name match is not proof of a
        charge, even when only one class defines the method."""
        graph = _graph_of(tmp_path, """
            class Meter:
                def tick(self, cost):
                    cost.charge_event("x")


            def touch(meter, cost):
                meter.tick(cost)
                return 1
        """)
        findings, _ = check_charge_coverage(graph, ("mod:touch",))
        assert _verdict(findings) == [("FLOW002", 9, "touch")]

    def test_missing_entry_point_is_loud(self, tmp_path):
        graph = _graph_of(tmp_path, "def f():\n    return 1\n")
        findings, _ = check_charge_coverage(graph, ("mod:gone",))
        assert len(findings) == 1
        assert "does not exist" in findings[0].message


class TestDeterminismReachability:
    def test_clock_read_behind_a_chained_call_is_reached(self, tmp_path):
        graph = _graph_of(tmp_path, """
            import helper

            def fold(log):
                log.append(helper.stamp().hex())
        """, extra={"helper": """
            import time

            def stamp():
                return int(time.time()).to_bytes(8, "little")
        """})
        config = FlowConfig(fingerprint_root_modules=("mod",))
        findings = check_determinism_reachability(graph, config)
        assert _verdict(findings) == [("FLOW003", 5, "stamp")]
        assert "fold → stamp" in findings[0].message


class TestMutationCorpus:
    def test_corpus_names_are_pinned(self):
        assert sorted(m.name for m in MUTATIONS) == [
            "clock-above-fingerprint-fold",
            "clock-behind-chained-call",
            "clock-under-attested-handshake",
            "driver-helper-parks-tcs",
            "drop-charge-lines-charge",
            "drop-inline-multiline-charge",
            "egetkey-chain-transition-log",
            "helper-chain-key-ocall",
            "key-through-for-target-ocall",
        ]

    def test_every_mutation_is_killed_with_a_witness(self):
        outcomes = run_flow_mutations(repo_root())
        assert len(outcomes) == len(MUTATIONS)
        for outcome in outcomes:
            assert outcome.killed, outcome.name
            assert "→" in outcome.witness, outcome.name

    def test_unknown_mutation_name_is_loud(self):
        from repro.analysis.findings import AnalysisError
        with pytest.raises(AnalysisError, match="unknown flow mutation"):
            run_flow_mutations(repo_root(), ["bogus"])


class TestCli:
    def test_only_flow_runs_clean(self, capsys):
        assert main(["flow", "--format", "json"]) == 0
        import json
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == ["flow"]
        assert payload["findings"] == []

    def test_only_flow_mutate_single(self, capsys):
        assert main(["flow", "--mutate", "helper-chain-key-ocall"]) == 0
        out = capsys.readouterr().out
        assert "KILLED   helper-chain-key-ocall [FLOW001]" in out
        assert "1/1 flow mutation(s) killed" in out

    def test_only_flow_mutate_unknown_is_usage_error(self, capsys):
        assert main(["flow", "--mutate", "bogus"]) == 2
        assert "unknown flow mutation" in capsys.readouterr().err
