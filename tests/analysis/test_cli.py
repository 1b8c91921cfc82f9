"""CLI behavior: pass selection, formats, baseline handling, exit codes."""

import json
import shutil
import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.findings import (AnalysisError, Finding, Report,
                                     load_baseline, write_baseline)
from repro.analysis.runner import repo_root, run_repo_analysis


@pytest.fixture()
def dirty_repo(tmp_path):
    """A minimal src/repro tree with one violation of each default pass
    and two key leaks for the flow engine."""
    pkg = tmp_path / "src" / "repro"
    ports = pkg / "apps" / "ports"
    ports.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "apps" / "__init__.py").write_text("")
    (ports / "__init__.py").write_text("")
    (pkg / "clocky.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n")
    (ports / "leaky.py").write_text(textwrap.dedent('''
    LEAKY_EDL = """
    enclave {
        untrusted { void stash(bytes session_key); };
    };
    """


    def export(ctx, session_key):
        ctx.ocall("stash", session_key)       # declared -> FLOW001
        ctx.ocall("debug_dump", session_key)  # undeclared -> FLOW001
    '''))
    return tmp_path


class TestExitCodes:
    def test_clean_repo_exits_zero(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_dirty_repo_exits_one(self, dirty_repo, capsys):
        assert main(["--root", str(dirty_repo)]) == 1
        out = capsys.readouterr().out
        assert "SIM002" in out and "EDL003" in out

    def test_unknown_pass_is_usage_error(self, capsys):
        assert main(["bogus"]) == 2
        assert "unknown pass" in capsys.readouterr().err

    def test_retired_taint_pass_is_usage_error(self, capsys):
        """Secret flow is FLOW001's job; the old pass name is gone."""
        assert main(["taint"]) == 2
        assert "unknown pass" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["--only", "taint"])
        assert excinfo.value.code == 2

    def test_missing_baseline_file_is_error(self, capsys):
        assert main(["--baseline", "/nonexistent/base.json"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestPassSelection:
    def test_single_pass_only_runs_that_pass(self, dirty_repo, capsys):
        assert main(["--root", str(dirty_repo), "--format", "json",
                     "edl"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == ["edl_lint"]
        assert {f["rule"] for f in payload["findings"]} == {"EDL003",
                                                            "EDL004"}

    def test_json_format_round_trips(self, dirty_repo, capsys):
        assert main(["--root", str(dirty_repo), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["new"]
        rules = {f["rule"] for f in payload["findings"]}
        assert {"SIM002", "EDL003"} <= rules

    def test_gate_pass_set_reports_secret_flow(self, dirty_repo, capsys):
        """The CI gate's ``edl sim flow`` set reports both key leaks,
        declared interface or not."""
        assert main(["--root", str(dirty_repo), "--format", "json",
                     "edl", "sim", "flow"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == ["edl_lint", "simlint", "flow"]
        leaks = [(f["path"], f["line"]) for f in payload["findings"]
                 if f["rule"] == "FLOW001"]
        assert leaks == [("repro/apps/ports/leaky.py", 10),
                         ("repro/apps/ports/leaky.py", 11)]


class TestOnly:
    def test_only_runs_exactly_one_pass(self, dirty_repo, capsys):
        assert main(["--root", str(dirty_repo), "--format", "json",
                     "sim"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == ["simlint"]
        assert {f["rule"] for f in payload["findings"]} == {"SIM002"}

    def test_only_is_exclusive_with_positional_passes(self, capsys):
        """Positional passes are the one selector: the retired
        ``--only`` is an unknown option."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--only", "simlint", "edl"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --only" in capsys.readouterr().err

    def test_only_is_exclusive_with_check(self, capsys):
        """``--mutate`` targets the model checker or the flow engine;
        any other positional pass is a usage error."""
        assert main(["sim", "--mutate", "all"]) == 2
        assert "--mutate targets" in capsys.readouterr().err

    def test_only_orderliness_replays_workload_logs(self, capsys):
        """The CI job's exact invocation: replay every fingerprint
        workload's transition log through the automaton."""
        assert main(["orderliness", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == ["orderliness"]
        assert payload["findings"] == []

    def test_unknown_only_name_is_usage_error(self, capsys):
        assert main(["bogus"]) == 2
        assert "unknown pass" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["--only", "bogus"])
        assert excinfo.value.code == 2


class TestBaseline:
    def test_baseline_grandfathers_findings(self, dirty_repo, tmp_path,
                                            capsys):
        base = tmp_path / "base.json"
        assert main(["--root", str(dirty_repo),
                     "--write-baseline", str(base)]) == 0
        capsys.readouterr()
        assert main(["--root", str(dirty_repo),
                     "--baseline", str(base)]) == 0
        assert "grandfathered" in capsys.readouterr().out

    def test_new_finding_fails_despite_baseline(self, dirty_repo,
                                                tmp_path, capsys):
        base = tmp_path / "base.json"
        main(["--root", str(dirty_repo), "--write-baseline", str(base)])
        (dirty_repo / "src" / "repro" / "fresh.py").write_text(
            "import random\nX = random.random()\n")
        capsys.readouterr()
        assert main(["--root", str(dirty_repo),
                     "--baseline", str(base)]) == 1
        out = capsys.readouterr().out
        assert "SIM003" in out and "grandfathered" in out

    def test_baseline_survives_line_shifts(self, dirty_repo, tmp_path):
        base = tmp_path / "base.json"
        main(["--root", str(dirty_repo), "--write-baseline", str(base)])
        clocky = dirty_repo / "src" / "repro" / "clocky.py"
        clocky.write_text("# pushed down\n\n" + clocky.read_text())
        assert main(["--root", str(dirty_repo),
                     "--baseline", str(base)]) == 0

    def test_malformed_baseline_is_loud(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"wrong": 1}')
        with pytest.raises(AnalysisError):
            load_baseline(bad)

    def test_corrupt_baseline_exits_two_not_traceback(self, tmp_path,
                                                      capsys):
        """Binary garbage raises UnicodeDecodeError, which is not a
        JSONDecodeError — the CLI must still exit 2, never traceback."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00garbage\x80")
        assert main(["--baseline", str(bad)]) == 2
        assert "malformed baseline" in capsys.readouterr().err

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        """A directory path raises OSError on read — exit 2, no
        traceback (chmod tricks don't work under root, a directory
        is unreadable for everyone)."""
        as_dir = tmp_path / "base.json"
        as_dir.mkdir()
        assert main(["--baseline", str(as_dir)]) == 2
        assert "malformed baseline" in capsys.readouterr().err

    def test_truncated_json_baseline_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"findings": ["SIM0')
        assert main(["--baseline", str(bad)]) == 2
        assert "malformed baseline" in capsys.readouterr().err

    def test_write_then_load_round_trip(self, tmp_path):
        report = Report(findings=[Finding("a.py", 3, "SIM002", "msg")])
        path = tmp_path / "b.json"
        write_baseline(path, report)
        assert load_baseline(path) == {report.findings[0].fingerprint}


class TestReportOrdering:
    FINDINGS = [
        Finding("z.py", 9, "SIM002", "m1"),
        Finding("a.py", 5, "SIM008", "m2"),
        Finding("a.py", 2, "FLOW001", "m3"),
        Finding("a.py", 1, "SIM002", "m0"),
        Finding("a.py", 2, "FLOW001", "m3"),  # duplicate collapses
    ]

    def test_dedupe_orders_by_rule_then_location(self):
        """Pinned canonical order: rule family groups first, then path,
        line, message — independent of pass execution order."""
        report = Report(findings=list(self.FINDINGS))
        report.dedupe()
        assert [(f.rule, f.path, f.line) for f in report.findings] == [
            ("FLOW001", "a.py", 2),
            ("SIM002", "a.py", 1),
            ("SIM002", "z.py", 9),
            ("SIM008", "a.py", 5),
        ]

    def test_render_json_is_byte_deterministic(self):
        forward = Report(findings=list(self.FINDINGS))
        backward = Report(findings=list(reversed(self.FINDINGS)))
        forward.dedupe()
        backward.dedupe()
        assert forward.render_json() == backward.render_json()
        assert forward.render_json() == forward.render_json()


class TestRepoCopyRegression:
    def test_injected_violation_caught_in_repo_copy(self, tmp_path):
        """End to end: copy the real tree, poke the simulation, watch
        the gate catch it."""
        root = repo_root()
        copy = tmp_path / "copy"
        shutil.copytree(root / "src", copy / "src")
        victim = copy / "src" / "repro" / "sdk" / "heap.py"
        victim.write_text(victim.read_text() + textwrap.dedent("""

        def _sneaky(machine):
            return machine.phys.read(0, 4096)
        """))
        report = run_repo_analysis(copy)
        assert [f.rule for f in report.findings] == ["SIM001"]
        assert report.findings[0].path == "repro/sdk/heap.py"
