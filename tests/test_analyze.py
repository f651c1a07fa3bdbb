"""The analyzer's own test suite: fixture-driven per-rule checks, CLI
contract (exit codes, JSON report), the repo-wide clean meta-test, and
regressions for the determinism fixes that rode along with the linter
(SeededRNG.raw, fuzzer payload byte-compatibility)."""

from __future__ import annotations

import ast
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.analyze import ALL_RULES, run_analysis
from repro.analyze.cli import main as analyze_main
from repro.analyze.core import (
    iter_python_files,
    load_context,
    parse_waivers,
    read_comments,
)
from repro.analyze.dataflow import Project
from repro.analyze.rules import Fsm01SingleWriter
from repro.check.fuzzer import _payload
from repro.sim.rng import SeededRNG

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analyze"


def findings_for(fixture: str, *rules: str):
    report = run_analysis([FIXTURES / f"{fixture}.py"], rule_codes=list(rules) or None)
    assert not report.parse_errors
    return report


def locations(report, *, waived: bool):
    return [(f.line, f.rule) for f in report.findings if f.waived is waived]


# ---------------------------------------------------------------------------
# Per-rule fixtures: exact line/rule findings, negatives implied by exactness
# ---------------------------------------------------------------------------
def test_det01_entropy_fixture():
    report = findings_for("det01", "DET01")
    assert locations(report, waived=False) == [(4, "DET01"), (5, "DET01"), (9, "DET01")]
    assert locations(report, waived=True) == [(12, "DET01")]


def test_det02_wallclock_fixture():
    report = findings_for("det02", "DET02")
    assert locations(report, waived=False) == [(4, "DET02"), (9, "DET02"), (13, "DET02")]
    assert locations(report, waived=True) == [(17, "DET02")]


def test_det03_unordered_iteration_fixture():
    report = findings_for("det03", "DET03")
    # kick_dict and report (dict order is insertion order) and
    # kick_sorted (sorted set) stay clean.
    assert locations(report, waived=False) == [(10, "DET03"), (15, "DET03")]
    assert locations(report, waived=True) == [(27, "DET03")]


def test_det03_flags_sets_in_comprehensions_and_calls_not_dict_views(tmp_path):
    source = tmp_path / "feeds.py"
    source.write_text(
        "class Feed:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "        self.peers = set()\n"
        "        self.table = {}\n"
        "\n"
        "    def kick(self) -> None:\n"
        "        order = [peer for peer in self.peers]\n"  # line 8: comprehension
        "        order += list(self.peers)\n"  # line 9: list(set)
        "        for index, peer in enumerate(frozenset(order)):\n"  # line 10
        "            self.sim.schedule(0.0, peer)\n"
        "        for key in self.table.keys():\n"  # dict views: insertion order
        "            self.sim.schedule(0.0, key)\n"
        "        for key, value in self.table.items():\n"
        "            self.sim.schedule(0.0, value)\n"
    )
    report = run_analysis([source], rule_codes=["DET03"])
    assert locations(report, waived=False) == [(8, "DET03"), (9, "DET03"), (10, "DET03")]


def test_det03_flags_sets_in_functions_that_schedule_nothing(tmp_path):
    # Report and claim code orders its output too: the rule applies to
    # every function, not only those that reach Simulator.schedule.
    source = tmp_path / "claims.py"
    source.write_text(
        "def claims(rows):\n"
        "    out = {}\n"
        "    for n in {row['subflows'] for row in rows}:\n"  # line 3
        "        out[f'claim_{n}'] = True\n"
        "    return out\n"
    )
    report = run_analysis([source], rule_codes=["DET03"])
    assert locations(report, waived=False) == [(3, "DET03")]


def test_det03_exempts_only_the_analyzer():
    (det03,) = [rule for rule in ALL_RULES if rule.code == "DET03"]
    assert det03.allow == ("repro/analyze/",)


def test_exc01_silent_except_fixture():
    report = findings_for("exc01", "EXC01")
    # records() uses the binding and reraises() re-raises: both clean.
    assert locations(report, waived=False) == [(11, "EXC01"), (18, "EXC01")]
    assert locations(report, waived=True) == [(40, "EXC01")]


def test_fixture_findings_name_the_fixture_file():
    report = findings_for("det01", "DET01")
    assert all(f.path.endswith("tests/fixtures/analyze/det01.py") for f in report.findings)


def test_rule_selection_restricts_findings():
    report = findings_for("det01", "EXC01")
    assert report.findings == []
    assert report.rules == ["EXC01"]


# ---------------------------------------------------------------------------
# Waiver parsing
# ---------------------------------------------------------------------------
def test_waiver_in_string_literal_does_not_waive():
    line_waivers, file_waivers, file_waiver_lines = parse_waivers(
        read_comments('text = "# analyze: ok(DET01)"\nvalue = 1  # analyze: ok(DET02)\n')
    )
    assert line_waivers == {2: {"DET02"}}
    assert file_waivers == set()
    assert file_waiver_lines == {}


def test_file_ok_waiver_covers_every_line():
    line_waivers, file_waivers, file_waiver_lines = parse_waivers(
        read_comments("x = 0\n# analyze: file-ok(DET02, DET03): module meters wall time\n")
    )
    assert line_waivers == {}
    assert file_waivers == {"DET02", "DET03"}
    assert file_waiver_lines == {"DET02": 2, "DET03": 2}


def test_iter_python_files_is_sorted_and_deduplicated():
    files = list(iter_python_files([FIXTURES, FIXTURES / "det01.py"]))
    assert files == sorted(set(files))
    with pytest.raises(FileNotFoundError):
        list(iter_python_files([FIXTURES / "does-not-exist"]))


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------
def test_cli_exit_one_and_json_report(tmp_path, capsys):
    out = tmp_path / "findings.json"
    code = analyze_main(
        ["--rule", "DET01", "--format", "json", "--out", str(out), str(FIXTURES / "det01.py")]
    )
    assert code == 1
    stdout = json.loads(capsys.readouterr().out)
    ondisk = json.loads(out.read_text())
    assert stdout == ondisk
    assert ondisk["clean"] is False
    assert [(f["line"], f["rule"]) for f in ondisk["findings"]] == [
        (4, "DET01"),
        (5, "DET01"),
        (9, "DET01"),
    ]
    assert [f["line"] for f in ondisk["waived"]] == [12]


def test_json_report_budget_summary(tmp_path, capsys):
    code = analyze_main(
        ["--rule", "DET01", "--format", "json", str(FIXTURES / "det01.py")]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["budget"] == {"DET01": {"live": 3, "waived": 1}}


@pytest.fixture(scope="module")
def src_report():
    """One full analysis of ``src/`` and ``examples/`` (CI's lint
    inputs), shared by the meta-tests."""
    return run_analysis([REPO_ROOT / "src", REPO_ROOT / "examples"])


def test_cli_exit_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def fine():\n    return 1\n")
    assert analyze_main([str(clean)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_exit_two_on_syntax_error(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    assert analyze_main([str(broken)]) == 2
    assert "syntax error" in capsys.readouterr().out


def test_cli_exit_two_on_unknown_rule(capsys):
    assert analyze_main(["--rule", "NOPE", str(FIXTURES / "det01.py")]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_budget_mode_is_gone(capsys):
    # The HOT01/CPX01 budget ratchet was deleted with its rules.
    with pytest.raises(SystemExit) as exit_info:
        analyze_main(["--budget", str(FIXTURES / "det01.py")])
    assert exit_info.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert analyze_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    codes = [line.split()[0] for line in out.splitlines() if not line.startswith(" ")]
    assert codes == ["DET01", "DET02", "DET03", "EXC01", "DOM01", "FSM01", "WVR01"]


# ---------------------------------------------------------------------------
# DOM01: sequence-domain dataflow
# ---------------------------------------------------------------------------
def test_dom01_sequence_domain_fixture():
    report = findings_for("dom01", "DOM01")
    # legal_offset (DSN + LENGTH) and blessed (wire-DSN mapper) stay clean.
    assert locations(report, waived=False) == [
        (5, "DOM01"),
        (10, "DOM01"),
        (19, "DOM01"),
        (29, "DOM01"),
    ]
    assert locations(report, waived=True) == [(34, "DOM01")]


def test_dom01_messages_name_both_domains():
    report = findings_for("dom01", "DOM01")
    arith = next(f for f in report.findings if f.line == 5)
    assert "SSN" in arith.message and "DSN" in arith.message


# ---------------------------------------------------------------------------
# FSM01: one writer per state machine
# ---------------------------------------------------------------------------
DOOR_MACHINE = (("fixtures/analyze/fsm01.py", "DoorState", "state"),)


def test_fsm01_door_fixture():
    rule = Fsm01SingleWriter(machines=DOOR_MACHINE)
    report = run_analysis(
        [FIXTURES / "fsm01.py", FIXTURES / "fsm01_foreign.py"], rules=[rule]
    )
    assert not report.parse_errors
    # __init__'s initial state, _set_state's store and the setter's
    # callers (open, lock) stay clean.
    assert [(Path(f.path).name, f.line) for f in report.findings if not f.waived] == [
        ("fsm01.py", 39),  # direct write of a member, bypassing _set_state
        ("fsm01.py", 42),  # direct write of an arbitrary value
        ("fsm01.py", 45),  # write inside a tuple target
        ("fsm01_foreign.py", 7),  # foreign-layer write
    ]
    assert [(Path(f.path).name, f.line) for f in report.findings if f.waived] == [
        ("fsm01.py", 48)
    ]
    foreign = next(f for f in report.findings if f.path.endswith("fsm01_foreign.py"))
    assert "DoorState.BROKEN" in foreign.message


def test_fsm01_real_machines_name_their_owners():
    """The two shipped machines: each owner file has a ``_set_state``
    that checks the module's ``TRANSITIONS`` table."""
    owners = {owner for owner, _, _ in Fsm01SingleWriter().machines}
    assert owners == {"repro/tcp/socket.py", "repro/mptcp/connection.py"}
    for owner in owners:
        source = (REPO_ROOT / "src" / owner).read_text()
        assert "def _set_state(" in source and "not in TRANSITIONS" in source, owner


# ---------------------------------------------------------------------------
# WVR01: stale waivers
# ---------------------------------------------------------------------------
def test_wvr01_stale_waiver_fixture():
    report = findings_for("wvr01", "DET01", "DET02", "WVR01")
    assert locations(report, waived=False) == [(2, "WVR01"), (9, "WVR01"), (12, "WVR01")]
    # the import waiver still suppresses a real DET01 finding: not stale
    assert locations(report, waived=True) == [(4, "DET01")]


def test_wvr01_ignores_waivers_for_inactive_rules():
    report = findings_for("wvr01", "DET01", "WVR01")
    # file-ok(DET02) cannot be judged stale when DET02 did not run, but
    # a waiver naming no rule is orphaned whichever rules run.
    assert locations(report, waived=False) == [(9, "WVR01"), (12, "WVR01")]
    orphan = next(f for f in report.findings if f.line == 12)
    assert "orphaned waiver: ok(XYZ99)" in orphan.message


_ORPHANS = "# analyze: file-ok(ZZZ01): a code no rule has\nx = 1  # analyze: ok(QQQ02)\n"


@pytest.mark.parametrize("rules", [("WVR01",), ("DET03", "WVR01"), None])
def test_wvr01_orphaned_waivers_whichever_rules_run(tmp_path, rules):
    source = tmp_path / "orphans.py"
    source.write_text(_ORPHANS)
    report = run_analysis([source], rule_codes=list(rules) if rules else None)
    assert locations(report, waived=False) == [(1, "WVR01"), (2, "WVR01")]
    assert [f.message.split(" names")[0] for f in report.findings] == [
        "orphaned waiver: file-ok(ZZZ01)",
        "orphaned waiver: ok(QQQ02) on this line",
    ]


def test_wvr01_waivers_for_the_deleted_perf_rules_are_orphaned(tmp_path):
    # HOT01 and CPX01 are gone; a leftover waiver for either excuses
    # nothing and must be removed, not carried along.
    source = tmp_path / "leftovers.py"
    source.write_text("# analyze: file-ok(CPX01)\nrows = [1]  # analyze: ok(HOT01)\n")
    report = run_analysis([source])
    assert locations(report, waived=False) == [(1, "WVR01"), (2, "WVR01")]
    assert all("orphaned waiver" in f.message for f in report.findings)


def test_wvr01_orphaned_waivers_need_wvr01_in_the_run(tmp_path):
    source = tmp_path / "orphans.py"
    source.write_text(_ORPHANS)
    assert run_analysis([source], rule_codes=["DET01"]).findings == []


def test_wvr01_repo_has_no_stale_waivers(src_report):
    report = src_report
    stale = [f for f in report.findings if f.rule == "WVR01" and not f.waived]
    assert stale == [], "\n".join(f.format() for f in stale)


# ---------------------------------------------------------------------------
# Function index: named lambdas and functools.partial aliases
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def extras_project():
    ctx = load_context(FIXTURES / "callgraph_extras.py")
    return ctx, Project([ctx])


def _fid(project, name):
    matches = [
        fid
        for fid in project.functions
        if fid.endswith(f"::{name}") or f"::{name}:" in fid
    ]
    assert len(matches) == 1, (name, matches)
    return matches[0]


def test_callgraph_lambda_is_a_function(extras_project):
    ctx, project = extras_project
    bounce = _fid(project, "bounce")
    assert isinstance(project.functions[bounce].node, ast.Lambda)
    assert project._resolve_name(ctx.posix, "bounce") == [bounce]


def test_callgraph_partial_alias_resolves(extras_project):
    ctx, project = extras_project
    assert project._resolve_name(ctx.posix, "alias") == [_fid(project, "kick")]


# ---------------------------------------------------------------------------
# Engine: wall-time reporting
# ---------------------------------------------------------------------------
def test_report_carries_elapsed_seconds():
    report = findings_for("det01", "DET01")
    assert report.elapsed_seconds > 0
    assert "elapsed_seconds" in report.as_dict()


def test_json_report_times_every_selected_rule(capsys):
    selected = ["DET02", "DOM01", "FSM01", "WVR01"]
    argv = [arg for code in selected for arg in ("--rule", code)]
    assert analyze_main(argv + ["--format", "json", str(FIXTURES)]) == 1
    seconds = json.loads(capsys.readouterr().out)["rule_seconds"]
    assert list(seconds) == selected
    assert all(isinstance(t, float) and t >= 0 for t in seconds.values())


# ---------------------------------------------------------------------------
# The meta-test: the repo obeys its own linter
# ---------------------------------------------------------------------------
def test_repo_tree_is_clean(src_report):
    report = src_report
    assert report.parse_errors == []
    assert report.unwaived == [], "\n".join(f.format() for f in report.unwaived)


# ---------------------------------------------------------------------------
# Determinism fixes that rode along: SeededRNG.raw + fuzzer payloads
# ---------------------------------------------------------------------------
def test_seededrng_raw_matches_random_stream():
    raw = SeededRNG.raw(0xDEAD)
    reference = random.Random(0xDEAD)
    assert [raw.getrandbits(8) for _ in range(64)] == [
        reference.getrandbits(8) for _ in range(64)
    ]


def test_fuzzer_payload_byte_compatibility():
    # Digests pinned before _payload was routed through SeededRNG.raw:
    # the historical random.Random(seed ^ 0x5EED) draw sequence.
    pinned = {
        (256, 7): "d41729f10da9a554016243c88ca8b3e9970be773bcd42da62a0862b0407121fd",
        (64, 0): "5d0286759c4f9e79510acf95f2deff5af59942f4ccdccc70c4a78b91fc9102a9",
        (1024, 123456): "ae00e4be8e6d0609be46e1466289949c49dc27c5597ca2084b8bbb6ae45e6056",
    }
    for (size, seed), digest in pinned.items():
        assert hashlib.sha256(_payload(size, seed)).hexdigest() == digest
