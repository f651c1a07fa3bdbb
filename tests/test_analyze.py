"""The analyzer's own test suite: fixture-driven per-rule checks, CLI
contract (exit codes, JSON report), the repo-wide clean meta-test, and
regressions for the determinism fixes that rode along with the linter
(SeededRNG.raw, fuzzer payload byte-compatibility)."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.analyze import run_analysis
from repro.analyze.callgraph import Project
from repro.analyze.cli import budget_drift
from repro.analyze.cli import main as analyze_main
from repro.analyze.core import (
    default_workers,
    iter_python_files,
    load_context,
    parse_waivers,
)
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
    # kick_sorted (sorted set) and report (not schedule-tainted) stay clean.
    assert locations(report, waived=False) == [(10, "DET03"), (15, "DET03"), (19, "DET03")]
    assert locations(report, waived=True) == [(27, "DET03")]


def test_seq01_raw_arithmetic_fixture():
    report = findings_for("seq01", "SEQ01")
    # fine(seq_space) is excluded by name: lengths are not sequence numbers.
    assert locations(report, waived=False) == [(7, "SEQ01"), (11, "SEQ01"), (19, "SEQ01")]
    assert locations(report, waived=True) == [(22, "SEQ01")]


def test_exc01_silent_except_fixture():
    report = findings_for("exc01", "EXC01")
    # records() uses the binding and reraises() re-raises: both clean.
    assert locations(report, waived=False) == [(11, "EXC01"), (18, "EXC01")]
    assert locations(report, waived=True) == [(40, "EXC01")]


def test_mut01_worker_state_fixture():
    report = findings_for("mut01", "MUT01")
    # helper() is flagged because _execute_point calls it; main_only is not.
    assert locations(report, waived=False) == [(15, "MUT01"), (16, "MUT01"), (23, "MUT01")]
    assert locations(report, waived=True) == [(18, "MUT01")]


def test_shd01_shard_purity_fixture():
    report = findings_for("shd01", "SHD01")
    # Stateful.counted is declared in shard_stats.
    assert locations(report, waived=False) == [
        (21, "SHD01"),
        (22, "SHD01"),
        (24, "SHD01"),
        (29, "SHD01"),
        (34, "SHD01"),
    ]
    assert locations(report, waived=True) == [(44, "SHD01")]


def test_hot01_hot_loop_fixture():
    report = findings_for("hot01", "HOT01")
    # cold() allocates freely: it is never reached from Simulator.run.
    assert locations(report, waived=False) == [
        (19, "HOT01"),
        (26, "HOT01"),
        (27, "HOT01"),
        (32, "HOT01"),
        (33, "HOT01"),
        (39, "HOT01"),
        (40, "HOT01"),
    ]
    assert locations(report, waived=True) == [(45, "HOT01")]


def test_hot01_committed_budget_tolerates_sites():
    from repro.analyze.rules import Hot01HotPathAllocations

    rule = Hot01HotPathAllocations(budget_path=FIXTURES / "hot01_budget.json")
    report = run_analysis([FIXTURES / "hot01.py"], rules=[rule])
    lines = [f.line for f in report.findings if not f.waived]
    # tick's two sites fit its budget of 2; budgeted (2 > 1) still flags
    # every site so fixes stay line-targeted.
    assert 26 not in lines and 27 not in lines
    assert lines.count(39) == 1 and lines.count(40) == 1


def test_cpx01_growth_complexity_fixture():
    report = findings_for("cpx01", "CPX01")
    # tally's plain for-loop (untagged state) and cold() stay clean;
    # dict membership and the bounded tag are exempt by construction.
    assert locations(report, waived=False) == [
        (30, "CPX01"),
        (31, "CPX01"),
        (35, "CPX01"),
        (46, "CPX01"),
        (53, "CPX01"),
        (59, "CPX01"),
    ]
    assert locations(report, waived=True) == [(63, "CPX01")]


def test_cpx01_committed_budget_tolerates_sites():
    from repro.analyze.rules import Cpx01GrowthComplexity

    rule = Cpx01GrowthComplexity(budget_path=FIXTURES / "cpx01_budget.json")
    report = run_analysis([FIXTURES / "cpx01.py"], rules=[rule])
    lines = [f.line for f in report.findings if not f.waived]
    # budgeted's single reduction fits its committed budget of 1; the
    # unbudgeted functions still flag every site.
    assert 59 not in lines
    assert {30, 31, 35, 46, 53} <= set(lines)


def test_cpx01_class_propagates_through_return_summary():
    report = findings_for("cpx01", "CPX01")
    summary = next(f for f in report.findings if f.line == 46)
    # fetch_mappings' "# grows: return=mappings" reaches the caller.
    assert "MAPPINGS" in summary.message


def test_fed01_lookahead_safety_fixture():
    report = findings_for("fed01", "FED01")
    # Positive/non-constant cut delays, delay-carrying schedules,
    # to_wire()-coded sends and StatelessElement all stay clean.
    assert locations(report, waived=False) == [
        (12, "FED01"),
        (13, "FED01"),
        (29, "FED01"),
        (30, "FED01"),
        (35, "FED01"),
        (37, "FED01"),
        (47, "FED01"),
    ]
    assert locations(report, waived=True) == [(48, "FED01")]


def test_fed01_messages_name_the_contract():
    report = findings_for("fed01", "FED01")
    cut = next(f for f in report.findings if f.line == 12)
    assert "lookahead" in cut.message
    codec = next(f for f in report.findings if f.line == 35)
    assert "to_wire" in codec.message


def test_fixture_findings_name_the_fixture_file():
    report = findings_for("det01", "DET01")
    assert all(f.path.endswith("tests/fixtures/analyze/det01.py") for f in report.findings)


def test_rule_selection_restricts_findings():
    report = findings_for("det01", "SEQ01")
    assert report.findings == []
    assert report.rules == ["SEQ01"]


# ---------------------------------------------------------------------------
# Waiver parsing
# ---------------------------------------------------------------------------
def test_waiver_in_string_literal_does_not_waive():
    line_waivers, file_waivers, file_waiver_lines = parse_waivers(
        'text = "# analyze: ok(DET01)"\nvalue = 1  # analyze: ok(SEQ01)\n'
    )
    assert line_waivers == {2: {"SEQ01"}}
    assert file_waivers == set()
    assert file_waiver_lines == {}


def test_file_ok_waiver_covers_every_line():
    line_waivers, file_waivers, file_waiver_lines = parse_waivers(
        "x = 0\n# analyze: file-ok(SEQ01, DET03): module keeps unwrapped units\n"
    )
    assert line_waivers == {}
    assert file_waivers == {"SEQ01", "DET03"}
    assert file_waiver_lines == {"SEQ01": 2, "DET03": 2}


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
    assert report["budget_line"] == "# analyze: budget DET01=3/1"


@pytest.fixture(scope="module")
def src_project():
    """``src/`` parsed once for the budget tests."""
    from repro.analyze.core import _load_contexts

    contexts, parse_errors = _load_contexts(list(iter_python_files([REPO_ROOT / "src"])))
    assert not parse_errors
    return Project(contexts)


@pytest.fixture(scope="module")
def src_report():
    """One full analysis of ``src/``, shared by the meta-tests."""
    return run_analysis([REPO_ROOT / "src"])


def test_hot_budget_ratchet_is_tight(src_project):
    """The committed HOT01 budget must match the measured hot closure:
    no slack entries, no dead entries (``--budget``'s contract)."""
    from repro.analyze import hotpath

    drift = budget_drift(hotpath.load_budget(), hotpath.measure(src_project))
    assert drift == {"slack": {}, "dead": {}, "over": {}}


def test_complexity_budget_ratchet_is_tight(src_project):
    """The committed CPX01 budget must match the measured scan counts:
    no slack entries, no dead entries (``--budget``'s contract)."""
    from repro.analyze import complexity

    drift = budget_drift(complexity.load_budget(), complexity.measure(src_project))
    assert drift == {"slack": {}, "dead": {}, "over": {}}


def test_budget_drift_classifies_entries():
    drift = budget_drift({"a": 2, "b": 1, "gone": 1}, {"a": 1, "b": 3, "c": 1})
    assert drift == {
        "slack": {"a": [2, 1]},
        "dead": {"gone": [1, 0]},
        "over": {"b": [1, 3], "c": [0, 1]},
    }


def test_cli_budget_exit_codes_and_write(tmp_path, monkeypatch, capsys):
    from repro.analyze import complexity, hotpath

    tiny = str(FIXTURES / "det01.py")  # measures nothing in either budget
    # Against the real budgets every committed entry is dead.
    assert analyze_main(["--budget", tiny]) == 1
    assert "HOT01 dead entry:" in capsys.readouterr().out
    for module in (hotpath, complexity):
        path = tmp_path / module.BUDGET_FILENAME
        monkeypatch.setattr(module, "DEFAULT_BUDGET_PATH", path)
        monkeypatch.setattr(module, "load_budget", lambda: {})
    out = tmp_path / "drift.json"
    assert analyze_main(["--budget", "--out", str(out), tiny]) == 0
    assert "budget ratchet: ok" in capsys.readouterr().out
    assert json.loads(out.read_text()) == {
        code: {"slack": {}, "dead": {}, "over": {}} for code in ("HOT01", "CPX01")
    }
    assert analyze_main(["--budget", "--write", tiny]) == 0
    assert (tmp_path / hotpath.BUDGET_FILENAME).read_text() == "{}\n"


def test_cpx01_sees_the_mapping_tables():
    """Every MAPPINGS-class collection the CPX01 docstring names is
    tagged in the real tree.  The scheduler's in-flight table was not
    (neither seed table nor assignment declared it), so the scale linter
    never saw its per-segment rescans."""
    from repro.analyze import complexity
    from repro.analyze.callgraph import Project
    from repro.analyze.core import _load_contexts, iter_python_files

    files = list(iter_python_files([REPO_ROOT / "src" / "repro" / "mptcp"]))
    contexts, parse_errors = _load_contexts(files)
    assert not parse_errors
    tags = complexity._facts(Project(contexts)).attr_class
    for attr in ("inflight", "_by_start", "reinject_queue", "_rx_mappings"):
        assert tags.get(attr) == "MAPPINGS", attr


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


def test_cli_list_rules(capsys):
    assert analyze_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in (
        "DET01",
        "DET02",
        "DET03",
        "SEQ01",
        "EXC01",
        "MUT01",
        "DOM01",
        "FSM01",
        "SHD01",
        "HOT01",
        "CPX01",
        "FED01",
        "WVR01",
    ):
        assert code in out


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
    assert locations(report, waived=False) == [(2, "WVR01"), (9, "WVR01")]
    # the import waiver still suppresses a real DET01 finding: not stale
    assert locations(report, waived=True) == [(4, "DET01")]


def test_wvr01_ignores_waivers_for_inactive_rules():
    report = findings_for("wvr01", "DET01", "WVR01")
    # file-ok(DET02) cannot be judged stale when DET02 did not run.
    assert locations(report, waived=False) == [(9, "WVR01")]


def test_wvr01_repo_has_no_stale_waivers(src_report):
    report = src_report
    stale = [f for f in report.findings if f.rule == "WVR01" and not f.waived]
    assert stale == [], "\n".join(f.format() for f in stale)


# ---------------------------------------------------------------------------
# Callgraph blind spots: lambdas, functools.partial, decorators
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
    _ctx, project = extras_project
    bounce = _fid(project, "bounce")
    assert bounce in project.schedule_tainted  # bounce -> kick -> schedule
    assert _fid(project, "kick") in project.callees[bounce]


def test_callgraph_partial_alias_resolves(extras_project):
    ctx, project = extras_project
    assert project._resolve_name(ctx.posix, "alias") == [_fid(project, "decorated")]


def test_callgraph_partial_worker_entry_unwraps(extras_project):
    _ctx, project = extras_project
    # sweep.add(partial(decorated, sim)) fans out to decorated and below.
    names = {fid.rsplit("::", 1)[1].split(":")[0] for fid in project.worker_reachable}
    assert {"decorated", "bounce", "kick"} <= names


def test_callgraph_decorator_edge(extras_project):
    _ctx, project = extras_project
    traced = _fid(project, "traced")
    assert _fid(project, "decorated") in project.callees[traced]
    # and taint flows back through the decorator edge
    assert traced in project.schedule_tainted


# ---------------------------------------------------------------------------
# Engine: parallel parsing, changed-only mode, wall-time reporting
# ---------------------------------------------------------------------------
def test_report_carries_elapsed_seconds():
    report = findings_for("det01", "DET01")
    assert report.elapsed_seconds > 0
    assert "elapsed_seconds" in report.as_dict()


def test_json_report_times_every_selected_rule(capsys):
    selected = ["DET02", "SHD01", "HOT01", "WVR01"]
    argv = [arg for code in selected for arg in ("--rule", code)]
    assert analyze_main(argv + ["--format", "json", str(FIXTURES)]) == 1
    seconds = json.loads(capsys.readouterr().out)["rule_seconds"]
    assert list(seconds) == selected
    assert all(isinstance(t, float) and t >= 0 for t in seconds.values())


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_WORKERS", "bogus")
    with pytest.raises(ValueError):
        default_workers()


def test_parallel_and_serial_loading_agree(monkeypatch):
    import repro.analyze.core as core

    serial = run_analysis([FIXTURES], workers=1)
    monkeypatch.setattr(core, "_PARALLEL_THRESHOLD", 1)
    parallel = run_analysis([FIXTURES], workers=2)
    strip = lambda r: [f.as_dict() for f in r.findings]  # noqa: E731
    assert strip(parallel) == strip(serial)
    assert parallel.files_scanned == serial.files_scanned


def test_changed_only_scans_only_dirty_files(tmp_path, monkeypatch):
    import subprocess

    def git(*argv):
        subprocess.run(
            ["git", *argv],
            cwd=tmp_path,
            check=True,
            capture_output=True,
            env={
                **__import__("os").environ,
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@t",
            },
        )

    git("init", "-q")
    committed = tmp_path / "committed.py"
    committed.write_text("import random\n")  # DET01, but unchanged
    git("add", "committed.py")
    git("commit", "-qm", "seed")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\n")  # DET01, untracked
    monkeypatch.chdir(tmp_path)

    full = run_analysis([tmp_path], rule_codes=["DET01"])
    changed = run_analysis([tmp_path], rule_codes=["DET01"], changed_only=True)
    assert full.files_scanned == 2
    assert changed.files_scanned == 1
    assert [Path(f.path).name for f in changed.findings] == ["dirty.py"]

    # WVR01 never judges staleness on a partial scan: reachability rules
    # cannot taint anything without the whole project in view.
    stale = tmp_path / "stale.py"
    stale.write_text("x = 1  # analyze: ok(DET03)\n")
    full = run_analysis([tmp_path], rule_codes=["DET03", "WVR01"])
    changed = run_analysis([tmp_path], rule_codes=["DET03", "WVR01"], changed_only=True)
    assert [f.rule for f in full.unwaived] == ["WVR01"]
    assert changed.unwaived == []


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
