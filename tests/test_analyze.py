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

from repro.analyze import ALL_RULES, run_analysis
from repro.analyze.cli import main as analyze_main
from repro.analyze.core import iter_python_files
from repro.analyze.rules import Fsm01SingleWriter
from repro.check.fuzzer import _payload
from repro.sim.rng import SeededRNG

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analyze"


def findings_for(fixture: str, *rules: str):
    report = run_analysis([FIXTURES / f"{fixture}.py"], rule_codes=list(rules) or None)
    assert not report.parse_errors
    return report


def locations(report):
    """(line, rule) of every finding the report lists (its JSON form,
    what CI uploads)."""
    return [(f["line"], f["rule"]) for f in report.as_dict()["findings"]]


# ---------------------------------------------------------------------------
# Per-rule fixtures: exact line/rule findings, negatives implied by exactness.
# Each fixture keeps one ``# analyze: ok(RULE)`` comment on a violating
# line: a comment cannot waive, so that line is a live finding.
# ---------------------------------------------------------------------------
def test_det01_entropy_fixture():
    report = findings_for("det01", "DET01")
    assert locations(report) == [(4, "DET01"), (5, "DET01"), (9, "DET01"), (12, "DET01")]


def test_det02_wallclock_fixture():
    report = findings_for("det02", "DET02")
    assert locations(report) == [(4, "DET02"), (9, "DET02"), (13, "DET02"), (17, "DET02")]


def test_det03_unordered_iteration_fixture():
    report = findings_for("det03", "DET03")
    # kick_dict and report (dict order is insertion order), kick_sorted
    # (sorted set) and kick_annotated's list values annotated ``set``
    # stay clean.
    assert locations(report) == [(10, "DET03"), (15, "DET03"), (27, "DET03"), (42, "DET03")]


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
    assert locations(report) == [(8, "DET03"), (9, "DET03"), (10, "DET03")]


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
    assert locations(report) == [(3, "DET03")]


def test_det03_exempts_only_the_analyzer():
    (det03,) = [rule for rule in ALL_RULES if rule.code == "DET03"]
    assert det03.allow == ("repro/analyze/",)


def test_exc01_silent_except_fixture():
    report = findings_for("exc01", "EXC01")
    # records() uses the binding and reraises() re-raises: both clean.
    assert locations(report) == [(11, "EXC01"), (18, "EXC01"), (40, "EXC01")]


def test_fixture_findings_name_the_fixture_file():
    report = findings_for("det01", "DET01")
    assert all(f.path.endswith("tests/fixtures/analyze/det01.py") for f in report.findings)


def test_rule_selection_restricts_findings():
    report = findings_for("det01", "EXC01")
    assert report.findings == []
    assert report.rules == ["EXC01"]


# One violating source per rule.  VIOLATION_LINE is the line of its
# finding once a one-line header comment precedes the source.
VIOLATIONS = {
    "DET01": "import random\n",
    "DET02": "import time\nNOW = time.time()\n",
    "DET03": "def walk():\n    for peer in {1, 2}:\n        print(peer)\n",
    "EXC01": "try:\n    pass\nexcept Exception:\n    pass\n",
}
VIOLATION_LINE = {"DET01": 2, "DET02": 3, "DET03": 3, "EXC01": 4}


@pytest.mark.parametrize("rule", sorted(VIOLATIONS))
def test_file_ok_comment_exempts_nothing(tmp_path, rule):
    source = tmp_path / "leftover.py"
    source.write_text(f"# analyze: file-ok({rule}): a comment cannot waive\n" + VIOLATIONS[rule])
    assert locations(run_analysis([source], rule_codes=[rule])) == [(VIOLATION_LINE[rule], rule)]


@pytest.mark.parametrize("rule", sorted(VIOLATIONS))
def test_inline_ok_comment_exempts_nothing(tmp_path, rule):
    lines = ("# header\n" + VIOLATIONS[rule]).splitlines()
    line = VIOLATION_LINE[rule]
    lines[line - 1] += f"  # analyze: ok({rule}): a comment cannot waive"
    source = tmp_path / "inline.py"
    source.write_text("\n".join(lines) + "\n")
    assert locations(run_analysis([source], rule_codes=[rule])) == [(line, rule)]


def test_waiver_in_string_literal_does_not_waive(tmp_path):
    source = tmp_path / "literal.py"
    source.write_text(
        'NOTE = "# analyze: ok(DET02)"\n'
        "import time\n"
        "STAMP = time.time()  # line 3: DET02\n"
    )
    assert locations(run_analysis([source], rule_codes=["DET02"])) == [(3, "DET02")]


# (rule, a path its allow list exempts, a source that violates the rule)
ALLOWED = [
    ("DET01", "repro/sim/rng.py", "import random\n"),
    ("DET02", "repro/stats/wallclock.py", "import time\nNOW = time.time()\n"),
    ("DET02", "repro/analyze/timing.py", "import time\nNOW = time.time()\n"),
    ("DET03", "repro/analyze/walk.py", "def walk():\n    for peer in {1, 2}:\n        print(peer)\n"),
]


@pytest.mark.parametrize("rule, allowed, text", ALLOWED)
def test_allow_list_is_the_only_exemption(tmp_path, rule, allowed, text):
    exempt = tmp_path / allowed
    exempt.parent.mkdir(parents=True)
    exempt.write_text(text)
    elsewhere = tmp_path / "repro" / "elsewhere.py"
    elsewhere.write_text(text)
    report = run_analysis([exempt, elsewhere], rule_codes=[rule])
    assert report.files_scanned == 2
    assert {Path(f.path).name for f in report.findings} == {"elsewhere.py"}


def test_findings_are_sorted_by_location(tmp_path):
    report = run_analysis([FIXTURES])
    keys = [(f.path, f.line, f.col, f.rule) for f in report.findings]
    assert keys == sorted(keys)
    assert len({f.path for f in report.findings}) > 1


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
        (12, "DET01"),
    ]
    assert "waived" not in ondisk and "budget" not in ondisk


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


def test_cli_exit_one_on_a_commented_violation(tmp_path, capsys):
    # What a waiver comment once excused now fails the lint.
    source = tmp_path / "commented.py"
    source.write_text("import random  # analyze: ok(DET01): a comment cannot waive\n")
    assert analyze_main(["--rule", "DET01", str(source)]) == 1
    assert "1 finding(s)" in capsys.readouterr().out


def test_json_report_keys(tmp_path, capsys):
    assert analyze_main(["--format", "json", str(FIXTURES / "det01.py")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "clean",
        "files_scanned",
        "elapsed_seconds",
        "rule_seconds",
        "rules",
        "parse_errors",
        "findings",
    }
    assert all(set(f) == {"path", "line", "col", "rule", "message"} for f in report["findings"])


@pytest.mark.parametrize("code", ["NOPE", "DOM01", "WVR01"])
def test_cli_exit_two_on_unknown_rule(capsys, code):
    # DOM01 and WVR01 were deleted: a script still naming them fails loudly.
    assert analyze_main(["--rule", code, str(FIXTURES / "det01.py")]) == 2
    assert "unknown rule" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--budget", "--show-waived"])
def test_cli_deleted_flags_are_usage_errors(capsys, flag):
    # The HOT01/CPX01 budget ratchet went with its rules, and there are
    # no waived findings left to show.
    with pytest.raises(SystemExit) as exit_info:
        analyze_main([flag, str(FIXTURES / "det01.py")])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert analyze_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    codes = [line.split()[0] for line in out.splitlines() if not line.startswith(" ")]
    assert codes == ["DET01", "DET02", "DET03", "EXC01", "FSM01"]


def test_cli_list_rules_shows_every_allow_list(capsys):
    assert analyze_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        if rule.allow:
            assert f"allowlist: {', '.join(rule.allow)}" in out, rule.code


# ---------------------------------------------------------------------------
# FSM01: one writer per state machine
# ---------------------------------------------------------------------------
DOOR_MACHINE = (("fixtures/analyze/fsm01.py", "tests.fixtures.analyze.fsm01.DoorState", "state"),)


def test_fsm01_door_fixture():
    rule = Fsm01SingleWriter(machines=DOOR_MACHINE)
    report = run_analysis(
        [FIXTURES / "fsm01.py", FIXTURES / "fsm01_foreign.py"], rules=[rule]
    )
    assert not report.parse_errors
    # __init__'s initial state, _set_state's store and the setter's
    # callers (open, lock) stay clean.
    assert [(Path(f["path"]).name, f["line"]) for f in report.as_dict()["findings"]] == [
        ("fsm01.py", 39),  # direct write of a member, bypassing _set_state
        ("fsm01.py", 42),  # direct write of an arbitrary value
        ("fsm01.py", 45),  # write inside a tuple target
        ("fsm01.py", 48),  # a comment cannot waive
        ("fsm01_foreign.py", 7),  # foreign-layer write
        ("fsm01_foreign.py", 16),  # foreign write of an imported member constant
    ]
    foreign = [f.message for f in report.findings if f.path.endswith("fsm01_foreign.py")]
    assert "DoorState.BROKEN" in foreign[0] and "DoorState.LOCKED" in foreign[1]


def test_fsm01_real_machines_name_their_owners():
    """The two shipped machines: each owner file has a ``_set_state``
    that checks the module's ``TRANSITIONS`` table."""
    owners = {owner for owner, _, _ in Fsm01SingleWriter().machines}
    assert owners == {"repro/tcp/socket.py", "repro/mptcp/connection.py"}
    for owner in owners:
        source = (REPO_ROOT / "src" / owner).read_text()
        assert "def _set_state(" in source and "not in TRANSITIONS" in source, owner


# ---------------------------------------------------------------------------
# Engine: wall-time reporting
# ---------------------------------------------------------------------------
def test_report_carries_elapsed_seconds():
    report = findings_for("det01", "DET01")
    assert report.elapsed_seconds > 0
    assert "elapsed_seconds" in report.as_dict()


def test_json_report_times_every_selected_rule(capsys):
    selected = ["DET02", "DET03", "FSM01"]
    argv = [arg for code in selected for arg in ("--rule", code)]
    assert analyze_main(argv + ["--format", "json", str(FIXTURES)]) == 1
    seconds = json.loads(capsys.readouterr().out)["rule_seconds"]
    assert list(seconds) == selected
    assert all(isinstance(t, float) and t >= 0 for t in seconds.values())


# ---------------------------------------------------------------------------
# The meta-test: the repo obeys its own linter
# ---------------------------------------------------------------------------
def test_repo_tree_is_clean():
    # src/ and examples/: CI's lint inputs.
    report = run_analysis([REPO_ROOT / "src", REPO_ROOT / "examples"])
    assert report.parse_errors == []
    assert report.findings == [], "\n".join(f.format() for f in report.findings)


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
