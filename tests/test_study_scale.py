"""The scale driver: the paper-2011 preset must reproduce the 142-path
study's conclusions, MPTCP must never do worse than TCP, the report
must be byte-deterministic, and the interval estimates must be sane."""

import json

import pytest

from repro.study.scale import (
    counter_digest,
    main,
    render_report,
    run_scale_study,
    sample_counts,
    simulate_signatures,
)

SEED = 31


@pytest.fixture(scope="module")
def paper2011():
    """One 142-path run of the sampled paper preset, with the strawman."""
    return run_scale_study("paper2011", paths=142, seed=SEED, include_strawman=True)[0]


@pytest.fixture(scope="module")
def internet2022_400():
    return run_scale_study("internet2022", paths=400, seed=SEED)[0]


@pytest.fixture(scope="module")
def internet2021_250():
    return run_scale_study("internet2021", paths=250, seed=SEED)[0]


@pytest.fixture(scope="module")
def internet2021_300():
    return run_scale_study("internet2021", paths=300, seed=SEED)[0]


class TestPaper2011Golden:
    """The §3 table's conclusions, over sampled rather than enumerated
    paths."""

    def test_tcp_completes_everywhere(self, paper2011):
        report = paper2011
        assert report["outcomes"]["tcp_completed"]["count"] == report["paths"]

    def test_mptcp_completes_everywhere(self, paper2011):
        report = paper2011
        assert report["outcomes"]["mptcp_completed"]["count"] == report["paths"]

    def test_fallback_exactly_on_option_stripped_paths(self, paper2011):
        report = paper2011
        strippers = report["population"]["marginals"]["strip_syn_options"]["count"]
        assert report["outcomes"]["mptcp_fell_back"]["count"] == strippers
        assert (
            report["outcomes"]["mptcp_used_multipath"]["count"]
            == report["paths"] - strippers
        )

    def test_per_signature_semantics(self, paper2011):
        report = paper2011
        for label, entry in report["signatures"].items():
            behaviours = set(label.split("|"))
            stripped = bool(behaviours & {"strip-all-options", "strip-syn-options"})
            assert entry["fallback"] == stripped, label
            assert entry["multipath"] == (not stripped), label
            # The strawman breaks on sequence-space interference
            # ("a third of paths will break such connections").
            if behaviours & {"hole-block", "ack-drop", "ack-correct"}:
                assert not entry["strawman_ok"], label
            if not behaviours - {"clean", "nat", "cmh"} - {
                p for p in behaviours if p.startswith(("cv", "sv", "r"))
            }:
                assert entry["strawman_ok"], label

    def test_fallback_reasons_are_option_stripping(self, paper2011):
        report = paper2011
        assert set(report["fallback_reasons"]) <= {
            "no MP_CAPABLE in SYN/ACK",
            "MPTCP options stripped from first data",
        }

    def test_all_v0_negotiation(self, paper2011):
        report = paper2011
        assert set(report["negotiated"]) <= {"mptcp-v0", "plain-tcp"}


# MPTCP may take at most this multiple of plain TCP's time on any path.
# The worst benefit (TCP time / MPTCP time) measured over 1,000 paths of
# each preset (seed 2026) is 0.81, i.e. 1.23x.
MAX_SLOWDOWN = 1.5


class TestNeverWorseThanTCP:
    """§3.1's deployability bar as a property of every report: wherever
    plain TCP completes, MPTCP completes with byte-verified data, and
    not much slower."""

    @pytest.mark.parametrize(
        "fixture", ["paper2011", "internet2022_400", "internet2021_250", "internet2021_300"]
    )
    def test_mptcp_completes_wherever_tcp_does_and_keeps_up(self, fixture, request):
        report = request.getfixturevalue(fixture)
        histogram = report["aggregation_benefit"]["histogram"]
        # A benefit is recorded only where both transports completed.
        assert sum(histogram.values()) == report["outcomes"]["tcp_completed"]["count"]
        assert min(float(key) for key in histogram) >= 1 / MAX_SLOWDOWN


class TestVersionSplit:
    def test_internet2022_version_mismatch_dominates_fallbacks(self, internet2022_400):
        report = internet2022_400
        reasons = report["fallback_reasons"]
        version_mismatch = sum(
            count for reason, count in reasons.items() if "version" in reason
        )
        middlebox = sum(
            count for reason, count in reasons.items() if "version" not in reason
        )
        assert version_mismatch > middlebox
        assert "mptcp-v1" in report["negotiated"]


class TestDeterminism:
    def test_byte_identical_reports(self, internet2021_250):
        a = internet2021_250
        b, _ = run_scale_study("internet2021", paths=250, seed=SEED)
        assert render_report(a) == render_report(b)
        assert counter_digest(a) == counter_digest(b)

    def test_seed_changes_report(self):
        a, _ = run_scale_study("paper2011", paths=80, seed=1)
        b, _ = run_scale_study("paper2011", paths=80, seed=2)
        assert counter_digest(a) != counter_digest(b)


class TestIntervals:
    def test_bootstrap_cis_bracket_rates(self, paper2011):
        report = paper2011
        for name, entry in report["outcomes"].items():
            lo, hi = entry["ci95"]
            assert 0.0 <= lo <= entry["rate"] <= hi <= 1.0, name

    def test_benefit_histogram_consistency(self, internet2021_300):
        report = internet2021_300
        benefit = report["aggregation_benefit"]
        total = sum(benefit["histogram"].values())
        assert total == report["outcomes"]["mptcp_completed"]["count"]
        assert benefit["mean"] is not None
        lo, hi = benefit["ci95"]
        assert lo <= benefit["mean"] <= hi
        # Multipath paths aggregate: some mass above ratio 1.
        assert any(float(k) > 1.0 for k in benefit["histogram"])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: sample_counts("paper2011", 5, SEED, batch=0, workers=1), "batch"),
        (lambda: simulate_signatures("paper2011", {}, SEED, replicates=0), "replicates"),
    ],
)
def test_counts_below_one_raise_instead_of_clamping(call, name):
    with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
        call()


class TestCLI:
    def test_main_writes_reports(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["--paths", "40", "--spec", "paper2011", "--seed", str(SEED)])
        assert code == 0
        # The report is the one file written; wall-clock numbers are printed.
        assert [p.name for p in tmp_path.iterdir()] == ["STUDY_scale.json"]
        report = json.loads((tmp_path / "STUDY_scale.json").read_text())
        assert report["paths"] == 40
        printed = capsys.readouterr().out
        assert "digest=" in printed and "paths/s=" in printed

    @pytest.mark.parametrize(
        "argv",
        [
            ["--paths", "-3"],
            ["--paths", "0"],
            ["--paths", "x"],
            ["--spec", "bogus"],
            # The bad count comes first (the message names it); a tiny
            # population keeps a run that wrongly goes ahead short.
            ["--workers", "-2", "--paths", "5"],
            ["--replicates", "0", "--paths", "5"],
            ["--replicates", "-1", "--paths", "5"],
            ["--batch", "0", "--paths", "5"],
        ],
    )
    def test_absurd_input_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        """No report is written and no traceback escapes: argparse exits 2."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[0] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_spec_raises(self):
        with pytest.raises(KeyError):
            run_scale_study("nonesuch", paths=10)
