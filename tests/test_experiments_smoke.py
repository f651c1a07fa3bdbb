"""Smoke tests: every figure of the ``run_all`` registry runs end-to-end
at its reduced (``smoke=True``) scale and reports the same claims as the
full-scale run.  Whether the claims *pass* is gated at full scale by
``python -m repro.experiments.run_all``."""

import functools

import pytest

from repro.experiments import fig7, fig10, run_all, table_study
from repro.experiments.common import ExperimentResult

# The claim names each figure reports at full scale.
FULL_SCALE_CLAIMS = {
    "study": {"tcp_always_works", "mptcp_always_works", "strawman_breaks_about_a_third"},
    "fig3": {"goodput_rises_with_mss", "jumbo_penalty_20_to_40pct", "small_penalty_at_1448"},
    "fig4": {
        "regular_dips_below_tcp_wifi",
        "m1_beats_regular_midrange",
        "m12_matches_tcp_wifi",
        "m12_aggregates_at_large_buffers",
        "m1_wastes_about_the_3g_rate",
        "m12_removes_the_waste",
    },
    "fig5": {"capping_halves_memory", "tcp_wifi_lowest", "mptcp_uses_more_than_tcp"},
    "fig6": {
        "panel_a_big_gain_small_buffers",
        "panel_b_regular_collapses",
        "panel_b_m12_robust",
        "panel_c_equal",
    },
    "fig7": {
        "m12_avoids_regular_tail",
        "m12_mean_below_regular",
        "tcp_wifi_latency_comparable_to_m12",
    },
    "fig8": {
        "shortcuts_beat_regular_2sf",
        "tree_beats_regular_2sf",
        "shortcuts_beat_regular_8sf",
        "tree_beats_regular_8sf",
        "shortcut_hit_rate_high",
    },
    "fig9": {
        "mptcp_never_underperforms",
        "mptcp_near_double_at_large_buffer",
        "mptcp_25pct_better_at_100kb",
        "mptcp_worked_through_nat",
    },
    "fig10": {"tcp_fastest", "table_growth_costs"},
    "fig11": {
        "small_files_favor_tcp",
        "mptcp_doubles_tcp_large",
        "bonding_strong_small",
        "mptcp_matches_bonding_large",
    },
}


@functools.lru_cache(maxsize=None)
def smoke(name: str) -> list[ExperimentResult]:
    return run_all.FIGURES[name].run(smoke=True)


def test_every_figure_has_its_claim_names():
    assert list(FULL_SCALE_CLAIMS) == list(run_all.FIGURES)


@pytest.mark.parametrize("name", list(run_all.FIGURES))
def test_smoke_run_reports_full_scale_claims(name):
    results = smoke(name)
    for result in results:
        assert result.rows
        assert result.format_table().startswith(f"== {result.name} ==")
    claims = run_all.FIGURES[name].check_claims(results)
    assert set(claims) == FULL_SCALE_CLAIMS[name]
    assert all(type(ok) is bool for ok in claims.values())


def test_fig3_transfers_complete():
    (result,) = smoke("fig3")
    assert all(row["transfer_ok"] for row in result.rows)


def test_fig5_memory_accounting():
    (result,) = smoke("fig5")
    for row in result.rows:
        assert row["sender_memory_kb"] >= 0
        assert row["receiver_memory_kb"] >= 0
    assert any(r["sender_memory_kb"] > 0 for r in result.rows if r["variant"].startswith("mptcp"))


def test_fig7_latency_pdfs():
    (result,) = smoke("fig7")
    assert set(result.notes["pdfs"]) == {"tcp-wifi", "tcp-3g", "mptcp-regular", "mptcp-m12"}


def test_fig7_missing_variant_raises():
    result = ExperimentResult("fig7 without regular MPTCP")
    for variant in ("tcp-wifi", "mptcp-m12"):
        result.add(variant=variant, blocks=1, mean_ms=1.0, p95_ms=1.0)
    with pytest.raises(KeyError):
        fig7.check_claims([result])


def test_fig10_token_compares_are_deterministic(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "1")
    first, second = (fig10.run_fig10(attempts=50) for _ in range(2))
    assert first.column("token_compares") == second.column("token_compares")
    compares = dict(zip(first.column("variant"), first.column("token_compares")))
    assert compares["tcp"] == 0
    assert compares["mptcp"] < compares["mptcp-100conn"] < compares["mptcp-1000conn"]


def test_study_format_table_renders_without_strawman():
    result = table_study.run_table_study(port80=False, include_strawman=False)
    assert "MPTCP completed" in result.format_table()


class TestRunAllGate:
    @pytest.fixture
    def fake_fig3(self, monkeypatch):
        module = run_all.FIGURES["fig3"]
        verdicts = {"holds": True}
        monkeypatch.setattr(module, "run", lambda smoke=False: [ExperimentResult("demo")])
        monkeypatch.setattr(module, "check_claims", lambda results: dict(verdicts))
        return verdicts

    def test_exits_zero_when_every_claim_passes(self, fake_fig3, capsys):
        assert run_all.main(["fig3"]) == 0
        assert "claim holds: PASS" in capsys.readouterr().out

    def test_exits_one_on_a_failed_claim(self, fake_fig3, tmp_path, capsys):
        fake_fig3["broken"] = False
        out = tmp_path / "claims.md"
        assert run_all.main(["fig3", "--out", str(out)]) == 1
        assert "claim broken: FAIL" in capsys.readouterr().out
        assert "fig3:broken" in out.read_text()

    def test_unknown_figure_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            run_all.main(["fig99"])
