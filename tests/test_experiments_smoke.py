"""Smoke tests: every figure harness runs end-to-end with reduced
parameters and produces sensible rows.  The full-scale runs live under
``benchmarks/``."""

import pytest

from repro.experiments import fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11
from repro.experiments import table_study


class TestFig3:
    def test_runs_and_shows_checksum_penalty(self):
        result = fig3.run_fig3(mss_sweep=(1448, 8500), transfer_bytes=256 * 1024)
        assert len(result.rows) == 4
        assert all(row["transfer_ok"] for row in result.rows)
        off = dict(result.series("mss", "goodput_gbps", checksum="off"))
        on = dict(result.series("mss", "goodput_gbps", checksum="on"))
        assert on[8500] < off[8500]  # the jumbo penalty
        assert off[8500] > off[1448]  # amortized per-packet costs


class TestFig4:
    def test_runs_one_buffer_point(self):
        result = fig4.run_fig4(buffers_kb=(200,), duration=8.0)
        variants = {row["variant"] for row in result.rows}
        assert variants == {"tcp-wifi", "tcp-3g", "mptcp-regular", "mptcp-m1", "mptcp-m12"}
        for row in result.rows:
            assert row["goodput_mbps"] >= 0


class TestFig5:
    def test_memory_accounting_rows(self):
        result = fig5.run_fig5(buffers_kb=(200,), duration=8.0)
        for row in result.rows:
            assert row["sender_memory_kb"] >= 0
            assert row["receiver_memory_kb"] >= 0
        mptcp_rows = [r for r in result.rows if r["variant"].startswith("mptcp")]
        assert any(r["sender_memory_kb"] > 0 for r in mptcp_rows)


class TestFig6:
    def test_panel_a_gain(self):
        result = fig6.run_panel_a(buffers_kb=(200,), duration=15.0)
        regular = dict(result.series("buffer_kb", "goodput_mbps", variant="mptcp-regular"))
        m12 = dict(result.series("buffer_kb", "goodput_mbps", variant="mptcp-m12"))
        assert m12[200] > regular[200]

    def test_panel_c_symmetry(self):
        result = fig6.run_panel_c(buffers_kb=(256,), duration=6.0)
        regular = dict(result.series("buffer_kb", "goodput_mbps", variant="mptcp-regular"))
        m12 = dict(result.series("buffer_kb", "goodput_mbps", variant="mptcp-m12"))
        assert m12[256] >= 0.7 * regular[256]


class TestFig7:
    def test_latency_pdfs(self):
        result = fig7.run_fig7(duration=10.0)
        rows = {row["variant"]: row for row in result.rows if row.get("blocks")}
        assert "mptcp-m12" in rows and "tcp-wifi" in rows
        assert rows["mptcp-m12"]["p50_ms"] > 0
        assert "pdfs" in result.notes


class TestFig8:
    def test_algorithm_ordering(self):
        result = fig8.run_fig8(subflow_counts=(2,), duration=3.0)
        utils = {row["algorithm"]: row["utilization_pct"] for row in result.rows}
        assert utils["allshortcuts"] <= utils["regular"]
        assert result.notes["tcp_baseline_pct"] > 0


class TestFig9:
    def test_mptcp_wins_with_buffer(self):
        result = fig9.run_fig9(buffers_kb=(100, 500), duration=12.0)
        mptcp = dict(result.series("buffer_kb", "goodput_mbps", variant="mptcp"))
        wifi = dict(result.series("buffer_kb", "goodput_mbps", variant="tcp-wifi"))
        assert mptcp[500] > wifi[500]


class TestFig10:
    def test_setup_latency_ordering(self):
        result = fig10.run_fig10(attempts=300)
        medians = {row["variant"]: row["p50_us"] for row in result.rows}
        assert medians["tcp"] < medians["mptcp"]


class TestFig11:
    def test_crossover_shape(self):
        result = fig11.run_fig11(sizes_kb=(4, 200), concurrency=30, duration=4.0)
        rows = {row["size_kb"]: row for row in result.rows}
        assert rows[4]["tcp_rps"] > rows[4]["mptcp_rps"]
        assert rows[200]["mptcp_rps"] > 1.5 * rows[200]["tcp_rps"]


class TestStudyTable:
    def test_full_study(self):
        result = table_study.run_table_study(port80=False)
        metrics = {row["metric"]: row for row in result.rows}
        assert metrics["TCP completed"]["measured_pct"] == 100.0
        assert metrics["MPTCP completed"]["measured_pct"] == 100.0

    def test_format_table_renders(self):
        result = table_study.run_table_study(port80=False, include_strawman=False)
        text = result.format_table()
        assert "MPTCP completed" in text
