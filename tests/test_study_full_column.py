"""The full §3 study table, both columns of 142 paths: verifies
aggregate outcome percentages, not just per-class behaviour.

The same rows `python -m repro.experiments.run_all study` prints; each
column is 12-13 distinct path signatures, so the whole table is a
second's worth of microsimulations.
"""

import pytest

from repro.experiments.table_study import check_claims, run_table_study


@pytest.fixture(scope="module", params=[False, True], ids=["other-ports", "port-80"])
def column(request):
    return run_table_study(port80=request.param)


class TestStudyColumn:
    def test_tcp_100pct(self, column):
        by_metric = {row["metric"]: row for row in column.rows}
        assert by_metric["TCP completed"]["measured_pct"] == 100.0

    def test_mptcp_100pct(self, column):
        by_metric = {row["metric"]: row for row in column.rows}
        assert by_metric["MPTCP completed"]["measured_pct"] == 100.0

    def test_multipath_majority(self, column):
        by_metric = {row["metric"]: row for row in column.rows}
        assert by_metric["MPTCP used multipath"]["measured_pct"] >= 80.0

    def test_fallback_rate_tracks_strippers(self, column):
        by_metric = {row["metric"]: row for row in column.rows}
        fell_back = by_metric["MPTCP fell back to TCP"]["measured_pct"]
        # Option stripping is the only behaviour that forces fallback.
        stripped = by_metric["paths with strip_syn_options"]["measured_pct"]
        assert fell_back == stripped

    def test_strawman_breakage_about_a_third(self, column):
        claims = check_claims([column])
        assert claims["strawman_breaks_about_a_third"]

    def test_multipath_plus_fallback_covers_everything(self, column):
        by_metric = {row["metric"]: row for row in column.rows}
        multipath = by_metric["MPTCP used multipath"]["measured_pct"]
        fallback = by_metric["MPTCP fell back to TCP"]["measured_pct"]
        assert multipath + fallback == pytest.approx(100.0, abs=0.1)
