"""§3 — the middlebox study table (both port columns) and the
deployability headline: MPTCP completes everywhere; the strawman breaks
on about a third of paths."""

import pytest

from repro.experiments.table_study import check_claims, run_table_study

from conftest import run_once, show


@pytest.mark.parametrize("port80", [False, True], ids=["other-ports", "port-80"])
def test_study_table(benchmark, port80):
    result = run_once(benchmark, run_table_study, port80=port80)
    claims = check_claims(result)
    show(result, f"claims: {claims}")
    assert claims["tcp_always_works"]
    assert claims["mptcp_always_works"]
    assert claims["strawman_breaks_about_a_third"]
