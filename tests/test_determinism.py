"""Determinism: a run is a pure function of its seed.

This is what makes every number in EXPERIMENTS.md reproducible and
every bug report replayable: same seed → byte-identical packet trace.
"""

import pytest

from repro.net.trace import PacketTrace

from conftest import make_multipath, make_tcp_pair, mptcp_transfer, random_payload, tcp_transfer


def trace_signature(trace: PacketTrace) -> list[tuple]:
    return [
        (
            round(record.time, 9),
            record.path_name,
            record.direction,
            record.segment.seq,
            record.segment.ack,
            record.segment.flags,
            len(record.segment.payload),
        )
        for record in trace.records
    ]


def run_tcp_once(seed: int):
    net, client, server = make_tcp_pair(seed=seed, loss=0.02)
    trace = PacketTrace.attach_all(net)
    payload = random_payload(120_000, seed=1)
    result = tcp_transfer(net, client, server, payload, duration=60)
    return trace_signature(trace), bytes(result.received)


def run_mptcp_once(seed: int):
    net, client, server = make_multipath(seed=seed)
    trace = PacketTrace.attach_all(net)
    payload = random_payload(120_000, seed=1)
    result = mptcp_transfer(net, client, server, payload, duration=60)
    return trace_signature(trace), bytes(result.received)


class TestDeterminism:
    def test_tcp_identical_across_runs(self):
        first = run_tcp_once(seed=11)
        second = run_tcp_once(seed=11)
        assert first == second

    def test_tcp_seed_changes_trace(self):
        a, _ = run_tcp_once(seed=11)
        b, _ = run_tcp_once(seed=12)
        assert a != b  # ISNs, loss pattern differ

    def test_mptcp_identical_across_runs(self):
        first = run_mptcp_once(seed=21)
        second = run_mptcp_once(seed=21)
        assert first == second

    def test_mptcp_seed_changes_keys(self):
        net1, c1, s1 = make_multipath(seed=31)
        net2, c2, s2 = make_multipath(seed=32)
        from repro.mptcp.api import connect, listen
        from repro.net.packet import Endpoint

        listen(s1, 80)
        listen(s2, 80)
        conn1 = connect(c1, Endpoint("10.9.0.1", 80))
        conn2 = connect(c2, Endpoint("10.9.0.1", 80))
        assert conn1.local_key != conn2.local_key

    def test_experiment_result_stable(self):
        """A whole experiment harness reproduces exactly."""
        from repro.experiments.fig9 import run_fig9

        a = run_fig9(buffers_kb=(100,), duration=6.0)
        b = run_fig9(buffers_kb=(100,), duration=6.0)
        assert a.rows == b.rows

    def test_study_outcomes_stable(self):
        from repro.experiments.table_study import run_table_study

        a = run_table_study(port80=False, include_strawman=False)
        b = run_table_study(port80=False, include_strawman=False)
        assert a.rows == b.rows
