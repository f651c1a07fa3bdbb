"""Deterministic fault injection: same seed ⇒ same schedule, byte for byte,
whether the scenario runs in this process or in sweep workers.

The replayability guarantee is what makes a fuzzer failure a one-line
repro: every fault draws from its own :class:`SeededRNG`, so the whole
packet-level schedule is a pure function of the scenario seed."""

import hashlib

import pytest

from repro.experiments.runner import Point, run_parallel
from repro.net.faults import (
    Corrupter,
    Duplicator,
    GilbertElliottLoss,
    LinkFlap,
    Reorderer,
)
from repro.net.trace import PacketTrace
from repro.sim.rng import SeededRNG

from conftest import make_tcp_pair, random_payload, tcp_transfer


def _faulty_run(seed: int) -> dict:
    """One TCP transfer through a stack of every fault, fingerprinted.

    Module-level (picklable) so the sweep engine can ship it to worker
    processes; the return value's repr is byte-exact for comparison."""
    elements = [
        LinkFlap(seed=seed, up_mean=1.5, down_mean=0.02),
        GilbertElliottLoss(
            seed=seed + 1, p_enter_bad=0.004, p_exit_bad=0.3, loss_bad=0.8
        ),
        Reorderer(seed=seed + 2, probability=0.04, depth=3),
        Duplicator(probability=0.02, rng=SeededRNG(seed + 3, "dup")),
        Corrupter(seed=seed + 4, probability=0.003),
    ]
    net, client, server = make_tcp_pair(seed=seed, elements=elements)
    trace = PacketTrace.attach_all(net)
    payload = random_payload(80_000, seed=seed)
    result = tcp_transfer(net, client, server, payload, duration=240)
    schedule = hashlib.sha256(
        "\n".join(record.format() for record in trace.records).encode()
    ).hexdigest()
    return dict(
        schedule=schedule,
        segments=len(trace.records),
        received=hashlib.sha256(bytes(result.received)).hexdigest(),
        received_bytes=len(result.received),
        completed_at=result.completed_at,
        flap_transitions=elements[0].transitions,
        flap_dropped=elements[0].dropped,
        ge_dropped=elements[1].dropped,
        reordered=elements[2].reordered,
        duplicated=elements[3].duplicated,
        corrupted=elements[4].corrupted,
    )


class TestPerSeedDeterminism:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_two_runs_byte_identical(self, seed):
        first = _faulty_run(seed)
        second = _faulty_run(seed)
        assert repr(first) == repr(second)

    def test_different_seeds_give_different_schedules(self):
        assert _faulty_run(3)["schedule"] != _faulty_run(4)["schedule"]


class TestParallelFaultReplay:
    def test_workers_reproduce_serial_schedule_exactly(self, monkeypatch):
        """REPRO_WORKERS>1 must merge to the identical fault schedule the
        serial run produces — no cross-process nondeterminism."""
        points = [Point(_faulty_run, {"seed": seed}) for seed in (11, 12, 13)]
        serial = run_parallel("faults-serial", points, workers=1)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        parallel = run_parallel("faults-parallel", points)  # workers from env
        assert parallel.perf.workers == 3
        assert repr(serial.values) == repr(parallel.values)


class TestScenarioFuzzer:
    def test_random_scenarios_replay_identically(self):
        from repro.check.fuzzer import random_scenario, run_scenario

        spec = random_scenario(5)
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert not first.failed and not second.failed
        assert (first.completed, first.received_bytes) == (
            second.completed,
            second.received_bytes,
        )

    def test_summary_counts_incomplete_scenarios(self, tmp_path, capsys):
        """Seed 447 stalls at 36,200 of 65,536 bytes behind a late forward
        option stripper: the summary counts it, the exit status does not."""
        from repro.check import fuzzer

        assert fuzzer.main(["--seeds", "447", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "1 scenarios, 0 failures, 1 incomplete\n"

    @pytest.mark.parametrize("seeds", ["5:2", "3:3", "abc", "1:x", ",", ""])
    def test_garbage_seeds_are_a_usage_error(self, seeds, tmp_path, capsys):
        """A reversed or empty range would run zero scenarios and pass."""
        from repro.check import fuzzer

        with pytest.raises(SystemExit) as exit_info:
            fuzzer.main(["--seeds", seeds, "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_specs_have_eval_able_reprs(self):
        from repro.check import fuzzer

        spec = fuzzer.random_scenario(17)
        clone = eval(repr(spec), {"ScenarioSpec": fuzzer.ScenarioSpec})
        assert clone == spec


@pytest.mark.parametrize(
    "element",
    [
        LinkFlap(seed=5, up_mean=0.1, down_mean=0.04),
        GilbertElliottLoss(seed=9, p_enter_bad=0.05, p_exit_bad=0.3, loss_bad=0.8),
        Reorderer(seed=2, probability=0.2, depth=3),
        Corrupter(seed=3, probability=0.5, active_after=1.5),
    ],
    ids=lambda element: type(element).__name__,
)
def test_fault_repr_rebuilds_the_element(element):
    from repro.check.fuzzer import ELEMENT_NAMESPACE

    clone = eval(repr(element), dict(ELEMENT_NAMESPACE))
    assert type(clone) is type(element) and repr(clone) == repr(element)


def test_only_the_reorderer_acts_on_the_reverse_direction():
    from types import SimpleNamespace

    from repro.net.packet import ACK, Endpoint, Segment
    from repro.net.path import REVERSE
    from repro.sim import Simulator

    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()  # past Corrupter's active_after
    certain = [
        GilbertElliottLoss(seed=1, p_enter_bad=1.0, loss_bad=1.0),
        Corrupter(seed=1, probability=1.0),
        Reorderer(seed=1, probability=1.0, depth=3),
    ]
    for element in certain:
        element.path = SimpleNamespace(sim=sim)
    segment = Segment(Endpoint("10.9.0.1", 80), Endpoint("10.0.0.1", 5000),
                      flags=ACK, payload=b"reply")
    ge, corrupter, reorderer = certain
    assert ge.process(segment, REVERSE) == [(segment, REVERSE)] and ge.dropped == 0
    assert corrupter.process(segment, REVERSE) == [(segment, REVERSE)]
    assert bytes(segment.payload) == b"reply" and corrupter.corrupted == 0
    assert reorderer.process(segment, REVERSE) == [] and reorderer.reordered == 1


class TestFaultBehaviour:
    def test_linkflap_drops_while_down_and_recovers(self):
        flap = LinkFlap(seed=5, up_mean=0.1, down_mean=0.04)
        net, client, server = make_tcp_pair(seed=5, elements=[flap])
        payload = random_payload(200_000, seed=5)
        result = tcp_transfer(net, client, server, payload, duration=240)
        assert bytes(result.received) == payload
        assert flap.transitions > 0 and flap.dropped > 0

    def test_gilbert_elliott_losses_cluster_but_never_corrupt(self):
        ge = GilbertElliottLoss(
            seed=9, p_enter_bad=0.05, p_exit_bad=0.25, loss_bad=0.9
        )
        net, client, server = make_tcp_pair(seed=9, elements=[ge])
        payload = random_payload(150_000, seed=9)
        result = tcp_transfer(net, client, server, payload, duration=240)
        assert bytes(result.received) == payload
        assert ge.bursts > 0
        # Bursty by construction: more drops than entered bursts means
        # consecutive losses happened inside bad states.
        assert ge.dropped > ge.bursts

    def test_reorderer_preserves_content(self):
        reorderer = Reorderer(seed=2, probability=0.2, depth=3)
        net, client, server = make_tcp_pair(seed=2, elements=[reorderer])
        payload = random_payload(100_000, seed=2)
        result = tcp_transfer(net, client, server, payload, duration=240)
        assert bytes(result.received) == payload
        assert reorderer.reordered > 0

    def test_corrupter_damages_plain_tcp_silently(self):
        """The simulated TCP has no checksum: a bit flip is delivered.
        (The MPTCP DSS checksum catching this is asserted in
        test_fuzz_endtoend.py — this is the control condition.)"""
        corrupter = Corrupter(seed=3, probability=1.0)
        net, client, server = make_tcp_pair(seed=3, elements=[corrupter])
        payload = random_payload(40_000, seed=3)
        result = tcp_transfer(net, client, server, payload, duration=120)
        assert len(result.received) == len(payload)
        assert bytes(result.received) != payload
        assert corrupter.corrupted > 0
