"""Process-per-shard federation: mode equivalence and failure paths.

The contract under test: ``Federation.run`` produces the same collected
values whichever driver executes it — forked worker processes, the
in-process merged driver, or a plain serial run — because the window
protocol exchanges identical wire-format messages in identical order
and the merged driver runs every event in one global time order.
"""

import itertools
import os
import signal
import time

import pytest

from repro.net.network import Network
from repro.sim.federation import Federation, FederationResult
from repro.sim.shard import ShardingError
from repro.experiments.shard_bench import CROSS_DELAY_S, build_small, collect_tallies

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="federation process mode needs os.fork"
)

HORIZON = 8.0
SMALL_CONNS = 4 * (3 + 2)  # clusters x (local + cross) in build_small


def _flat(result: FederationResult):
    return sorted(sum(result.shard_values, []))


def test_processes_merged_and_serial_agree(monkeypatch):
    serial = Federation(build_small, shards=1, collect=collect_tallies).run(HORIZON)
    procs = Federation(build_small, shards=4, collect=collect_tallies).run(HORIZON)
    monkeypatch.delattr(os, "fork")  # no fork: the in-process merged driver
    merged = Federation(build_small, shards=4, collect=collect_tallies).run(HORIZON)

    assert (serial.mode, merged.mode, procs.mode) == ("serial", "merged", "processes")
    assert _flat(serial) == _flat(merged) == _flat(procs)
    assert len(_flat(serial)) == SMALL_CONNS
    assert all(row[3] == 6_000 for row in _flat(serial))
    assert procs.shards == merged.shards == 4
    assert procs.events == merged.events == serial.events
    assert procs.windows > 1
    assert merged.windows == serial.windows == 0


def test_collect_values_arrive_in_shard_order():
    result = Federation(build_small, shards=4, collect=collect_tallies).run(HORIZON)
    assert len(result.shard_values) == 4
    for shard, rows in enumerate(result.shard_values):
        # collect_tallies returns only the shard's own servers.
        assert rows, f"shard {shard} collected nothing"
        assert {name for name, *_ in rows} == {f"s{shard}"}
    assert result.values is result.shard_values


def test_two_shard_federation_matches_four():
    two = Federation(build_small, shards=2, collect=collect_tallies).run(HORIZON)
    four = Federation(build_small, shards=4, collect=collect_tallies).run(HORIZON)
    assert _flat(two) == _flat(four)
    assert two.shards == 2 and len(two.shard_values) == 2


def test_default_collector_returns_none_per_shard():
    result = Federation(build_small, shards=2).run(HORIZON)
    assert result.shard_values == [None, None]


def test_worker_error_propagates_to_parent():
    def collect_and_crash(net, shard):
        if shard == 1:
            raise ValueError("deliberate shard-1 failure")
        return "ok"

    federation = Federation(build_small, shards=2, collect=collect_and_crash)
    with pytest.raises(ShardingError, match="deliberate shard-1 failure"):
        federation.run(HORIZON)


def test_builder_error_surfaces_directly():
    def broken_build(net):
        raise RuntimeError("bad topology")

    with pytest.raises(RuntimeError, match="bad topology"):
        Federation(broken_build, shards=2).run(HORIZON)


def _build_small_through_middleboxes(net):
    """``build_small`` with a NAT and a SequenceRewriter on every cross
    path — the cut links once the ring is sharded."""
    from repro.middlebox.nat import NAT
    from repro.middlebox.rewriter import SequenceRewriter

    connect = net.connect
    nat_ips = (f"10.{n}.9.9" for n in itertools.count(1))

    def connect_through_middleboxes(iface_a, iface_b, **kwargs):
        if kwargs["delay"] == CROSS_DELAY_S:
            kwargs["elements"] = [NAT(next(nat_ips)), SequenceRewriter()]
        return connect(iface_a, iface_b, **kwargs)

    net.connect = connect_through_middleboxes
    build_small(net)


def test_cut_elements_run_merged_and_match_serial():
    serial = Federation(
        _build_small_through_middleboxes, shards=1, collect=collect_tallies
    ).run(HORIZON)
    merged = Federation(
        _build_small_through_middleboxes, shards=4, collect=collect_tallies
    ).run(HORIZON)
    # A NAT's flow table lives on the cut path; forked copies would
    # diverge, so the federation runs every shard in one process.
    assert merged.mode == "merged"
    assert _flat(merged) == _flat(serial)
    assert merged.events == serial.events
    rows = _flat(serial)
    assert len(rows) == SMALL_CONNS
    assert all(row[3] == 6_000 for row in rows)
    # Cross-ring connections arrive from the NATs' external addresses.
    assert sum(row[1].endswith(".9.9") for row in rows) == 4 * 2


def test_killed_worker_raises_within_bounded_time():
    parent = os.getpid()

    def kill_this_worker():
        if os.getpid() != parent:  # never the test process itself
            os.kill(os.getpid(), signal.SIGKILL)

    def build_and_arm(net):
        build_small(net)
        # Host s1 is homed on shard 1, whose events only run inside its
        # forked worker: the worker dies mid-run, between windows' replies.
        net.hosts["s1"].sim.schedule(2.0, kill_this_worker)

    def on_alarm(signum, frame):
        raise TimeoutError("the parent never noticed the killed shard worker")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(60)
    started = time.monotonic()
    try:
        with pytest.raises(ShardingError, match="exited without replying"):
            Federation(build_and_arm, shards=2, collect=collect_tallies).run(HORIZON)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 30


def _federated_tallies(shards):
    result = Federation(build_small, shards=shards, collect=collect_tallies).run(HORIZON)
    return result.mode, _flat(result), result.events, result.windows


def test_federation_runs_as_a_sweep_point():
    from repro.experiments.runner import Point, run_parallel

    direct = Federation(build_small, shards=2, collect=collect_tallies).run(HORIZON)
    (swept,) = run_parallel("fed", [Point(_federated_tallies, {"shards": 2})], workers=1).values
    assert swept == ("processes", _flat(direct), direct.events, direct.windows)
