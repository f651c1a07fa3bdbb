"""Process-per-shard federation: mode equivalence and failure paths.

The contract under test: ``Federation.run`` produces the same collected
values whichever driver executes it — forked worker processes, the
inline windowed fallback, or a plain serial run — because the window
protocol exchanges identical wire-format messages in identical order.
"""

import os

import pytest

from repro.net.network import Network
from repro.sim.federation import Federation, FederationResult
from repro.sim.shard import ShardingError
from repro.experiments.shard_bench import build_small, collect_tallies

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="federation process mode needs os.fork"
)

HORIZON = 8.0
SMALL_CONNS = 4 * (3 + 2)  # clusters x (local + cross) in build_small


def _flat(result: FederationResult):
    return sorted(sum(result.shard_values, []))


def test_processes_inline_and_serial_agree():
    serial = Federation(build_small, shards=1, collect=collect_tallies).run(HORIZON)
    inline = Federation(
        build_small, shards=4, collect=collect_tallies, serial=True
    ).run(HORIZON)
    procs = Federation(build_small, shards=4, collect=collect_tallies).run(HORIZON)

    assert serial.mode == "serial"
    assert inline.mode == "windowed-inline"
    assert procs.mode == "processes"
    assert _flat(serial) == _flat(inline) == _flat(procs)
    assert len(_flat(serial)) == SMALL_CONNS
    assert all(row[3] == 6_000 for row in _flat(serial))
    assert procs.shards == inline.shards == 4
    assert procs.events == serial.events
    assert procs.windows > 1


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


def test_cut_elements_force_inline_fallback():
    from repro.middlebox.nat import NAT

    def build_with_nat(net):
        a = net.add_host("a", "10.0.0.1", shard=0)
        b = net.add_host("b", "10.1.0.1", shard=1)
        net.connect(
            a.interface("10.0.0.1"),
            b.interface("10.1.0.1"),
            rate_bps=8e6,
            delay=0.01,
            queue_bytes=60_000,
            elements=[NAT("10.5.0.1")],
        )

    result = Federation(build_with_nat, shards=2).run(1.0)
    # A NAT's state lives on the cut path; forked copies would diverge,
    # so the federation must run the window protocol in-process.
    assert result.mode == "windowed-inline"


def _federated_tallies(shards):
    result = Federation(build_small, shards=shards, collect=collect_tallies).run(HORIZON)
    return result.mode, _flat(result), result.events, result.windows


def test_federation_runs_as_a_sweep_point():
    from repro.experiments.runner import Point, run_parallel

    direct = Federation(build_small, shards=2, collect=collect_tallies).run(HORIZON)
    (swept,) = run_parallel("fed", [Point(_federated_tallies, {"shards": 2})], workers=1).values
    assert swept == ("processes", _flat(direct), direct.events, direct.windows)
