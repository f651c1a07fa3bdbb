"""Sharded simulation: wire codec, merged-driver conformance, topology
rules and the transparent ``Network(shards=N)`` surface.

The load-bearing property is at the top: a sharded run is
*observationally identical* to a serial run — same delivered bytes,
same event counts, same clock trajectory — because the merged driver
executes shards in global time order and cut links round-trip every
segment through the wire codec.
"""

import hashlib

import pytest

from conftest import make_tcp_pair, random_payload, tcp_transfer
from repro.mptcp.options import DSS, MPCapable
from repro.net.network import Network
from repro.net.packet import ACK, PSH, SYN, Endpoint, Segment, segment_from_wire
from repro.net.path import PathElement
from repro.sim.shard import ShardedClock, ShardGroup, ShardingError, shard_count_from_env


def _sharded_tcp_pair(seed=1, shards=2, **kwargs):
    """make_tcp_pair but with the hosts on different shards."""
    net = Network(seed=seed, shards=shards)
    client = net.add_host("client", "10.0.0.1", shard=0)
    server = net.add_host("server", "10.9.0.1", shard=1)
    net.connect(
        client.interface("10.0.0.1"),
        server.interface("10.9.0.1"),
        rate_bps=kwargs.get("rate_bps", 8e6),
        delay=kwargs.get("delay", 0.01),
        queue_bytes=kwargs.get("queue_bytes", 60_000),
        loss=kwargs.get("loss", 0.0),
        elements=kwargs.get("elements", []),
    )
    return net, client, server


def _transfer_digest(net, client, server, payload):
    result = tcp_transfer(net, client, server, payload, duration=30.0)
    assert bytes(result.received) == payload
    return (
        hashlib.sha256(bytes(result.received)).hexdigest(),
        result.completed_at,
        net.sim.events_run,
    )


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------


def test_segment_wire_roundtrip_plain():
    seg = Segment(
        src=Endpoint("10.0.0.1", 43210),
        dst=Endpoint("10.9.0.1", 80),
        seq=12345,
        ack=67890,
        flags=SYN | ACK,
        window=65535,
        payload=b"",
    )
    back = segment_from_wire(seg.to_wire())
    assert (back.src, back.dst) == (seg.src, seg.dst)
    assert (back.seq, back.ack, back.flags, back.window) == (
        seg.seq,
        seg.ack,
        seg.flags,
        seg.window,
    )
    assert bytes(back.payload) == b""
    assert back.options == []


def test_segment_wire_roundtrip_payload_and_mptcp_options():
    payload = random_payload(1448, seed=3)
    seg = Segment(
        src=Endpoint("192.168.100.200", 65535),
        dst=Endpoint("10.99.0.1", 8080),
        seq=(1 << 32) - 2,  # near the wrap: the codec must not widen
        ack=7,
        flags=PSH | ACK,
        window=123456 >> 1,
        payload=payload,
        options=[
            MPCapable(sender_key=0xDEADBEEF, receiver_key=0xFEEDFACE),
            DSS(data_ack=123_456, dsn=999_999, subflow_seq=42, length=1448),
        ],
    )
    back = segment_from_wire(seg.to_wire())
    assert bytes(back.payload) == payload
    kinds = [type(opt).__name__ for opt in back.options]
    assert kinds == ["MPCapable", "DSS"]
    cap = back.options[0]
    assert (cap.sender_key, cap.receiver_key) == (0xDEADBEEF, 0xFEEDFACE)
    dss = back.options[1]
    assert (dss.dsn, dss.subflow_seq, dss.length, dss.data_ack) == (
        999_999,
        42,
        1448,
        123_456,
    )
    assert back.seq == (1 << 32) - 2


def test_segment_wire_rejects_truncated_blob():
    seg = Segment(
        src=Endpoint("10.0.0.1", 1),
        dst=Endpoint("10.0.0.2", 2),
        seq=0,
        ack=0,
        flags=ACK,
        window=0,
        payload=b"hello",
    )
    wire = seg.to_wire()
    with pytest.raises(ValueError):
        segment_from_wire(wire[:-3])
    with pytest.raises(ValueError):
        segment_from_wire(b"\x00" * 4)


# ----------------------------------------------------------------------
# Merged driver == serial
# ----------------------------------------------------------------------


def test_sharded_transfer_is_byte_identical_to_serial():
    payload = random_payload(200_000, seed=7)
    serial = _transfer_digest(*make_tcp_pair(seed=5), payload)
    net, client, server = _sharded_tcp_pair(seed=5)
    assert net.shard_count == 2
    sharded = _transfer_digest(net, client, server, payload)
    assert sharded == serial  # digest, completion time, event count


def test_sharded_transfer_with_loss_matches_serial():
    payload = random_payload(120_000, seed=11)
    serial = _transfer_digest(*make_tcp_pair(seed=9, loss=0.02), payload)
    sharded = _transfer_digest(*_sharded_tcp_pair(seed=9, loss=0.02), payload)
    assert sharded == serial


def test_repro_shards_env_is_transparent(monkeypatch):
    payload = random_payload(80_000, seed=2)
    serial = _transfer_digest(*make_tcp_pair(seed=3), payload)
    monkeypatch.setenv("REPRO_SHARDS", "2")
    assert shard_count_from_env() == 2
    # make_tcp_pair does not pass shards=: the env default kicks in and
    # hosts round-robin across shards — still byte-identical.
    net, client, server = make_tcp_pair(seed=3)
    assert isinstance(net.sim, ShardedClock)
    assert net.shard_count == 2
    assert {host.shard for host in net.hosts.values()} == {0, 1}
    sharded = _transfer_digest(net, client, server, payload)
    assert sharded == serial


def test_merged_run_can_continue_after_horizon():
    # run(until=t1) then run(until=t2) must behave like one run(until=t2).
    payload = random_payload(150_000, seed=4)
    net_a, client_a, server_a = _sharded_tcp_pair(seed=6)
    one_shot = tcp_transfer(net_a, client_a, server_a, payload, duration=30.0)

    net_b, client_b, server_b = _sharded_tcp_pair(seed=6)
    result_b = tcp_transfer(net_b, client_b, server_b, payload, duration=0.05)
    net_b.run(until=30.0)  # continuation
    assert bytes(result_b.received) == bytes(one_shot.received)
    assert net_b.sim.events_run == net_a.sim.events_run
    assert net_b.now == net_a.now == 30.0


# ----------------------------------------------------------------------
# Topology rules
# ----------------------------------------------------------------------


def test_zero_delay_cut_colocates_when_possible():
    net = Network(seed=1, shards=2)
    a = net.add_host("a", "10.0.0.1", shard=0)
    b = net.add_host("b", "10.1.0.1", shard=1)
    net.connect(
        a.interface("10.0.0.1"),
        b.interface("10.1.0.1"),
        rate_bps=8e6,
        delay=0.0,  # no lookahead: must co-locate instead of cutting
        queue_bytes=60_000,
    )
    assert a.shard == b.shard
    assert net._shards.boundaries == []


def test_zero_delay_cut_raises_when_unrehomeable():
    net = Network(seed=1, shards=3)
    a = net.add_host("a", "10.0.0.1", shard=0)
    b = net.add_host("b", "10.1.0.1", shard=1)
    c = net.add_host("c", "10.2.0.1", "10.2.0.2", shard=2)
    # Pin a and b via positive-delay cut links to c: each now has routed
    # paths, so neither can be re-homed for the zero-delay link.
    net.connect(
        a.interface("10.0.0.1"),
        c.interface("10.2.0.1"),
        rate_bps=8e6,
        delay=0.01,
        queue_bytes=60_000,
    )
    net.connect(
        b.interface("10.1.0.1"),
        c.interface("10.2.0.2"),
        rate_bps=8e6,
        delay=0.01,
        queue_bytes=60_000,
    )
    with pytest.raises(ShardingError, match="delay"):
        net.connect(
            a.interface("10.0.0.1"),
            b.interface("10.1.0.1"),
            rate_bps=8e6,
            delay=0.0,
            queue_bytes=60_000,
        )


class _StatefulElement(PathElement):
    """Deliberately not shard_safe (the default)."""

    def transform(self, segment, direction):  # pragma: no cover - stub
        return segment


def test_unsafe_element_on_cut_path_colocates():
    net = Network(seed=1, shards=2)
    a = net.add_host("a", "10.0.0.1", shard=0)
    b = net.add_host("b", "10.1.0.1", shard=1)
    net.connect(
        a.interface("10.0.0.1"),
        b.interface("10.1.0.1"),
        rate_bps=8e6,
        delay=0.01,
        queue_bytes=60_000,
        elements=[_StatefulElement()],
    )
    assert a.shard == b.shard  # pulled onto one shard, no cut created
    assert net._shards.boundaries == []


def test_shard_safe_element_survives_on_cut_path():
    from repro.middlebox.nat import NAT

    payload = random_payload(60_000, seed=8)
    serial = _transfer_digest(
        *make_tcp_pair(seed=12, elements=[NAT("10.5.0.1")]), payload
    )
    net, client, server = _sharded_tcp_pair(seed=12, elements=[NAT("10.5.0.1")])
    assert client.shard != server.shard  # the cut survived
    assert len(net._shards.boundaries) == 2  # one per direction
    sharded = _transfer_digest(net, client, server, payload)
    assert sharded == serial


def test_cut_registration_validation():
    group = ShardGroup(2)
    with pytest.raises(ShardingError, match="out of range"):
        group.add_cut(0, 5, lambda s: None, 0.01)
    with pytest.raises(ShardingError, match="both ends"):
        group.add_cut(1, 1, lambda s: None, 0.01)
    with pytest.raises(ShardingError, match="zero propagation delay"):
        group.add_cut(0, 1, lambda s: None, 0.0)


def test_explicit_shard_out_of_range():
    net = Network(seed=1, shards=2)
    with pytest.raises(ShardingError):
        net.add_host("x", "10.0.0.1", shard=2)


@pytest.mark.parametrize("raw", ["0", "-1", "two"])
def test_repro_shards_below_one_or_garbage_raises(monkeypatch, raw):
    monkeypatch.setenv("REPRO_SHARDS", raw)
    with pytest.raises(ShardingError, match=f"got '{raw}'"):
        shard_count_from_env()
    with pytest.raises(ShardingError, match=f"got '{raw}'"):
        Network(seed=1)


@pytest.mark.parametrize("shards", [0, -1])
def test_network_shard_count_below_one_raises(shards):
    with pytest.raises(ShardingError, match=f"got {shards}"):
        Network(seed=1, shards=shards)


# ----------------------------------------------------------------------
# ShardedClock surface
# ----------------------------------------------------------------------


def test_sharded_clock_api():
    net = Network(seed=1, shards=2)
    sim = net.sim
    assert isinstance(sim, ShardedClock)
    fired = []
    sim.schedule(0.5, fired.append, "a")
    sim.post(1.0, fired.append, "b")
    assert sim.pending == 2
    sim.run(until=2.0)
    assert fired == ["a", "b"]
    assert sim.now == 2.0
    assert sim.events_run == 2

    hook_calls = []
    # The hook is handed the callable that ran, and only that.
    hook = lambda *args, **kwargs: hook_calls.append((sim.now, args, kwargs))
    sim.post_event = hook
    assert all(s.post_event is hook for s in net._shards.sims)  # broadcast
    tick = lambda: None
    sim.schedule(0.5, tick)
    sim.run(until=3.0)
    assert hook_calls == [(2.5, (tick,), {})]
    sim.post_event = None
    assert all(s.post_event is None for s in net._shards.sims)


def test_merged_run_honours_a_zero_or_negative_budget():
    # Regression: run_merged handed a zero budget to the shard, which
    # then fired one event, so max_events=0 returned 1.
    net = Network(seed=1, shards=2)
    shard0, shard1 = net._shards.sims
    fired = []
    shard0.schedule(0.5, fired.append, "a")
    shard1.schedule(0.75, fired.append, "b")
    shard0.schedule(1.0, fired.append, "c")
    assert net.sim.run(max_events=0) == 0
    net.run(until=2.0, max_events=0)
    assert fired == []
    assert net.sim.now == 0.0
    with pytest.raises(ValueError, match="max_events"):
        net.sim.run(max_events=-1)
    assert net.sim.run(max_events=2) == 2
    assert fired == ["a", "b"]
    assert net.sim.pending == 1


def test_sharded_clock_timers_live_on_the_target_shard():
    # MemorySampler(net.sim, ...) is handed the ShardedClock; its Timer
    # must sit on a real simulator -- shard 0 when built outside a run,
    # the running shard when built inside one -- and stay there.
    from repro.stats.metrics import MemorySampler

    net = Network(seed=1, shards=2)
    shard0, shard1 = net._shards.sims
    outside = MemorySampler(net.sim, lambda: 7, interval=0.25)
    assert outside._timer._sim is shard0
    inside = []
    shard1.post(0.1, lambda: inside.append(MemorySampler(net.sim, lambda: 9, interval=0.25)))
    net.sim.run(until=1.0)
    assert inside[0]._timer._sim is shard1
    assert (outside.samples, inside[0].samples) == (5, 4)
    assert shard0.pending == shard1.pending == 1  # each re-armed at home
    outside.stop()
    inside[0].stop()
    assert net.sim.pending == 0
    assert net.sim.run(until=2.0) == 0
