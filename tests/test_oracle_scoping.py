"""The oracle scopes each event's check to the host the event ran on.

Three things are pinned here: the resolver table that places a callable
on a host (or admits it cannot), the safety case — a differential
harness showing the scoped oracle raises exactly what the every-event,
every-host sweep raises — and the bounds on the one thing scoping
defers (a cross-host reach), plus a tripwire so a refactor that turns
every owner "unknown" fails here instead of only in the benchmark."""

import functools
import types

import pytest

from repro.check import InvariantViolation
from repro.check.fuzzer import random_scenario, run_scenario
from repro.check.oracle import AUDIT_PERIOD, LOG_TRIM_BYTES
from repro.middlebox.nat import NAT
from repro.middlebox.rewriter import SequenceRewriter
from repro.mptcp.connection import MPTCPConfig
from repro.net.faults import Reorderer
from repro.net.network import Network
from repro.net.packet import Endpoint
from repro.sim import Timer
from repro.sim.rng import SeededRNG
from repro.stats.metrics import MemorySampler
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPSocket

from conftest import (
    make_multipath,
    make_tcp_pair,
    mptcp_transfer,
    random_payload,
    tcp_transfer,
)
from test_invariant_oracle import (
    MappingShifter,
    all_watches,
    ensure_oracle,
    stuff_beyond_window,
    tcp_transfer_with_capture,
)


def hide_owner(net) -> None:
    """The differential arm: withhold the callable from the attached
    hook, so no event can be placed and every one sweeps every host —
    the pre-scoping oracle, selected without any switch in ``src/``."""
    attached = net.sim.post_event
    net.sim.post_event = lambda fn: attached(None)


def owned_by(entity, action):
    """``action`` as a method bound to ``entity``: an event running it
    resolves to ``entity.host`` exactly like one of its own timers."""
    return types.MethodType(lambda self: action(), entity)


def open_idle_connections(net, client, server, count, port=90):
    """``count`` established, silent TCP connections.  Returns the
    accepted (server-side) sockets; the client ends are kept alive by
    the host's connection table."""
    accepted = []
    Listener(server, port, on_accept=accepted.append)
    for _ in range(count):
        TCPSocket(client).connect(Endpoint(server.primary_address, port))
    return accepted


# ----------------------------------------------------------------------
# The resolver table
# ----------------------------------------------------------------------
class TestResolverTable:
    def test_links_and_paths_schedule_only_host_deliveries(self):
        """A packet costs one event, its delivery, and that event runs a
        method of the receiving Host: no Link or Path callable is ever on
        the heap, so no event is unplaceable for lack of a host."""
        net, client, server = make_tcp_pair(seed=1, elements=[NAT("99.0.0.1")])
        ensure_oracle(net)
        attached = net.sim.post_event
        owners = []

        def hook(fn):
            owners.append(type(getattr(fn, "__self__", None)).__name__)
            attached(fn)

        net.sim.post_event = hook
        result = tcp_transfer(net, client, server, random_payload(20_000, seed=1), duration=20)
        assert bytes(result.received) == random_payload(20_000, seed=1)
        assert owners.count("Host") > 0
        assert "Link" not in owners and "Path" not in owners

    def test_path_delivery_resolves_to_the_receiving_host(self):
        net, client, server = make_tcp_pair(seed=1, elements=[NAT("99.0.0.1")])
        oracle = ensure_oracle(net)
        path = net.paths[0]
        # What a Link schedules is the receiving host's bound deliver.
        assert path.link_fwd.deliver == server.deliver
        assert oracle._host_of(path.link_fwd.deliver) is server
        assert oracle._host_of(path.link_rev.deliver) is client

    def test_endpoint_owned_callbacks_resolve_to_their_host(self):
        net, client, server = make_multipath(seed=2)
        oracle = ensure_oracle(net)
        result = mptcp_transfer(
            net, client, server, random_payload(30_000, seed=2), duration=20
        )
        for conn, host in ((result.client, client), (result.server, server)):
            assert oracle._host_of(conn._data_rtx_timer._callback) is host
            assert oracle._host_of(conn.maybe_open_subflows) is host  # call_soon
            assert conn.subflows
            for subflow in conn.subflows:
                assert oracle._host_of(subflow._rto_timer._callback) is host
                assert oracle._host_of(subflow._delack_timer._callback) is host
                assert oracle._host_of(subflow.close) is host  # call_soon
        sock = TCPSocket(client)
        assert oracle._host_of(sock._rto_timer._callback) is client
        assert oracle._host_of(sock._on_time_wait_expired) is client  # armed lazily

    def test_everything_else_gets_the_full_sweep(self):
        reorderer = Reorderer(seed=1)
        net, client, server = make_tcp_pair(seed=1, elements=[reorderer])
        oracle = ensure_oracle(net)
        sock = TCPSocket(client)
        sampler = MemorySampler(net.sim, lambda: 0)
        sampler.stop()

        def plain():
            pass

        for unknown in (
            plain,
            lambda: None,
            functools.partial(sock.close),
            [].append,
            reorderer._backstop,
            reorderer.inject,
            sampler._tick,
            net.paths[0].send,  # a Path method, but not a delivery
            None,  # the differential arm's "owner withheld"
        ):
            assert oracle._host_of(unknown) is None, unknown
        # A socket living on some other network's host is not ours.
        foreign = TCPSocket(Network(seed=9).add_host("client", "10.0.0.1"))
        assert oracle._host_of(foreign._rto_timer._callback) is None
        # A test that replaces a link's delivery callback gets the sweep.
        net.paths[0].link_fwd.deliver = lambda segment: None
        assert oracle._host_of(net.paths[0].link_fwd.deliver) is None
        assert oracle._host_of(net.paths[0].link_rev.deliver) is client

    def test_three_argument_schedule_rides_the_trampoline(self):
        from repro.sim.engine import _spread

        net, client, server = make_tcp_pair(seed=1)
        oracle = ensure_oracle(net)
        attached = net.sim.post_event
        seen = []

        def hook(fn):
            seen.append(fn)
            attached(fn)

        net.sim.post_event = hook
        net.sim.schedule(0.1, lambda a, b, c: None, 1, 2, 3)
        net.run(until=1.0)
        assert seen == [_spread]
        assert oracle._host_of(_spread) is None
        assert (oracle.events_scoped, oracle.events_swept) == (0, 1)


# ----------------------------------------------------------------------
# Detection equivalence: scoped vs every-event full sweep
# ----------------------------------------------------------------------
def signature(provoke, force: bool):
    """Run ``provoke(prepare)``; it must raise.  ``prepare(net)`` attaches
    the oracle (hiding the owner in the forced arm) and returns it."""
    box = {}

    def prepare(net):
        box["oracle"] = ensure_oracle(net)
        if force:
            hide_owner(net)
        return box["oracle"]

    with pytest.raises(InvariantViolation) as exc:
        provoke(prepare)
    violation, oracle = exc.value, box["oracle"]
    if force:
        assert oracle.events_swept == oracle.events_checked  # the arm is what it claims
    else:
        assert oracle.events_scoped > 0
    return (violation.invariant, violation.time, violation.message, oracle.events_checked)


class TestDetectionEquivalence:
    @pytest.mark.parametrize("seed", [1, 3, 5, 7, 9])
    def test_corrupt_dss_mapping(self, seed):
        def provoke(prepare):
            shifter = MappingShifter(shift=1448, active_after=0.1)
            net, client, server = make_tcp_pair(seed=seed, elements=[shifter])
            prepare(net)
            mptcp_transfer(
                net, client, server, random_payload(400_000, seed=seed),
                duration=60, config=MPTCPConfig(checksum=False),
            )

        scoped = signature(provoke, force=False)
        assert scoped == signature(provoke, force=True)
        assert scoped[0] == "stream-integrity"

    def test_receive_buffer_stuffing(self):
        def provoke(prepare):
            net, client, server = make_tcp_pair(seed=9)
            prepare(net)
            state = {}
            net.sim.schedule(0.08, lambda: stuff_beyond_window(state["victim"]))
            tcp_transfer_with_capture(
                net, client, server, random_payload(200_000, seed=9),
                lambda sock: state.__setitem__("victim", sock),
            )

        scoped = signature(provoke, force=False)
        assert scoped == signature(provoke, force=True)
        assert scoped[0] == "tcp-buffer-overrun"

    def test_socket_owned_timer_corrupting_its_own_rtx_queue(self):
        """The case scoping must not weaken at all: the event resolves
        to one host, and the damage is on that host."""

        def provoke(prepare):
            net, client, server = make_tcp_pair(seed=6)
            oracle = prepare(net)
            state = {}

            def swap_last_two():
                segs = state["sock"]._rtx_queue._segs
                assert len(segs) >= 2, "nothing in flight to corrupt"
                segs[-1], segs[-2] = segs[-2], segs[-1]

            def arm():
                sock = next(
                    s for s in client._connections.values() if isinstance(s, TCPSocket)
                )
                state["sock"] = sock
                bound = owned_by(sock, swap_last_two)
                assert oracle._host_of(bound) is client
                timer = Timer(net.sim, bound)
                timer.start(0.03)

            net.sim.schedule(0.05, arm)
            tcp_transfer(net, client, server, random_payload(200_000, seed=6), duration=60)

        scoped = signature(provoke, force=False)
        assert scoped == signature(provoke, force=True)
        assert scoped[0] == "tcp-rtx-order"
        assert scoped[1] == pytest.approx(0.08)

    def test_clean_fuzzer_scenarios_end_in_identical_tallies(self, monkeypatch):
        def tallies(seed, force):
            made = []
            original = Network.__init__

            def init(self, seed=1):
                original(self, seed=seed)
                made.append(ensure_oracle(self))
                if force:
                    hide_owner(self)

            with monkeypatch.context() as patch:
                patch.setattr(Network, "__init__", init)
                outcome = run_scenario(random_scenario(seed))
            assert not outcome.failed, outcome.describe()
            (oracle,) = made
            oracle.assert_quiescent()
            return (
                outcome.received_bytes,
                oracle.events_checked,
                oracle.stream_pairs,
                oracle.tolerated_modifications,
                oracle.watches_retired,
                [
                    (oracle._subject(w), w.matched, w.closed_checked, w.tainted,
                     w.sent_len(), w.read_len())
                    for w in all_watches(oracle)
                ],
            )

        tolerated = 0
        # Twelve arbitrary scenarios plus four whose paths carry a
        # payload-corrupting element (19, 29 plain TCP; 31, 54 MPTCP).
        for seed in [*range(12), 19, 29, 31, 54]:
            scoped = tallies(seed, force=False)
            assert scoped == tallies(seed, force=True), seed
            tolerated += scoped[3]
        assert tolerated > 0  # the tolerated-modification path was on the menu


# ----------------------------------------------------------------------
# What scoping defers, and the bounds on the deferral
# ----------------------------------------------------------------------
class TestDeferredDetectionBounds:
    def _idle_pair_beside_a_busy_one(self, seed=5):
        """Hosts a-b hold one silent connection; c-d run a bulk transfer
        that (once a test starts it) keeps the clock busy."""
        net = Network(seed=seed)
        hosts = {
            name: net.add_host(name, ip)
            for name, ip in (("a", "10.0.0.1"), ("b", "10.0.9.1"),
                             ("c", "10.1.0.1"), ("d", "10.1.9.1"))
        }
        for left, right in (("a", "b"), ("c", "d")):
            net.connect(
                hosts[left].interfaces[0], hosts[right].interfaces[0],
                rate_bps=8e6, delay=0.01, queue_bytes=60_000,
            )
        oracle = ensure_oracle(net)
        accepted = open_idle_connections(net, hosts["a"], hosts["b"], 1)
        net.run(until=0.5)
        (b_sock,) = accepted
        (a_sock,) = [s for s in hosts["a"]._connections.values()]
        return net, oracle, hosts, a_sock, b_sock

    def test_cross_host_reach_is_raised_within_the_audit_period(self):
        net, oracle, hosts, a_sock, b_sock = self._idle_pair_beside_a_busy_one()
        mark = {}

        def reach_across():
            stuff_beyond_window(b_sock)
            mark["at"] = oracle.events_checked + 1  # the event doing the damage

        reach = owned_by(a_sock, reach_across)
        assert oracle._host_of(reach) is hosts["a"]
        net.sim.schedule(0.3, reach)  # t=0.8: mid-transfer, never first-of-run
        with pytest.raises(InvariantViolation) as exc:
            tcp_transfer(
                net, hosts["c"], hosts["d"], random_payload(200_000, seed=5), duration=60
            )
        assert exc.value.invariant == "tcp-buffer-overrun"
        assert exc.value.subject == b_sock.name
        # Host b is silent, so only the periodic audit can have seen it.
        lag = oracle.events_checked - mark["at"]
        assert 0 < lag < AUDIT_PERIOD
        assert oracle.events_checked % AUDIT_PERIOD == 0

    def test_cross_host_reach_is_raised_by_assert_quiescent(self):
        net, oracle, hosts, a_sock, b_sock = self._idle_pair_beside_a_busy_one()
        net.sim.schedule(0.1, lambda: None)  # so the reach is not first-of-run
        net.sim.schedule(0.2, owned_by(a_sock, lambda: stuff_beyond_window(b_sock)))
        checked = oracle.events_checked
        net.run(until=1.0)  # two events: neither looks at host b again
        assert oracle.events_checked == checked + 2
        with pytest.raises(InvariantViolation) as exc:
            oracle.assert_quiescent()
        assert exc.value.invariant == "tcp-buffer-overrun"

    def test_state_touched_between_runs_is_checked_at_the_next_event(self):
        """Between two run() calls the caller can do anything, so the
        first event of every run sweeps — here it is a Link event, which
        would otherwise check nothing."""
        net, oracle, hosts, a_sock, b_sock = self._idle_pair_beside_a_busy_one()
        stuff_beyond_window(b_sock)
        a_sock.send(b"x" * 100)
        checked = oracle.events_checked
        with pytest.raises(InvariantViolation) as exc:
            net.run(until=1.0)
        assert exc.value.invariant == "tcp-buffer-overrun"
        assert oracle.events_checked == checked + 1

    def test_writes_between_runs_never_open_a_capture_gap(self):
        """Behind a NAT and an ISN rewriter the two ends cannot be
        paired, so nothing on the receiving host captures the sender's
        stream on its behalf: only the first-event sweep does, before
        the ACK that releases those bytes can come back."""
        net, client, server = make_tcp_pair(
            seed=3, elements=[NAT("99.0.0.1"), SequenceRewriter(SeededRNG(5, "isn"))]
        )
        oracle = ensure_oracle(net)
        received = bytearray()
        Listener(
            server, 80,
            on_accept=lambda s: setattr(s, "on_data", lambda s: received.extend(s.read())),
        )
        sock = TCPSocket(client)
        sock.connect(Endpoint(server.primary_address, 80))
        net.run(until=1.0)
        assert oracle.stream_pairs == 0
        sent = bytearray()
        for round_ in range(8):
            chunk = random_payload(1000, seed=round_)
            sock.send(chunk)
            sent += chunk
            net.run(until=1.5 + round_ * 0.5)
        assert received == sent
        assert oracle.events_scoped > 0  # deliveries were checked on one host

    def test_rotation_reaches_every_endpoint_of_a_crowded_host(self):
        """More live endpoints on one host than full_sweep_limit: the
        per-host rotation still gets to a corrupted one within one
        rotation of that host's checks."""
        net, client, server = make_tcp_pair(seed=8)
        oracle = ensure_oracle(net)
        accepted = open_idle_connections(net, client, server, 20)
        net.run(until=0.5)
        assert len(accepted) == 20
        scope = oracle._scopes[server]
        assert len(scope.watches) == 20 > oracle.full_sweep_limit
        victim = accepted[13]
        host_checks = []
        original = oracle._check_host

        def counting(which, full):
            if which is scope and "armed" in mark:
                host_checks.append(oracle.events_checked)
            original(which, full)

        mark = {}
        oracle._check_host = counting

        def corrupt():
            stuff_beyond_window(victim)
            mark["armed"] = True

        net.sim.schedule(0.3, owned_by(victim, corrupt))
        with pytest.raises(InvariantViolation) as exc:
            tcp_transfer(net, client, server, random_payload(100_000, seed=8), duration=60)
        assert exc.value.invariant == "tcp-buffer-overrun"
        assert exc.value.subject == victim.name
        rotation = -(-len(scope.watches) // oracle.full_sweep_limit)
        # host_checks[0] is the corrupting event's own (scoped) check.
        assert 1 <= len(host_checks) <= 1 + rotation


# ----------------------------------------------------------------------
# Observability tripwire and the bounded logs
# ----------------------------------------------------------------------
class TestScopeCounters:
    def test_two_path_bulk_transfer_is_mostly_scoped(self):
        net, client, server = make_multipath(seed=4)
        oracle = ensure_oracle(net)
        payload = random_payload(400_000, seed=4)
        result = mptcp_transfer(net, client, server, payload, duration=60)
        assert bytes(result.received) == payload
        total = oracle.events_checked
        assert total > 500  # one event per packet: 716 in all
        assert oracle.events_scoped + oracle.events_swept == total
        # Nearly every event of a bulk transfer (deliveries, timers)
        # belongs to exactly one host.  If a refactor makes owners
        # unresolvable these collapse to 0 % / 100 %.
        assert oracle.events_scoped >= 0.9 * total
        assert oracle.events_swept <= 0.05 * total
        assert oracle.events_swept >= total // AUDIT_PERIOD  # the audit ran

    def test_stream_logs_stay_bounded_and_the_close_digest_still_checks(self):
        net, client, server = make_tcp_pair(seed=2)
        oracle = ensure_oracle(net)
        payload = random_payload(600_000, seed=2)
        peak = {"log": 0}
        attached = net.sim.post_event

        def hook(fn):
            attached(fn)
            for watch in oracle._known.values():
                peak["log"] = max(peak["log"], len(watch.sent_log), len(watch.read_log))

        net.sim.post_event = hook
        result = tcp_transfer(net, client, server, payload, duration=60)
        assert bytes(result.received) == payload
        # One trim threshold of verified bytes plus what the sender may
        # have written ahead of delivery -- not the whole stream.
        bound = LOG_TRIM_BYTES + result.client.config.snd_buf
        assert peak["log"] <= bound < len(payload)
        sender = next(w for w in all_watches(oracle) if w.entity is result.client)
        receiver = next(w for w in all_watches(oracle) if w.entity is result.server)
        assert sender.sent_len() == len(payload) and sender.sent_base > 0
        assert receiver.read_len() == len(payload) and receiver.read_base > 0
        assert receiver.matched == len(payload)
        assert receiver.closed_checked  # length + SHA-256 over all 600 kB agreed
