"""The invariant oracle must (a) stay silent on correct runs, (b) detect
genuinely broken protocol states — proven here by *injecting* breakage
with hostile middleboxes and asserting the violation fires with a
non-empty packet-trace tail, and (c) cost nothing when detached."""

import dataclasses
import os
import pickle
import subprocess
import sys
import types

import pytest

from repro.check import InvariantOracle, InvariantViolation
from repro.experiments.runner import Point, run_parallel
from repro.mptcp.connection import MPTCPConfig
from repro.mptcp.options import DSS
from repro.net.network import Network
from repro.net.packet import ACK, Endpoint, Segment
from repro.net.path import FORWARD, PathElement
from repro.net.trace import TraceRecord
from repro.tcp.socket import TCPSocket

from conftest import (
    make_tcp_pair,
    mptcp_transfer,
    random_payload,
    tcp_transfer,
)


def ensure_oracle(net) -> InvariantOracle:
    """Reuse the conftest-attached oracle (REPRO_ORACLE=1) or attach one."""
    return getattr(net, "_oracle", None) or InvariantOracle.attach(net)


def all_watches(oracle):
    """Live and retired watches (verified pairs retire out of the sweep)."""
    return list(oracle._known.values())


class MappingShifter(PathElement):
    """Hostile middlebox: shifts the subflow-sequence anchor of every
    forward DSS mapping after ``active_after``, so the receiver maps the
    *wrong subflow bytes* onto the data stream and delivers them
    in-order.  With the DSS checksum disabled nothing at the protocol
    level can notice; the oracle must."""

    def __init__(self, shift: int = 1448, active_after: float = 0.1):
        super().__init__("MappingShifter")
        self.shift = shift
        self.active_after = active_after
        self.shifted = 0

    def process(self, segment: Segment, direction: int):
        if direction == FORWARD and self.sim.now >= self.active_after:
            rewritten = []
            changed = False
            for option in segment.options:
                if (
                    isinstance(option, DSS)
                    and option.dsn is not None
                    and option.length > 0
                ):
                    option = dataclasses.replace(
                        option, subflow_seq=option.subflow_seq + self.shift
                    )
                    changed = True
                    self.shifted += 1
                rewritten.append(option)
            if changed:
                segment.options = rewritten
        return [(segment, direction)]


def stuff_beyond_window(sock) -> None:
    """A hostile sender ignoring the advertised window: bytes stuffed
    into the reassembly queue beyond the receiver's announced edge — a
    violation that persists until someone looks."""
    sock.reassembly.insert(sock._rcv_adv_edge + 50_000, b"\xee" * 2_000)


class TestCleanRuns:
    def test_tcp_transfer_is_violation_free_and_streams_pair(self):
        net, client, server = make_tcp_pair(seed=11)
        oracle = ensure_oracle(net)
        payload = random_payload(80_000, seed=11)
        result = tcp_transfer(net, client, server, payload, duration=60)
        assert bytes(result.received) == payload
        assert oracle.events_checked > 0
        assert oracle.stream_pairs >= 1  # endpoint pairing actually happened
        assert any(
            w.closed_checked and not w.is_mptcp for w in all_watches(oracle)
        )

    def test_mptcp_transfer_is_violation_free_and_streams_pair(self):
        net, client, server = make_tcp_pair(seed=12)
        oracle = ensure_oracle(net)
        payload = random_payload(120_000, seed=12)
        result = mptcp_transfer(net, client, server, payload, duration=60)
        assert bytes(result.received) == payload
        assert oracle.stream_pairs >= 1
        assert any(w.closed_checked and w.is_mptcp for w in all_watches(oracle))


class TestNegativeDetection:
    """Seeded breakage the oracle is required to catch."""

    @pytest.mark.parametrize("seed", [1, 5])
    def test_corrupt_dss_mapping_raises_violation(self, seed):
        shifter = MappingShifter(shift=1448, active_after=0.1)
        net, client, server = make_tcp_pair(seed=seed, elements=[shifter])
        ensure_oracle(net)
        payload = random_payload(400_000, seed=seed)
        config = MPTCPConfig(checksum=False)  # nothing in-protocol can notice
        with pytest.raises(InvariantViolation) as exc:
            mptcp_transfer(net, client, server, payload, duration=60, config=config)
        violation = exc.value
        assert shifter.shifted > 0
        assert violation.invariant  # structured: which invariant fired
        assert violation.time > 0
        assert len(violation.trace_tail) > 0  # carries the packet history
        rendered = violation.format()
        assert violation.invariant in rendered
        for record in violation.trace_tail[-3:]:
            assert record.format() in rendered

    def test_corrupt_dss_violation_is_deterministic(self):
        def provoke():
            shifter = MappingShifter(shift=1448, active_after=0.1)
            net, client, server = make_tcp_pair(seed=3, elements=[shifter])
            ensure_oracle(net)
            payload = random_payload(400_000, seed=3)
            with pytest.raises(InvariantViolation) as exc:
                mptcp_transfer(
                    net, client, server, payload,
                    duration=60, config=MPTCPConfig(checksum=False),
                )
            return exc.value

        first, second = provoke(), provoke()
        assert first.invariant == second.invariant
        assert first.time == second.time
        assert first.message == second.message

    def test_receive_buffer_overrun_raises_violation(self):
        """A hostile sender ignoring the advertised window: bytes stuffed
        into the reassembly queue beyond the receiver's announced edge."""
        net, client, server = make_tcp_pair(seed=9)
        ensure_oracle(net)
        payload = random_payload(200_000, seed=9)

        state = {}

        def capture(sock):
            state["victim"] = sock

        def stuff():
            victim = state.get("victim")
            assert victim is not None, "no accepted socket to attack"
            stuff_beyond_window(victim)

        # Grab the accepted server socket, then attack mid-transfer.
        net.sim.schedule(0.08, stuff)
        with pytest.raises(InvariantViolation) as exc:
            tcp_transfer_with_capture(net, client, server, payload, capture)
        violation = exc.value
        assert violation.invariant in (
            "tcp-buffer-overrun",
            "tcp-buffer-occupancy",
            "tcp-window-overrun",
        )
        assert len(violation.trace_tail) > 0


class TestRetransmitQueueCorruption:
    """The three ways a sender's retransmit queue can break, each made
    mid-transfer by an event the socket owns (so the check is scoped to
    its host): the oracle raises at that very event, naming the first
    bad entry."""

    def provoke(self, corrupt):
        """Run ``corrupt(sock, queue)`` at t=0.12 on the sender of a bulk
        transfer; it returns the expected message.  Returns the violation,
        the sender, the expected message and the corruption time."""
        net, client, server = make_tcp_pair(seed=6)
        ensure_oracle(net)
        state = {}

        def fire(sock):
            queue = sock._rtx_queue
            assert len(queue) >= 20, "too little in flight to corrupt mid-queue"
            state["message"] = corrupt(sock, queue)
            state["at"] = net.sim.now

        def arm():
            sock = next(s for s in client._connections.values() if isinstance(s, TCPSocket))
            state["sock"] = sock
            net.sim.schedule(0.04, types.MethodType(fire, sock))

        net.sim.schedule(0.08, arm)
        with pytest.raises(InvariantViolation) as exc:
            tcp_transfer(net, client, server, random_payload(200_000, seed=6), duration=60)
        assert exc.value.time == state["at"] == pytest.approx(0.12)
        assert exc.value.subject == state["sock"].name
        return exc.value, state["message"]

    def test_empty_entry(self):
        def corrupt(sock, queue):
            entry = queue[len(queue) // 2]
            entry.end = entry.start
            return f"empty rtx entry [{entry.start},{entry.start})"

        violation, message = self.provoke(corrupt)
        assert (violation.invariant, violation.message) == ("tcp-rtx-range", message)

    def test_overlap_in_the_middle(self):
        def corrupt(sock, queue):
            middle = len(queue) // 2
            prev_end = queue[middle - 1].end
            entry = queue[middle]
            entry.start = prev_end - 1
            return f"rtx queue overlap: [{prev_end - 1},{entry.end}) after end {prev_end}"

        violation, message = self.provoke(corrupt)
        assert (violation.invariant, violation.message) == ("tcp-rtx-order", message)

    def test_last_end_beyond_snd_nxt(self):
        def corrupt(sock, queue):
            last = queue[-1]
            last.end = sock.snd_nxt + 1
            return f"rtx entry [{last.start},{last.end}) beyond snd_nxt={sock.snd_nxt}"

        violation, message = self.provoke(corrupt)
        assert (violation.invariant, violation.message) == ("tcp-rtx-range", message)


def tcp_transfer_with_capture(net, client, server, payload, capture):
    """Like conftest.tcp_transfer but hands the accepted socket to
    ``capture`` before the transfer proceeds."""
    from repro.net.packet import Endpoint
    from repro.tcp.listener import Listener
    from repro.tcp.socket import TCPSocket

    received = bytearray()

    def on_accept(sock):
        capture(sock)
        sock.on_data = lambda s: received.extend(s.read())
        sock.on_eof = lambda s: s.close()

    Listener(server, 80, on_accept=on_accept)
    sock = TCPSocket(client)
    progress = {"sent": 0}

    def pump(s):
        while progress["sent"] < len(payload):
            accepted = s.send(payload[progress["sent"] : progress["sent"] + 65536])
            if accepted == 0:
                return
            progress["sent"] += accepted
        s.close()

    sock.on_established = pump
    sock.on_writable = pump
    sock.connect(Endpoint(server.primary_address, 80))
    net.run(until=60)
    return received


class TestPostEventContract:
    def test_hook_is_handed_only_the_callable(self):
        """The post_event hook is handed the callable that ran and
        nothing else -- never the event's arguments -- so the oracle
        cannot retain or alias the segments an event carries."""
        net, client, server = make_tcp_pair(seed=33)
        oracle = ensure_oracle(net)
        attached = net.sim.post_event
        calls = []

        def hook(*args, **kwargs):
            calls.append((args, kwargs))
            attached(*args, **kwargs)

        net.sim.post_event = hook
        payload = random_payload(40_000, seed=33)
        result = tcp_transfer(net, client, server, payload, duration=60)
        assert bytes(result.received) == payload
        assert len(calls) == oracle.events_checked > 0
        for args, kwargs in calls:
            assert len(args) == 1 and not kwargs  # the callable, nothing else
            (fn,) = args
            assert callable(fn)
            assert not isinstance(fn, Segment)
            assert not isinstance(getattr(fn, "__self__", None), Segment)
        assert oracle.stream_pairs >= 1


class TestLifecycle:
    def test_attach_refuses_an_occupied_hook(self):
        net = Network(seed=1)
        ensure_oracle(net)
        with pytest.raises(RuntimeError):
            InvariantOracle.attach(net)

    def test_detach_restores_the_zero_cost_path(self):
        net, client, server = make_tcp_pair(seed=4)
        oracle = ensure_oracle(net)
        payload = random_payload(20_000, seed=4)
        first = tcp_transfer(net, client, server, payload, duration=30)
        assert bytes(first.received) == payload
        assert any(path.taps for path in net.paths)
        assert "read" in vars(first.server)  # the oracle's logging shadow

        oracle.detach()
        assert net.sim.post_event is None
        assert getattr(net, "_oracle", None) is None
        assert all(path.taps == [] for path in net.paths)
        assert not any("read" in vars(w.entity) for w in all_watches(oracle))
        before = (
            oracle.events_checked,
            len(oracle.trace),
            [(w.read_len(), w.sent_len()) for w in all_watches(oracle)],
        )
        # A whole second transfer leaves a detached oracle untouched.
        second = tcp_transfer(net, client, server, payload, duration=60, port=81)
        assert bytes(second.received) == payload
        assert before == (
            oracle.events_checked,
            len(oracle.trace),
            [(w.read_len(), w.sent_len()) for w in all_watches(oracle)],
        )
        assert all(path.taps == [] for path in net.paths)

        # attach -> detach -> attach: a fresh oracle takes over cleanly.
        again = InvariantOracle.attach(net)
        third = tcp_transfer(net, client, server, payload, duration=90, port=82)
        assert bytes(third.received) == payload
        assert again.events_checked > 0 and again.stream_pairs >= 1
        assert any(w.closed_checked for w in all_watches(again))
        assert oracle.events_checked == before[0]

    def test_detach_leaves_someone_elses_hook_alone(self):
        net, client, server = make_tcp_pair(seed=4)
        oracle = ensure_oracle(net)
        other = lambda fn: None
        net.sim.post_event = other
        oracle.detach()
        assert net.sim.post_event is other

    def test_plain_network_has_no_hook(self, monkeypatch):
        # Outside REPRO_ORACLE=1 a fresh Network carries no post_event
        # hook at all — the oracle is strictly opt-in.
        import conftest as _conftest

        if _conftest.ORACLE_ENABLED:
            pytest.skip("suite-wide oracle attaches on every Network")
        net = Network(seed=2)
        assert net.sim.post_event is None

    def test_garbage_repro_oracle_is_a_usage_error(self):
        # "false" used to switch the oracle *on*: only ""/"0"/"1" parse.
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, REPRO_ORACLE="false")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
             os.path.join(tests_dir, "test_seq.py")],
            cwd=os.path.dirname(tests_dir), env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == pytest.ExitCode.USAGE_ERROR
        assert "REPRO_ORACLE must be '', '0' or '1', got 'false'" in done.stderr


def _raise_violation(label: str) -> None:
    """A sweep point failing the way an oracle-checked figure point does:
    its trace tail holds a segment with a memoryview payload."""
    segment = Segment(
        Endpoint("10.0.0.1", 1000), Endpoint("10.9.0.1", 80), seq=7, flags=ACK,
        payload=memoryview(b"__payload__")[2:9],
    )
    raise InvariantViolation(
        "stream-integrity",
        f"{label} went wrong",
        time=1.5,
        subject="mptcp@server",
        trace_tail=[TraceRecord(1.5, "path-a", FORWARD, segment)],
    )


class TestViolationCrossesProcesses:
    """``run_parallel`` runs figure points in forked workers, so an oracle
    violation there is pickled back to the parent."""

    def test_pickle_round_trip_keeps_fields_and_rendering(self):
        with pytest.raises(InvariantViolation) as exc:
            _raise_violation("point")
        violation = exc.value
        clone = pickle.loads(pickle.dumps(violation))
        assert type(clone) is InvariantViolation
        assert (clone.invariant, clone.message, clone.time, clone.subject) == (
            "stream-integrity", "point went wrong", 1.5, "mptcp@server",
        )
        assert str(clone) == str(violation)
        assert "len=7" in str(clone)  # the trace line survived, as text

    def test_run_parallel_surfaces_the_violation_in_the_parent(self):
        points = [Point(_raise_violation, {"label": label}) for label in ("first", "second")]
        with pytest.raises(InvariantViolation) as exc:
            run_parallel("violations", points, workers=2)
        assert exc.value.invariant == "stream-integrity"
        assert exc.value.message == "first went wrong"
        assert "--- last 1 segments ---" in str(exc.value)
