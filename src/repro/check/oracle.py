"""The invariant oracle: per-event validation of protocol state.

The unit of work is the **host**.  ``Simulator.post_event`` hands the
oracle the callable that just ran — never its arguments — and the
oracle re-checks the endpoints of the one host that callable belongs
to, because an event can have changed no others: hosts interact only
through :class:`~repro.net.link.Link` events.  The owner is placed by a
short, conservative table (:meth:`InvariantOracle._host_of`):

* a ``Link`` method (``_tx_done``: serialisation) touches no socket —
  nothing is checked, not even discovery runs;
* ``Path._delivered_fwd`` / ``_delivered_rev`` — the ``Host`` that
  path's ``deliver_fwd`` / ``deliver_rev`` is bound to;
* a method of an object whose ``.host`` is one of ``network.hosts``
  (socket, subflow and connection timers, ``call_soon`` continuations,
  path managers) — that host;
* **anything else** — a plain function, lambda or ``partial``, the
  3-argument trampoline, a ``PathElement`` or meter method, a
  ``deliver_*`` a test replaced — every host, exactly the every-endpoint
  sweep the oracle ran before it scoped.

There is no switch: the full sweep is simply what an owner the table
cannot place gets.  Three things backstop the one case scoping defers —
a host-owned callback reaching straight into *another* host's socket
without a packet, which nothing under ``src/`` does: a full sweep every
:data:`AUDIT_PERIOD`-th event, a full sweep on the first event of every
``run()`` (between runs the caller may have touched anything), and the
explicit :meth:`~InvariantOracle.check_now` /
:meth:`~InvariantOracle.assert_quiescent`.  Such a reach is raised at
the victim host's next event or at most ``AUDIT_PERIOD - 1`` events
late, instead of at the same event.

On the host(s) in scope the oracle checks:

* **TCP sequence-space algebra** — ``snd_una <= snd_nxt``; the
  retransmission queue is sorted, non-overlapping and below ``snd_nxt``;
  ``rcv_nxt`` never retreats and never overruns the advertised right
  edge (``+1`` slack: a FIN may consume the unit just past the edge);
  the advertised edge itself never retracts (RFC 793's "do not shrink
  the window").
* **Receive-buffer occupancy** — in-order-but-unread plus out-of-order
  bytes never exceed the socket's announced buffer, and nothing is ever
  buffered beyond the advertised edge.  (Subflows are exempt from the
  occupancy bound *and* from the advertised-edge geometry checks: their
  window is the *connection-level* shared pool, §3.3.1, which retracts
  whenever a sibling subflow consumes it — the bounds are checked on
  the connection instead.)
* **MPTCP data-level algebra** — ``data_una``/``data_nxt`` ordering
  (with the one-offset DATA_FIN slack), monotonic ``rcv_data_nxt``,
  data-level reassembly within the advertised window, no extractable
  in-order data left sitting in the queue (a data-seq gap that should
  not exist), and per-subflow DSS mappings sorted and non-overlapping
  in subflow-sequence space.  The data-level store is bounded by
  ``rcv_buf_limit``; total receive memory including subflow pending
  bytes only by ``rcv_buf_limit`` times the live-subflow count plus
  one, because every subflow advertises the same shared pool and
  reinjection can duplicate in-flight data (§3.3.1).
* **Coupled congestion control** — every active LIA controller keeps
  ``cwnd >= mss`` and ``ssthresh >= 2*mss`` (the NewReno floors), and
  the cached ``alpha`` is non-negative.  The oracle never *computes*
  alpha itself — that would warm the group's cache at different times
  than an unobserved run and perturb the simulation.
* **End-to-end stream equality** — bytes delivered to the receiving
  application are, prefix-for-prefix, the bytes the sending application
  wrote, checked incrementally and by digest at close.  Payload-
  rewriting elements (ALGs, bit corrupters) legitimately break this for
  endpoints that cannot detect it — plain TCP, or MPTCP after fallback
  or with checksums off — so those mismatches are tolerated and counted
  in :attr:`InvariantOracle.tolerated_modifications` instead of raised.
  The logs are bounded: a running SHA-256 per direction carries the
  close digest, so the verified prefix of both logs is dropped once it
  passes :data:`LOG_TRIM_BYTES`.

Violations raise :class:`InvariantViolation` with the last
``TRACE_TAIL`` segments, kept by a :class:`~repro.net.trace.PacketTrace`.
"""

# The oracle compares the sockets' internal absolute sequence units
# (never wrapped 32-bit wire values), so plain integer arithmetic is the
# correct comparison here.

from __future__ import annotations

import hashlib
from itertools import islice
from typing import TYPE_CHECKING, Optional

from repro.mptcp.connection import MPTCPConnection
from repro.mptcp.subflow import Subflow
from repro.net.link import Link
from repro.net.node import Host
from repro.net.path import Path
from repro.net.trace import PacketTrace
from repro.tcp.socket import TCPSocket
from repro.tcp.state import CLOSED

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

# Every AUDIT_PERIOD-th event sweeps every host whatever ran: the bound
# on how late a cross-host reach (module docstring) can be raised.
AUDIT_PERIOD = 64
# Verified stream-log prefix kept before it is dropped.
LOG_TRIM_BYTES = 64 * 1024
# _host_of's answer for an event that touched no endpoint at all.
_NO_HOST = object()


class InvariantViolation(AssertionError):
    """A protocol invariant failed.  Carries the recent packet trace."""

    def __init__(
        self,
        invariant: str,
        message: str,
        time: float = 0.0,
        subject: str = "",
        trace_tail: Optional[list] = None,
    ):
        self.invariant = invariant
        self.message = message
        self.time = time
        self.subject = subject
        self.trace_tail = list(trace_tail or [])
        super().__init__(self.format())

    def format(self) -> str:
        lines = [f"[{self.invariant}] t={self.time * 1000:.3f}ms {self.subject}: {self.message}"]
        if self.trace_tail:
            lines.append(f"--- last {len(self.trace_tail)} segments ---")
            lines.extend(self._trace_lines())
        return "\n".join(lines)

    def _trace_lines(self) -> list[str]:
        return [
            record if isinstance(record, str) else record.format() for record in self.trace_tail
        ]

    def __reduce__(self):
        # A violation raised in a forked sweep worker is pickled back to
        # the parent: carry the fields and the formatted trace lines,
        # never the segments (memoryview payloads do not pickle).
        return (
            InvariantViolation,
            (self.invariant, self.message, self.time, self.subject, self._trace_lines()),
        )


class _Watch:
    """Oracle-side bookkeeping for one endpoint (socket or connection)."""

    __slots__ = (
        "entity",
        "is_subflow",
        "is_mptcp",
        "send_stream",
        "captured_until",
        "sent_log",
        "sent_base",
        "sent_hash",
        "read_log",
        "read_base",
        "read_hash",
        "matched",
        "tainted",
        "peer",
        "prev_adv_edge",
        "prev_rcv_nxt",
        "closed_checked",
    )

    def __init__(self, entity):
        self.entity = entity
        self.is_subflow = isinstance(entity, Subflow)
        self.is_mptcp = isinstance(entity, MPTCPConnection)
        self.send_stream = entity.send_stream if self.is_mptcp else entity.snd_buf
        self.captured_until = self.send_stream.head
        # What the app wrote / read, minus a verified prefix of
        # ``*_base`` bytes already dropped; ``*_hash`` has seen it all.
        self.sent_log = bytearray()
        self.sent_base = 0
        self.sent_hash = hashlib.sha256()
        self.read_log = bytearray()
        self.read_base = 0
        self.read_hash = hashlib.sha256()
        self.matched = 0  # delivered bytes verified against the peer
        self.tainted = False  # sanctioned payload rewriting observed
        self.peer: Optional["_Watch"] = None
        if self.is_mptcp:
            self.prev_adv_edge = entity.rcv_data_adv_edge
            self.prev_rcv_nxt = entity.rcv_data_nxt
        else:
            self.prev_adv_edge = entity._rcv_adv_edge
            self.prev_rcv_nxt = entity.rcv_nxt
        self.closed_checked = False

    def sent_len(self) -> int:
        return self.sent_base + len(self.sent_log)

    def read_len(self) -> int:
        return self.read_base + len(self.read_log)

    def delivered_len(self) -> int:
        return self.read_len() + len(self.entity._rx_ready)


class _HostScope:
    """One host's slice of the oracle: its live watches, the
    registration count its last discovery saw, its rotation cursor."""

    __slots__ = ("watches", "registered", "cursor")

    def __init__(self):
        self.watches: list[_Watch] = []
        self.registered = -1
        self.cursor = 0


class InvariantOracle:
    """Attachable per-event protocol checker.

    >>> oracle = InvariantOracle.attach(net)
    >>> ...build endpoints, run the experiment...
    >>> oracle.assert_quiescent()   # optional end-of-run stream audit
    >>> oracle.detach()
    """

    TRACE_TAIL = 64  # segments a violation report carries

    def __init__(self, network: "Network"):
        self.network = network
        self.trace = PacketTrace(tail=self.TRACE_TAIL)
        self.events_checked = 0
        # How each of those events was scoped: no host could have
        # changed / one host re-checked / every host swept.
        self.events_skipped = 0
        self.events_scoped = 0
        self.events_swept = 0
        self.tolerated_modifications = 0
        self.stream_pairs = 0
        # Every watch ever made, by id(entity) — the discovery key.  A
        # fully-verified watch leaves its host's scope (so per-event work
        # stays bounded by *live* connections, not every connection ever
        # made) but stays here: the strong reference pins the entity so
        # its id() cannot be recycled onto a new socket.
        self._known: dict[int, _Watch] = {}
        self._scopes: dict[Host, _HostScope] = {}
        self.watches_retired = 0
        # Above this many live endpoints on one host its per-event check
        # rotates a fixed budget of them instead of all (see _check_host).
        self.full_sweep_limit = 16
        # Events finished by completed run() calls as of the last event:
        # a different count means a run() has exited since, i.e. this
        # event is the first of a new one.
        self._sim = network.sim
        self._runs_seen = -1
        self._tap = self.trace._tap
        self._tapped_paths = 0
        self._payload_modifiers = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, network: "Network") -> "InvariantOracle":
        oracle = cls(network)
        if network.sim.post_event is not None:
            raise RuntimeError("simulator already has a post_event hook")
        network.sim.post_event = oracle._post_event
        network._oracle = oracle
        oracle._tap_new_paths()
        return oracle

    def detach(self) -> None:
        """Undo :meth:`attach`: the hook (if still ours), our tap on every
        path and the ``read`` shadow on every endpoint ever watched."""
        network = self.network
        if network.sim.post_event == self._post_event:
            network.sim.post_event = None
        if getattr(network, "_oracle", None) is self:
            network._oracle = None
        for path in network.paths[: self._tapped_paths]:
            if self._tap in path.taps:
                path.taps.remove(self._tap)
        self._tapped_paths = 0
        for watch in self._known.values():
            vars(watch.entity).pop("read", None)

    # ------------------------------------------------------------------
    # Per-event driver
    # ------------------------------------------------------------------
    def _post_event(self, fn) -> None:
        """``fn`` is the callable the simulator just ran (or None: owner
        withheld).  Scope the check to the host it belongs to."""
        self.events_checked += 1
        host = None
        runs = self._sim._events_run
        if runs != self._runs_seen:
            self._runs_seen = runs  # first event of a run(): sweep
        elif self.events_checked % AUDIT_PERIOD:
            host = self._host_of(fn)
            if host is _NO_HOST:
                self.events_skipped += 1
                return
        if len(self.network.paths) != self._tapped_paths:
            self._tap_new_paths()
        if host is None:
            self.events_swept += 1
            self.check_now()
            return
        # check_now() for the one host, without its loop and frame.
        self.events_scoped += 1
        scope = self._scopes.get(host)
        if scope is None:
            scope = self._scopes[host] = _HostScope()
        if len(host._connections) != scope.registered or not self.events_checked % 16:
            self._discover(host, scope)
        self._check_host(scope, False)

    def _host_of(self, fn):
        """The resolver table (module docstring): ``_NO_HOST``, the one
        :class:`Host` ``fn`` can have touched, or None for *cannot say*."""
        owner = getattr(fn, "__self__", None)
        kind = type(owner)
        if kind is Link:
            return _NO_HOST
        if kind is Path:
            if fn.__func__ is Path._delivered_fwd:
                host = getattr(owner.deliver_fwd, "__self__", None)
            elif fn.__func__ is Path._delivered_rev:
                host = getattr(owner.deliver_rev, "__self__", None)
            else:
                return None
        else:
            host = getattr(owner, "host", None)
        if isinstance(host, Host) and self.network.hosts.get(host.name) is host:
            return host
        return None

    def _tap_new_paths(self) -> None:
        paths = self.network.paths
        for path in paths[self._tapped_paths :]:
            path.add_tap(self._tap)
            for element in path.elements:
                if getattr(element, "corrupts_payload", False) or getattr(
                    element, "rewrites_payload", False
                ):
                    self._payload_modifiers = True
        self._tapped_paths = len(paths)

    def _discover(self, host: Host, scope: _HostScope) -> None:
        # The rescan is O(registered connections), so callers skip it
        # while the host's registration count is unchanged.  A same-event
        # register+unregister swap could slip past the count, so every
        # 16th event (and therefore every audit) forces one anyway:
        # bounded, deterministic lag.
        scope.registered = len(host._connections)
        for sink in host._connections.values():
            if not isinstance(sink, TCPSocket):
                continue
            if id(sink) not in self._known:
                self._watch(sink, scope)
            if isinstance(sink, Subflow) and id(sink.connection) not in self._known:
                self._watch(sink.connection, scope)

    def _watch(self, entity, scope: _HostScope) -> None:
        watch = _Watch(entity)
        self._known[id(entity)] = watch
        scope.watches.append(watch)
        if not watch.is_subflow:
            self._wrap_read(watch)
            self._try_pair(watch)

    def _wrap_read(self, watch: _Watch) -> None:
        original = watch.entity.read

        def read(max_bytes=None, _watch=watch, _original=original):
            data = _original(max_bytes)
            if data:
                _watch.read_log += data
                _watch.read_hash.update(data)
            return data

        watch.entity.read = read

    def _try_pair(self, watch: _Watch) -> None:
        for scope in self._scopes.values():
            for other in scope.watches:
                if (
                    other is watch
                    or other.peer is not None
                    or other.is_subflow
                    or other.is_mptcp is not watch.is_mptcp
                ):
                    continue
                if self._is_peer(watch.entity, other.entity):
                    watch.peer = other
                    other.peer = watch
                    self.stream_pairs += 1
                    return

    @staticmethod
    def _is_peer(a, b) -> bool:
        if isinstance(a, MPTCPConnection):
            return (
                a.remote_key is not None
                and b.remote_key is not None
                and a.local_key == b.remote_key
                and b.local_key == a.remote_key
            )
        if a.local is not None and a.remote is not None:
            if a.local == b.remote and a.remote == b.local:
                return True
        # Behind an address-rewriting middlebox the four-tuples disagree;
        # the exchanged ISNs still identify the pair.
        return (
            a.state.synchronized
            and b.state.synchronized
            and a.iss == b.irs
            and b.iss == a.irs
        )

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check_now(self, full: bool = False) -> None:
        """Run the invariants against the current state of every host
        (``full``: ignoring the rotation budget)."""
        force = full or not self.events_checked % 16
        for host in self.network.hosts.values():
            scope = self._scopes.get(host)
            if scope is None:
                scope = self._scopes[host] = _HostScope()
            if force or len(host._connections) != scope.registered:
                self._discover(host, scope)
            self._check_host(scope, full)

    def _check_host(self, scope: _HostScope, full: bool) -> None:
        """Check one host's live endpoints.

        With at most :attr:`full_sweep_limit` of them every one is
        checked each time.  Past that (closed-loop workloads holding
        hundreds of connections open) the expensive per-endpoint checks
        rotate round-robin with a fixed budget: every endpoint is still
        checked continuously and any violation still raises, at most one
        rotation late.  Stream capture stays per-event for all of the
        host's endpoints regardless, so no sent byte ever escapes the
        logs.  The cursor is per host (a shared one can alias with the
        order hosts take turns in) and advances only with checks, so
        detection stays deterministic per seed."""
        watches = scope.watches
        budget = self.full_sweep_limit
        if full or len(watches) <= budget:
            targets = watches
        else:
            for watch in watches:
                if not watch.is_subflow and watch.send_stream.tail > watch.captured_until:
                    self._capture_sent(watch)
            start = scope.cursor % len(watches)
            scope.cursor = start + budget
            targets = watches[start : start + budget]
            if len(targets) < budget:
                targets += watches[: budget - len(targets)]
        for watch in targets:
            if watch.is_subflow:
                self._check_tcp(watch)
                self._check_mappings(watch.entity)
                continue
            # Pairing needs the handshake (keys / ISNs exchanged), which
            # is rarely complete at discovery — keep retrying until it
            # sticks.
            if watch.peer is None:
                self._try_pair(watch)
            if watch.is_mptcp:
                self._check_connection(watch)
            else:
                self._check_tcp(watch)
            self._check_streams(watch)
        # Drop fully-verified endpoints from the per-event checks.  A
        # subflow (never stream-paired: once CLOSED its sequence space and
        # mapping table are frozen) or an unpaired endpoint retires once
        # closed.  A pair retires atomically: both directions close-
        # checked (the stream digests agreed), or both endpoints fully
        # closed (reset or tolerated-modification paths never set
        # closed_checked).
        done = []
        for watch in targets:
            entity = watch.entity
            closed = entity.conn_state.is_closed if watch.is_mptcp else entity.state is CLOSED
            peer = watch.peer
            if peer is None:
                retire = closed
            elif watch.closed_checked and peer.closed_checked:
                retire = True
            else:
                entity = peer.entity
                retire = closed and (
                    entity.conn_state.is_closed if peer.is_mptcp else entity.state is CLOSED
                )
            if retire:
                done.append(watch)
        for watch in done:
            watches.remove(watch)
        self.watches_retired += len(done)

    def _fail(self, invariant: str, subject: str, message: str) -> None:
        raise InvariantViolation(
            invariant,
            message,
            time=self.network.sim.now,
            subject=subject,
            trace_tail=self.trace.records,
        )

    # --- TCP (sockets and subflows) -----------------------------------
    def _check_tcp(self, watch: _Watch) -> None:
        sock = watch.entity
        name = sock.name
        if sock.snd_una > sock.snd_nxt:
            self._fail("tcp-snd-order", name, f"snd_una={sock.snd_una} > snd_nxt={sock.snd_nxt}")
        # The whole retransmit queue, every event.  Along a valid queue
        # the ends strictly increase (each entry is non-empty and starts
        # at or past the previous end), so two comparisons per entry and
        # one of the last end against snd_nxt decide it; a queue that
        # fails is walked again by _fail_rtx for the first violation.
        queue = sock._rtx_queue
        segs, head = queue._segs, queue._head
        if head < len(segs):
            end = segs[head].start
            for entry in islice(segs, head, None):
                start = entry.start
                if start < end:
                    self._fail_rtx(sock)
                end = entry.end
                if start >= end:
                    self._fail_rtx(sock)
            if end > sock.snd_nxt:
                self._fail_rtx(sock)
        if not sock.state.synchronized:
            return
        if sock.rcv_nxt < watch.prev_rcv_nxt:
            self._fail(
                "tcp-rcv-monotonic",
                name,
                f"rcv_nxt retreated {watch.prev_rcv_nxt} -> {sock.rcv_nxt}",
            )
        watch.prev_rcv_nxt = sock.rcv_nxt
        reassembly = sock.reassembly
        edge = sock._rcv_adv_edge
        if edge:
            # Subflows advertise the *shared* connection-level pool
            # (§3.3.1): a sibling consuming it legitimately retracts this
            # subflow's edge, and data sent against the older, larger
            # announcement may arrive past the current one.  The data-
            # level window geometry is checked on the connection instead.
            if not watch.is_subflow:
                if edge < watch.prev_adv_edge:
                    self._fail(
                        "tcp-window-shrunk",
                        name,
                        f"advertised right edge retracted {watch.prev_adv_edge} -> {edge}",
                    )
                # A FIN legitimately consumes the unit just past the edge.
                if sock.rcv_nxt > edge + 1:
                    self._fail(
                        "tcp-window-overrun",
                        name,
                        f"rcv_nxt={sock.rcv_nxt} beyond advertised edge {edge}",
                    )
                if reassembly._starts:
                    # Stream offset i holds sequence unit i+1.
                    if reassembly.max_offset > edge - 1:
                        self._fail(
                            "tcp-buffer-overrun",
                            name,
                            f"reassembly holds offset {reassembly.max_offset} "
                            f"beyond advertised edge {edge} (unit {edge - 1} max)",
                        )
            watch.prev_adv_edge = edge
            if reassembly._starts:
                first = reassembly._starts[0]
                if first <= sock.rcv_nxt - 1:
                    self._fail(
                        "tcp-rx-gap",
                        name,
                        f"in-order data at stream offset {first} not extracted "
                        f"(rcv_nxt={sock.rcv_nxt})",
                    )
        if not watch.is_subflow:
            occupancy = len(sock._rx_ready) + reassembly.buffered_bytes
            if occupancy > sock.rcv_buf_limit:
                self._fail(
                    "tcp-buffer-occupancy",
                    name,
                    f"{occupancy} bytes buffered > rcv_buf_limit={sock.rcv_buf_limit}",
                )
            cc = sock.cc
            # The peer's MSS option can clamp the socket's effective
            # MSS below the controller's (a timeout collapses cwnd to
            # the *socket* MSS), so the floor is the smaller of the two.
            floor = min(cc.mss, sock.mss)
            if cc.cwnd < floor:
                self._fail("cc-cwnd-floor", name, f"cwnd={cc.cwnd} < mss={floor}")
            if cc.ssthresh < 2 * floor:
                self._fail(
                    "cc-ssthresh-floor", name, f"ssthresh={cc.ssthresh} < 2*mss={2 * floor}"
                )

    def _fail_rtx(self, sock: TCPSocket) -> None:
        """Raise the first violation along a retransmit queue that
        _check_tcp's walk found broken."""
        name = sock.name
        prev_end = None
        for entry in sock._rtx_queue:
            if entry.start >= entry.end:
                self._fail("tcp-rtx-range", name, f"empty rtx entry [{entry.start},{entry.end})")
            if prev_end is not None and entry.start < prev_end:
                self._fail(
                    "tcp-rtx-order",
                    name,
                    f"rtx queue overlap: [{entry.start},{entry.end}) after end {prev_end}",
                )
            if entry.end > sock.snd_nxt:
                self._fail(
                    "tcp-rtx-range",
                    name,
                    f"rtx entry [{entry.start},{entry.end}) beyond snd_nxt={sock.snd_nxt}",
                )
            prev_end = entry.end

    # --- DSS mappings --------------------------------------------------
    def _check_mappings(self, subflow: Subflow) -> None:
        prev = None
        for mapping in subflow._rx_mappings:
            if mapping.length <= 0:
                self._fail(
                    "dss-mapping-empty",
                    subflow.name,
                    f"mapping ssn={mapping.ssn_start} has length {mapping.length}",
                )
            if prev is not None and mapping.ssn_start < prev.ssn_end:
                self._fail(
                    "dss-mapping-overlap",
                    subflow.name,
                    f"mapping ssn=[{mapping.ssn_start},{mapping.ssn_end}) overlaps "
                    f"previous ssn=[{prev.ssn_start},{prev.ssn_end})",
                )
            prev = mapping

    # --- MPTCP connection level ----------------------------------------
    def _check_connection(self, watch: _Watch) -> None:
        conn = watch.entity
        # This runs on every event, so the subject is formatted only on
        # failure, by self._subject(watch).
        # DATA_FIN occupies one data offset past the stream tail.
        if conn.data_una > conn.data_nxt + 1:
            self._fail(
                "mptcp-snd-order",
                self._subject(watch),
                f"data_una={conn.data_una} > data_nxt={conn.data_nxt}+1",
            )
        if conn.data_nxt > conn.send_stream.tail + 1:
            self._fail(
                "mptcp-snd-range",
                self._subject(watch),
                f"data_nxt={conn.data_nxt} beyond stream tail {conn.send_stream.tail}+1",
            )
        if conn.rcv_data_nxt < watch.prev_rcv_nxt:
            self._fail(
                "mptcp-rcv-monotonic",
                self._subject(watch),
                f"rcv_data_nxt retreated {watch.prev_rcv_nxt} -> {conn.rcv_data_nxt}",
            )
        watch.prev_rcv_nxt = conn.rcv_data_nxt
        reassembly = conn.reassembly
        # In fallback mode the data-level window is out of play: bytes
        # move raw under plain TCP flow control and rcv_data_adv_edge is
        # never advertised again, so its algebra only binds pre-fallback.
        if not conn.conn_state.is_fallback:
            edge = conn.rcv_data_adv_edge
            if edge < watch.prev_adv_edge:
                self._fail(
                    "mptcp-window-shrunk",
                    self._subject(watch),
                    f"advertised data edge retracted {watch.prev_adv_edge} -> {edge}",
                )
            watch.prev_adv_edge = edge
            if conn.rcv_data_nxt > edge + 1:
                self._fail(
                    "mptcp-window-overrun",
                    self._subject(watch),
                    f"rcv_data_nxt={conn.rcv_data_nxt} beyond advertised edge {edge}",
                )
            if reassembly._starts:
                limit = max(edge, conn.rcv_data_nxt + 1)
                if reassembly.max_offset > limit:
                    self._fail(
                        "mptcp-buffer-overrun",
                        self._subject(watch),
                        f"data reassembly holds offset {reassembly.max_offset} "
                        f"beyond window limit {limit}",
                    )
                first = reassembly._starts[0]
                if first <= conn.rcv_data_nxt:
                    self._fail(
                        "mptcp-data-gap",
                        self._subject(watch),
                        f"in-order data at offset {first} not delivered "
                        f"(rcv_data_nxt={conn.rcv_data_nxt})",
                    )
        # The data-level store is strictly bounded by the shared pool:
        # the advertised edge is derived from the remaining headroom and
        # inserts truncate at it.  Subflow-level pending bytes are NOT in
        # that bound — every subflow advertises the same pool (§3.3.1)
        # and opportunistic reinjection can hold duplicate in-flight
        # copies — so total memory gets the looser worst-case bound.
        # +1: a zero-window probe unit may be accepted past a closed
        # window (deliver_chunk floors the limit at rcv_data_nxt + 1).
        data_store = len(conn._rx_ready) + reassembly.buffered_bytes
        if data_store > conn.rcv_buf_limit + 1:
            self._fail(
                "mptcp-buffer-occupancy",
                self._subject(watch),
                f"{data_store} data-level bytes buffered "
                f"> rcv_buf_limit={conn.rcv_buf_limit}+1",
            )
        # The live subflows and their pending bytes in one loop: with
        # data_store, what rx_memory_bytes() totals.
        live = 1
        occupancy = data_store
        for subflow in conn.subflows:
            if not subflow.failed:
                live += 1
                pending = subflow._rx_pending
                occupancy += pending.tail - pending.head
        if occupancy > conn.rcv_buf_limit * live:
            self._fail(
                "mptcp-memory-bound",
                self._subject(watch),
                f"{occupancy} bytes held (incl. subflow pending) > "
                f"{live}x rcv_buf_limit={conn.rcv_buf_limit}",
            )
        alpha = conn.cc_group._alpha_cache
        if alpha is not None and alpha < 0:
            self._fail("cc-alpha", self._subject(watch), f"coupled alpha {alpha} < 0")
        total = 0
        active = 0
        for subflow in conn.subflows:
            controller = subflow.cc
            if not getattr(controller, "active", True):
                continue
            active += 1
            total += controller.cwnd
            floor = min(controller.mss, subflow.mss)
            if controller.cwnd < floor:
                self._fail(
                    "cc-cwnd-floor",
                    self._subject(watch),
                    f"subflow cwnd={controller.cwnd} < mss={floor}",
                )
            if controller.ssthresh < 2 * floor:
                self._fail(
                    "cc-ssthresh-floor",
                    self._subject(watch),
                    f"subflow ssthresh={controller.ssthresh} < 2*mss={2 * floor}",
                )
        if active and total < 1:
            self._fail(
                "cc-aggregate", self._subject(watch), f"aggregate cwnd {total} of active coupled group"
            )

    # --- End-to-end stream equality ------------------------------------
    def _check_streams(self, watch: _Watch) -> None:
        # Each step is entered only past its own first early return.
        if watch.send_stream.tail > watch.captured_until:
            self._capture_sent(watch)
        peer = watch.peer
        if peer is None:
            return
        if peer.send_stream.tail > peer.captured_until:
            self._capture_sent(peer)
        if watch.tainted:
            return  # what _compare_delivered and _close_check do first
        entity = watch.entity
        if watch.read_base + len(watch.read_log) + len(entity._rx_ready) > watch.matched:
            self._compare_delivered(watch, peer)
        if entity._rx_eof and not watch.closed_checked:
            self._close_check(watch, peer)

    def _capture_sent(self, watch: _Watch) -> None:
        stream = watch.send_stream
        if stream.tail <= watch.captured_until:
            return
        if watch.captured_until < stream.head:
            self._fail(
                "oracle-capture-gap",
                self._subject(watch),
                f"send stream released past capture point "
                f"({stream.head} > {watch.captured_until})",
            )
        new = bytes(stream.peek(watch.captured_until, stream.tail - watch.captured_until))
        watch.sent_log += new
        watch.sent_hash.update(new)
        watch.captured_until = stream.tail

    def _compare_delivered(self, recv: _Watch, send: _Watch) -> None:
        """Verify the receiver's delivered stream is a prefix of what the
        sender's application wrote, comparing only the new bytes."""
        if recv.tainted:
            return
        reads_total = recv.read_len()
        rx = recv.entity._rx_ready
        delivered = reads_total + len(rx)
        if delivered <= recv.matched:
            return
        if delivered > send.sent_len():
            self._stream_mismatch(
                recv,
                f"delivered {delivered} bytes but peer only sent {send.sent_len()}",
            )
            return
        cursor = recv.matched
        sent, sent_base = send.sent_log, send.sent_base
        if cursor < reads_total:
            read_base = recv.read_base
            if (
                recv.read_log[cursor - read_base : reads_total - read_base]
                != sent[cursor - sent_base : reads_total - sent_base]
            ):
                self._stream_mismatch(
                    recv, f"delivered bytes [{cursor},{reads_total}) differ from sent"
                )
                return
            cursor = reads_total
        if cursor < delivered:
            if rx[cursor - reads_total :] != sent[cursor - sent_base : delivered - sent_base]:
                self._stream_mismatch(
                    recv, f"delivered bytes [{cursor},{delivered}) differ from sent"
                )
                return
        recv.matched = delivered
        # Both logs are verified up to ``matched`` and never compared
        # below it again: drop that prefix once it is worth a memmove.
        drop = reads_total - recv.read_base
        if drop > LOG_TRIM_BYTES:
            del recv.read_log[:drop]
            recv.read_base = reads_total
        drop = delivered - sent_base
        if drop > LOG_TRIM_BYTES:
            del sent[:drop]
            send.sent_base = delivered

    def _stream_mismatch(self, recv: _Watch, message: str) -> None:
        if self._modification_tolerated(recv):
            recv.tainted = True
            self.tolerated_modifications += 1
            return
        self._fail("stream-integrity", self._subject(recv), message)

    def _modification_tolerated(self, recv: _Watch) -> bool:
        """A payload-rewriting element is on a path and this receiver has
        no means of detecting the rewrite — that is TCP behaviour, not a
        protocol bug (§3.3.6 is precisely about adding the means)."""
        if not self._payload_modifiers:
            return False
        entity = recv.entity
        if recv.is_mptcp:
            return entity.fallback or not entity.config.checksum
        return True

    def _close_check(self, recv: _Watch, send: _Watch) -> None:
        """At a graceful close every sent byte must have been delivered,
        and the stream digests must agree."""
        if recv.closed_checked or recv.tainted:
            return
        entity = recv.entity
        if not entity._rx_eof or getattr(entity, "error", None) is not None:
            return
        if recv.is_mptcp:
            genuine_fin = entity.peer_data_fin is not None or entity.fallback
        else:
            genuine_fin = entity._peer_fin_unit is not None
        if not genuine_fin:
            return
        recv.closed_checked = True
        delivered = recv.delivered_len()
        if delivered != send.sent_len():
            self._fail(
                "stream-close-length",
                self._subject(recv),
                f"stream closed after delivering {delivered} of "
                f"{send.sent_len()} sent bytes",
            )
        digest = recv.read_hash.copy()
        digest.update(entity._rx_ready)
        ours = digest.hexdigest()
        theirs = send.sent_hash.hexdigest()
        if ours != theirs:
            self._fail(
                "stream-close-hash",
                self._subject(recv),
                f"delivered-stream digest {ours[:16]} != sent-stream digest {theirs[:16]}",
            )

    @staticmethod
    def _subject(watch: _Watch) -> str:
        entity = watch.entity
        if watch.is_mptcp:
            return f"mptcp@{entity.host.name}"
        return entity.name

    # ------------------------------------------------------------------
    def assert_quiescent(self) -> None:
        """Explicit end-of-run audit: one final full check."""
        self._tap_new_paths()
        self.check_now(full=True)
