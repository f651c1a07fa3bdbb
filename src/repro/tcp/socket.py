"""The TCP socket: connection state machine, reliability, congestion and
flow control.

Internally every position is an *absolute sequence unit* (a Python int
that never wraps): unit 0 is the SYN, data byte ``i`` of the stream is
unit ``i + 1`` and the FIN consumes one more unit.  The 32-bit wrapping of
the wire format is confined to :meth:`_wire_seq` / :meth:`_unit_from_*`,
so the implementation is immune to wrap bugs while still emitting real
32-bit sequence numbers (which middleboxes rewrite!).

MPTCP hooks
-----------
A subflow (:class:`repro.mptcp.subflow.Subflow`) subclasses this socket
and overrides a small, explicit surface:

* ``_pull_new_data``       — where new payload bytes come from
* ``_on_in_order_data``    — where in-order received bytes go
* ``_syn_options`` etc.    — handshake option hooks
* ``_process_segment_options`` — incoming option processing
* ``_send_window_limit`` / ``_window_to_advertise`` — window semantics
  (MPTCP's receive window is connection-level, §3.3.1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.node import Host
from repro.net.options import (
    MSSOption,
    SACKOption,
    SACKPermitted,
    TCPOption,
    TimestampsOption,
    WindowScaleOption,
    options_length,
)
from repro.net.packet import ACK, FIN, PSH, RST, SYN, Endpoint, Segment
from repro.net.payload import Buffer
from repro.sim import Timer
from repro.tcp.buffer import ByteStream, ReassemblyQueue
from repro.tcp.cc import NewReno
from repro.tcp.rtt import RTTEstimator
from repro.tcp.rtx import RetransmitQueue
from repro.tcp.seq import SEQ_MOD

_SEQ_HALF = 1 << 31
from repro.tcp.state import (
    CLOSED,
    CLOSE_WAIT,
    CLOSING,
    ESTABLISHED,
    FIN_WAIT_1,
    FIN_WAIT_2,
    LAST_ACK,
    SYN_RCVD,
    SYN_SENT,
    TIME_WAIT,
    TRANSITIONS,
    IllegalTransition,
    TCPState,
)

# Stands in for the rarely armed timers (persist, TIME_WAIT, autotune): never
# running, so stop()/``_seq`` work; the arming site swaps in a real Timer.
IDLE_TIMER = Timer(None, None)

# Where an autotuned buffer starts (M3), capped by the configured maximum;
# MPTCPConnection starts its connection-level buffers here too.
AUTOTUNE_INITIAL = 64 * 1024
DELAYED_ACK_TIMEOUT = 0.04  # seconds a lone in-order segment waits for its ACK
MSL = 0.5  # maximum segment lifetime; TIME_WAIT lasts 2 * MSL


def require_positive(config: object, *names: str) -> None:
    """Raise ``ValueError`` naming the first field in ``names`` that is
    below 1: a zero MSS or buffer would otherwise surface mid-run as a
    division by zero or a silent stall."""
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise ValueError(f"{type(config).__name__}.{name} must be >= 1, got {value!r}")


@dataclass(slots=True)
class TCPConfig:
    """Tunables; defaults mirror a contemporary Linux stack scaled to the
    simulator."""

    mss: int = 1448
    snd_buf: int = 256 * 1024
    rcv_buf: int = 256 * 1024
    delayed_ack: bool = True
    timestamps: bool = True
    window_scale: int = 10
    nagle: bool = True
    max_syn_retries: int = 6
    max_retries: int = 15
    cc_factory: Callable[[int], NewReno] = NewReno
    # Mechanism M4 (§4.2): cap cwnd when smoothed RTT is twice the base RTT.
    cwnd_capping: bool = False
    # Receive/send buffer autotuning (mechanism M3); see TCPSocket._autotune_tick.
    autotune: bool = False

    def __post_init__(self) -> None:
        require_positive(self, "mss", "snd_buf", "rcv_buf")


@dataclass(slots=True)
class SentSegment:
    """Retransmission-queue entry (absolute units, payload retained)."""

    start: int
    end: int
    payload: Buffer  # bytes or a zero-copy memoryview over bytes
    sticky_options: list[TCPOption]
    sent_time: float
    syn: bool = False
    fin: bool = False
    retransmitted: bool = False
    lost: bool = False  # marked for retransmission, not yet resent
    sacked: bool = False  # selectively acknowledged by the receiver

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(slots=True)
class SocketStats:
    segments_sent: int = 0
    segments_received: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0  # in-order payload handed upwards
    retransmissions: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    dupacks_received: int = 0
    acks_sent: int = 0
    out_of_order_segments: int = 0
    zero_window_probes: int = 0


class TCPSocket:
    """A full TCP endpoint bound to a :class:`~repro.net.node.Host`."""

    # __dict__ stays empty: only the invariant oracle's ``read`` shadow ever lands in it.
    __slots__ = (
        "host", "sim", "config", "name", "state", "local", "remote", "stats", "mss", "cc", "rtt",
        "iss", "snd_una", "snd_nxt", "snd_buf", "snd_buf_limit", "_fin_pending", "_fin_sent",
        "_fin_unit_sent", "_rtx_queue", "_lost_bytes", "_sacked_bytes", "_highest_sacked",
        "_peer_wnd_edge", "_last_window_ack", "_last_seen_window", "_dupacks", "_max_recent_flight",
        "_recover", "_recover_kind", "_recovery_inflation", "_consecutive_rtos", "irs", "rcv_nxt",
        "rcv_buf_limit", "reassembly", "_rx_ready", "_rx_eof", "_rcv_adv_edge",
        "_last_advertised_window", "_peer_fin_unit", "_ack_pending", "_ts_recent",
        "_ts_option_cache", "snd_wscale", "rcv_wscale", "ts_enabled", "sack_enabled", "_rto_timer",
        "_delack_timer", "_persist_timer", "_time_wait_timer", "_autotune_timer",
        "_persist_backoff", "_timing_unit", "_timing_start", "_timing_retransmitted",
        "on_established", "on_data", "on_eof", "on_close", "on_error", "on_writable", "_registered",
        "error", "syn_retries", "established_at", "__dict__", "__weakref__",
    )

    def __init__(self, host: Host, config: Optional[TCPConfig] = None, name: str = ""):
        self.host = host
        self.sim = host.sim
        self.config = config or TCPConfig()
        self.name = name or f"tcp@{host.name}"
        self.state = CLOSED
        self.local: Optional[Endpoint] = None
        self.remote: Optional[Endpoint] = None
        self.stats = SocketStats()

        cfg = self.config
        self.mss = cfg.mss  # effective MSS, clamped by peer's MSS option
        self.cc: NewReno = cfg.cc_factory(cfg.mss)
        self.rtt = RTTEstimator()

        # --- send side (absolute units; 0 = SYN) -----------------------
        self.iss: int = 0
        self.snd_una: int = 0
        self.snd_nxt: int = 0
        self.snd_buf = ByteStream()  # app bytes, stream offsets
        self.snd_buf_limit = cfg.snd_buf
        self._fin_pending = False
        self._fin_sent = False
        self._fin_unit_sent: Optional[int] = None
        self._rtx_queue = RetransmitQueue()
        self._lost_bytes = 0  # sum of seq units in lost, un-resent segments
        self._sacked_bytes = 0
        self._highest_sacked = 0
        self._peer_wnd_edge: int = 1  # highest unit peer allows (units)
        self._last_window_ack: int = 0
        self._last_seen_window = -1  # raw window of the last ACK (RFC 5681)
        self._dupacks = 0
        self._max_recent_flight = 0  # for RFC 2861 cwnd validation
        self._recover: Optional[int] = None  # recovery point (units)
        self._recover_kind: Optional[str] = None  # 'fast' | 'rto' | 'sack'
        self._recovery_inflation = 0
        self._consecutive_rtos = 0

        # --- receive side ----------------------------------------------
        self.irs: int = 0
        self.rcv_nxt: int = 0
        self.rcv_buf_limit = cfg.rcv_buf
        self.reassembly = ReassemblyQueue()
        self._rx_ready = bytearray()  # in-order, unread by app
        self._rx_eof = False
        self._rcv_adv_edge: int = 0  # right window edge promised (units)
        self._last_advertised_window = 0
        self._peer_fin_unit: Optional[int] = None
        self._ack_pending = 0
        self._ts_recent = 0
        # One-slot memo: segments sent in the same event burst share a
        # tsval/tsecr pair, and TimestampsOption is frozen (shareable).
        self._ts_option_cache: Optional[TimestampsOption] = None

        # --- negotiated options -----------------------------------------
        self.snd_wscale = 0  # shift applied to windows we receive
        self.rcv_wscale = 0  # shift applied to windows we send
        self.ts_enabled = False
        self.sack_enabled = False

        # --- timers -------------------------------------------------------
        self._rto_timer = Timer(self.sim, self._on_rto)
        self._delack_timer = Timer(self.sim, self._on_delack_timeout)
        # Rarely armed: the shared idle placeholder until the arming site.
        self._persist_timer = self._time_wait_timer = self._autotune_timer = IDLE_TIMER
        self._persist_backoff = 0
        self._timing_unit: Optional[int] = None  # Karn marker (timestamps off)
        self._timing_start = 0.0
        self._timing_retransmitted = False

        # --- app callbacks ----------------------------------------------
        self.on_established: Optional[Callable[["TCPSocket"], None]] = None
        self.on_data: Optional[Callable[["TCPSocket"], None]] = None
        self.on_eof: Optional[Callable[["TCPSocket"], None]] = None
        self.on_close: Optional[Callable[["TCPSocket"], None]] = None
        self.on_error: Optional[Callable[["TCPSocket", str], None]] = None
        self.on_writable: Optional[Callable[["TCPSocket"], None]] = None

        self._registered = False
        self.error: Optional[str] = None
        self.syn_retries = 0
        self.established_at: Optional[float] = None

        # --- buffer autotuning (single-path TCP flavour) -----------------
        # With autotune on, the configured snd_buf/rcv_buf become the
        # *maximums* (the sysctl model of §4.2) and the effective buffers
        # start small and grow on demand: send side toward 2*cwnd, receive
        # side toward 2*(delivery rate)*srtt.
        if cfg.autotune:
            self._autotune_timer = Timer(self.sim, self._autotune_tick)
            self.snd_buf_limit = min(AUTOTUNE_INITIAL, cfg.snd_buf)
            self.rcv_buf_limit = min(AUTOTUNE_INITIAL, cfg.rcv_buf)

    def _set_state(self, dst: TCPState) -> None:
        """The state machine's only transition site: the edge must be a
        row of :data:`repro.tcp.state.TRANSITIONS`."""
        if (self.state, dst) not in TRANSITIONS:
            raise IllegalTransition("tcp", self.state, dst)
        self.state = dst

    # ==================================================================
    # Public API
    # ==================================================================
    def connect(
        self,
        remote: Endpoint,
        local_ip: Optional[str] = None,
        local_port: Optional[int] = None,
    ) -> None:
        """Active open: send a SYN."""
        if self.state is not CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        local_ip = local_ip or self.host.primary_address
        local_port = local_port or self.host.allocate_port()
        self.local = Endpoint(local_ip, local_port)
        self.remote = remote
        self.host.register_connection(self.local, self.remote, self)
        self._registered = True
        self._init_isn()
        self._set_state(SYN_SENT)
        self._send_syn()

    def accept_syn(self, segment: Segment) -> None:
        """Passive open: adopt an incoming SYN (called via a Listener)."""
        if self.state is not CLOSED:
            raise RuntimeError(f"accept_syn() in state {self.state}")
        self.local = segment.dst
        self.remote = segment.src
        self.host.register_connection(self.local, self.remote, self)
        self._registered = True
        self._init_isn()
        self._process_peer_syn_options(segment)
        self.irs = segment.seq
        self.rcv_nxt = 1  # consume the SYN
        self._set_state(SYN_RCVD)
        self._send_synack()

    def send(self, data: bytes) -> int:
        """Queue application data; returns the number of bytes accepted
        (0 when the send buffer is full — register ``on_writable``)."""
        if not self.state.may_send_data and self.state is not SYN_SENT:
            raise RuntimeError(f"send() in state {self.state}")
        if self._fin_pending:
            raise RuntimeError("send() after close()")
        room = self.snd_buf_limit - len(self.snd_buf)
        accepted = data[:room] if room < len(data) else data
        if accepted:
            # append() snapshots mutable inputs; bytes and views over
            # bytes are stored by reference — no app-to-stack copy.
            self.snd_buf.append(accepted)
            self._try_send()
        return len(accepted)

    def send_buffer_room(self) -> int:
        return max(0, self.snd_buf_limit - len(self.snd_buf))

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Consume in-order received data (frees receive-buffer space and
        may trigger a window update).  ``None`` or a negative ``max_bytes``
        reads everything, as ``io`` does."""
        if max_bytes is None or max_bytes < 0 or max_bytes >= len(self._rx_ready):
            data = bytes(self._rx_ready)
            self._rx_ready.clear()
        else:
            data = bytes(self._rx_ready[:max_bytes])
            del self._rx_ready[:max_bytes]
        if data:
            self._maybe_send_window_update()
        return data

    @property
    def rx_available(self) -> int:
        return len(self._rx_ready)

    @property
    def eof_seen(self) -> bool:
        return self._rx_eof and not self._rx_ready

    def close(self) -> None:
        """No more data from the application; FIN once the buffer drains."""
        if self.state is CLOSED:
            self._destroy()
            return
        if self._fin_pending:
            return
        self._fin_pending = True
        if self.state is ESTABLISHED or self.state is SYN_RCVD:
            self._set_state(FIN_WAIT_1)
        elif self.state is CLOSE_WAIT:
            self._set_state(LAST_ACK)
        elif self.state is SYN_SENT:
            self._destroy()
            return
        self._try_send()

    def abort(self) -> None:
        """Send a RST and tear everything down (used for subflow resets)."""
        if self.state.synchronized or self.state is SYN_RCVD:
            reset = self._make_segment(flags=RST | ACK, seq_unit=self.snd_nxt)
            self.host.send(reset)
        self._destroy(error="aborted")

    # ==================================================================
    # Hooks overridden by MPTCP subflows
    # ==================================================================
    def _syn_options(self) -> list[TCPOption]:
        """Extra options for the SYN (beyond MSS/WS/TS/SACK)."""
        return []

    def _synack_options(self) -> list[TCPOption]:
        return []

    def _handshake_ack_options(self) -> list[TCPOption]:
        """Extra options for the third handshake ACK."""
        return []

    def _ack_options(self) -> list[TCPOption]:
        """Extra options for outgoing pure ACKs (DSS DATA_ACK)."""
        return []

    def _process_peer_syn_options(self, segment: Segment) -> None:
        """Inspect the peer's SYN (passive side).  Called before SYN/ACK."""
        self._negotiate_from_syn(segment)

    def _process_peer_synack_options(self, segment: Segment) -> None:
        """Inspect the peer's SYN/ACK (active side)."""
        self._negotiate_from_syn(segment)

    def _process_segment_options(self, segment: Segment) -> None:
        """Called for every post-handshake incoming segment."""

    def _on_handshake_complete(self) -> None:
        """Called once, when entering ESTABLISHED."""

    def _on_first_non_syn_segment(self, segment: Segment) -> None:
        """Passive side: first segment after our SYN/ACK (MPTCP fallback
        detection point, §3.1)."""

    def _pull_new_data(
        self, max_bytes: int
    ) -> Optional[tuple[Buffer, int, list[TCPOption], bool]]:
        """Produce up to ``max_bytes`` of new payload.

        Returns (payload, length, sticky_options, fin) or None when
        there is nothing (more) to send right now.  The length rides
        along so the send path never has to len() the payload.
        The base implementation reads the socket's own send buffer and
        applies Nagle's algorithm.
        """
        next_stream = self.snd_nxt - 1  # stream offset of first unsent byte
        available = self.snd_buf.tail - next_stream
        if available <= 0:
            if self._fin_ready():
                return (b"", 0, [], True)
            return None
        length = min(available, max_bytes)
        if (
            self.config.nagle
            and length < self.mss
            and length == available
            and self._flight_bytes() > 0
            and not self._fin_pending
        ):
            return None  # tinygram with data in flight: wait (Nagle)
        payload = self.snd_buf.peek(next_stream, length)
        fin = self._fin_pending and (length == available)
        return (payload, length, [], fin)

    def _fin_ready(self) -> bool:
        return self._fin_pending and not self._fin_sent

    def _on_in_order_data(self, data: Buffer) -> None:
        """Deliver in-order bytes upwards (app for TCP, connection for a
        subflow)."""
        self._rx_ready += data
        self.stats.bytes_delivered += len(data)
        if self.on_data is not None:
            self.on_data(self)

    def _on_peer_fin(self) -> None:
        self._rx_eof = True
        if self.on_eof is not None:
            self.on_eof(self)

    def _release_acked_stream(self, acked_unit: int) -> None:
        """Free send-buffer bytes covered by a (subflow) cumulative ACK.
        MPTCP overrides this: data is freed only by DATA_ACKs (§3.3.5)."""
        stream_offset = min(acked_unit - 1, self.snd_buf.tail)
        if stream_offset > self.snd_buf.head:
            self.snd_buf.release_to(stream_offset)
            if self.on_writable is not None and self.send_buffer_room() > 0:
                self.on_writable(self)

    def _send_window_limit(self) -> int:
        """Highest sequence unit the peer's flow control allows."""
        return self._peer_wnd_edge

    def _apply_window_update(self, ack_unit: int, window_bytes: int) -> None:
        """Record the peer's advertised window from a validated ACK."""
        edge = ack_unit + window_bytes
        if edge > self._peer_wnd_edge or ack_unit > self._last_window_ack:
            self._peer_wnd_edge = edge
            self._last_window_ack = ack_unit

    def _window_to_advertise(self) -> int:
        """Receive window in bytes (TCP: own buffer headroom)."""
        room = self.rcv_buf_limit - len(self._rx_ready) - self.reassembly.buffered_bytes
        return room if room > 0 else 0

    def _rx_memory_bytes(self) -> int:
        return len(self._rx_ready) + self.reassembly.buffered_bytes

    def _on_subflow_dead(self) -> None:
        """Too many consecutive RTOs.  Plain TCP: give up."""
        self._fail("too many retransmissions")

    # ==================================================================
    # Handshake
    # ==================================================================
    def _init_isn(self) -> None:
        self.iss = self.host.rng.getrandbits(32)
        self.snd_una = 0
        self.snd_nxt = 0
        self._peer_wnd_edge = 1 + self.config.mss  # until first real window

    def _base_syn_options(self) -> list[TCPOption]:
        cfg = self.config
        options: list[TCPOption] = [MSSOption(cfg.mss)]
        if cfg.window_scale > 0:
            options.append(WindowScaleOption(cfg.window_scale))
        if cfg.timestamps:
            options.append(TimestampsOption(tsval=self._tsval(), tsecr=0))
        options.append(SACKPermitted())
        return options

    def _negotiate_from_syn(self, segment: Segment) -> None:
        mss_option = segment.find_option(MSSOption)
        if mss_option is not None:
            self.mss = min(self.config.mss, mss_option.mss)
        wscale = segment.find_option(WindowScaleOption)
        if wscale is not None and self.config.window_scale > 0:
            self.snd_wscale = wscale.shift
            self.rcv_wscale = self.config.window_scale
        ts = segment.find_option(TimestampsOption)
        if ts is not None and self.config.timestamps:
            self.ts_enabled = True
            self._ts_recent = ts.tsval
        if segment.find_option(SACKPermitted) is not None:
            self.sack_enabled = True

    def _send_syn(self) -> None:
        options = self._base_syn_options() + self._syn_options()
        segment = self._make_segment(flags=SYN, seq_unit=0, options=options, with_ack=False)
        if not self._rtx_queue:
            self._rtx_queue.append(
                SentSegment(0, 1, b"", [], self.sim.now, syn=True)
            )
            self.snd_nxt = 1
        self.host.send(segment)
        self._rto_timer.restart(self.rtt.rto)

    def _send_synack(self) -> None:
        options = self._base_syn_options() + self._synack_options()
        segment = self._make_segment(flags=SYN | ACK, seq_unit=0, options=options)
        if not self._rtx_queue:
            self._rtx_queue.append(
                SentSegment(0, 1, b"", [], self.sim.now, syn=True)
            )
            self.snd_nxt = 1
        self.host.send(segment)
        self._rto_timer.restart(self.rtt.rto)

    def _autotune_tick(self) -> None:
        if self.state is CLOSED:
            return
        snd_target = 2 * self.cc.cwnd
        if snd_target > self.snd_buf_limit:
            self.snd_buf_limit = min(self.config.snd_buf, snd_target)
            if self.on_writable is not None and self.send_buffer_room() > 0:
                self.on_writable(self)
        srtt = self.rtt.smoothed
        rcv_target = int(2 * self._delivery_rate() * srtt)
        if rcv_target > self.rcv_buf_limit:
            self.rcv_buf_limit = min(self.config.rcv_buf, rcv_target)
            self._send_ack()  # advertise the grown window
        self._autotune_timer.restart(max(0.05, srtt))

    def _delivery_rate(self) -> float:
        if self.established_at is None:
            return 0.0
        elapsed = max(1e-3, self.sim.now - self.established_at)
        return self.stats.bytes_delivered / elapsed

    def _establish(self) -> None:
        self._set_state(ESTABLISHED)
        self.established_at = self.sim.now
        if self.config.autotune:
            self._autotune_timer.restart(0.05)
        self._consecutive_rtos = 0
        self._rcv_adv_edge = self.rcv_nxt + self._window_to_advertise()
        self._on_handshake_complete()
        if self.on_established is not None:
            self.on_established(self)
        self._try_send()

    # ==================================================================
    # Segment arrival
    # ==================================================================
    def segment_arrives(self, segment: Segment) -> None:
        self.stats.segments_received += 1
        if self.state is CLOSED:
            return
        if self.state is SYN_SENT:
            self._arrives_syn_sent(segment)
            return
        if self.state is TIME_WAIT:
            if segment.flags & FIN:
                self._send_ack()
            return
        self._arrives_synchronized(segment)

    def _arrives_syn_sent(self, segment: Segment) -> None:
        flags = segment.flags
        if flags & RST:
            if flags & ACK and self._unit_from_ack(segment.ack) == self.snd_nxt:
                self._fail("connection refused")
            return
        if not flags & SYN:
            return
        if flags & ACK:
            ack_unit = self._unit_from_ack(segment.ack)
            if ack_unit != 1:
                # Unacceptable ACK for our SYN: reset per RFC 793.
                reset = Segment(
                    src=self.local, dst=self.remote, seq=segment.ack, flags=RST, window=0
                )
                self.host.send(reset)
                return
            self.irs = segment.seq
            self.rcv_nxt = 1
            self._process_peer_synack_options(segment)
            if self.state is CLOSED:
                return  # the hook rejected the handshake (bad MP_JOIN)
            self.snd_una = 1
            self._pop_acked_segments(1)
            self._rto_timer.stop()
            self._apply_window_update(1, self._scaled_window(segment))
            # Third ACK first (it may carry MP_CAPABLE with both keys,
            # §3.1) so that it precedes any data the app sends from its
            # on_established callback.
            self._rcv_adv_edge = self.rcv_nxt + self._window_to_advertise()
            self._send_ack(extra_options=self._handshake_ack_options())
            self._establish()
        # (Simultaneous open is not modelled: the paper's scenarios are
        # client/server.)

    def _arrives_synchronized(self, segment: Segment) -> None:
        flags = segment.flags
        # --- RST --------------------------------------------------------
        if flags & RST:
            seq_unit = self._unit_from_seq(segment.seq)
            if self.rcv_nxt <= seq_unit <= self._rcv_adv_edge or self.state is SYN_RCVD:
                self._fail("connection reset")
            return

        # --- duplicate SYN (our SYN/ACK was lost) ------------------------
        if flags & SYN and self.state is SYN_RCVD:
            self._send_synack()
            return

        seq_unit = self._unit_from_seq(segment.seq)
        seg_len = segment.payload_len
        if flags & (SYN | FIN):  # sequence space consumed by SYN/FIN bits
            if flags & SYN:
                seg_len += 1
            if flags & FIN:
                seg_len += 1

        # --- acceptability check (RFC 793 window test) -------------------
        window = self._rcv_adv_edge - self.rcv_nxt
        acceptable = (
            (seg_len == 0 and (window > 0 or seq_unit == self.rcv_nxt) and seq_unit <= self.rcv_nxt + (window if window > 0 else 0))
            or (seg_len > 0 and seq_unit + seg_len > self.rcv_nxt and seq_unit <= self.rcv_nxt + window)
        )
        if seg_len == 0 and seq_unit < self.rcv_nxt:
            acceptable = True  # old pure ACK: still process the ACK field
        if not acceptable:
            self.stats.zero_window_probes += 1
            self._send_ack()
            return

        if self.state is SYN_RCVD:
            if segment.flags & ACK and self._unit_from_ack(segment.ack) >= 1:
                self.snd_una = max(self.snd_una, 1)
                self._pop_acked_segments(self.snd_una)
                self._apply_window_update(
                    self._unit_from_ack(segment.ack), self._scaled_window(segment)
                )
                self._establish()
                self._on_first_non_syn_segment(segment)
            else:
                return  # need the handshake-completing ACK first

        # --- timestamps / SACK (one scan for both option kinds) -----------
        ts: Optional[TimestampsOption] = None
        sack: Optional[SACKOption] = None
        for option in segment.options:
            cls = option.__class__
            if cls is TimestampsOption:
                if ts is None:
                    ts = option
            elif cls is SACKOption:
                if sack is None:
                    sack = option
        if not self.ts_enabled:
            ts = None
        elif ts is not None and seq_unit <= self.rcv_nxt:
            self._ts_recent = ts.tsval

        # --- ACK processing ----------------------------------------------
        if segment.flags & ACK:
            self._process_ack(segment, ts, sack if self.sack_enabled else None)

        if self.state is CLOSED:
            return

        # --- MPTCP / extension options -------------------------------------
        self._process_segment_options(segment)

        # --- payload -------------------------------------------------------
        if segment.payload_len > 0:
            self._process_payload(segment, seq_unit)

        # --- FIN -----------------------------------------------------------
        if flags & FIN:
            fin_unit = seq_unit + segment.payload_len
            if self._peer_fin_unit is None or fin_unit < self._peer_fin_unit:
                self._peer_fin_unit = fin_unit
            self._check_fin_consumable()
            self._schedule_ack(immediate=True)

    # ------------------------------------------------------------------
    # ACK path
    # ------------------------------------------------------------------
    def _process_ack(
        self,
        segment: Segment,
        ts: Optional[TimestampsOption],
        sack: Optional[SACKOption] = None,
    ) -> None:
        ack_unit = self._unit_from_ack(segment.ack)
        if ack_unit > self.snd_nxt:
            # Acks data we never sent ("corrected" by a middlebox?): ignore.
            self._send_ack()
            return
        # Any acceptable ACK is a sign of life: a peer with a closed
        # window keeps acking probes without advancing snd_una.
        self._consecutive_rtos = 0
        # _scaled_window(), inlined: per-ACK hot path
        window_bytes = segment.window << (0 if segment.flags & SYN else self.snd_wscale)

        if ack_unit > self.snd_una:
            acked = ack_unit - self.snd_una
            self.snd_una = ack_unit
            self._consecutive_rtos = 0
            self._pop_acked_segments(ack_unit)
            self._release_acked_stream(ack_unit)
            self._sample_rtt(ts, ack_unit)
            self._apply_window_update(ack_unit, window_bytes)
            if sack is not None:
                self._process_sack(sack)
            if self._recover is not None:
                if ack_unit >= self._recover:
                    self._exit_recovery()
                    self._grow_cwnd(acked)
                elif self._recover_kind == "rto":
                    # Post-RTO slow start: grow and let the lost-marking
                    # machinery in _try_send resend the remaining holes.
                    self._grow_cwnd(acked)
                elif self._recover_kind == "sack":
                    # The new head is a hole the receiver lacks: make sure
                    # it is queued for retransmission.
                    self._mark_head_lost()
                else:
                    # NewReno partial ACK: retransmit the next hole.
                    self._retransmit_head()
                    self._recovery_inflation = max(0, self._recovery_inflation - acked)
            else:
                self._dupacks = 0
                self._grow_cwnd(acked)
            self._maybe_cap_cwnd()
            if self._rtx_queue:
                self._rto_timer.restart(self.rtt.rto)
            else:
                self._rto_timer.stop()
            self._handle_fin_acked(ack_unit)
        else:
            if sack is not None:
                self._process_sack(sack)
            self._apply_window_update(ack_unit, window_bytes)
            # RFC 5681 duplicate-ACK definition: same ack, no payload,
            # no SYN/FIN, and the advertised window UNCHANGED — a pure
            # window update (grown or shrunk) is not a dupack.
            if (
                ack_unit == self.snd_una
                and segment.payload_len == 0
                and not segment.flags & (SYN | FIN)
                and window_bytes == self._last_seen_window
                and self._flight_bytes() > 0
            ):
                self._dupacks += 1
                self.stats.dupacks_received += 1
                if self._recover is not None:
                    if self._recover_kind == "fast":
                        self._recovery_inflation += self.mss
                elif self._dupacks >= self._dupack_threshold():
                    self._enter_fast_recovery()
        self._last_seen_window = window_bytes
        # _check_persist() is a no-op unless the peer window is closed,
        # a persist cycle is active, or the probe timer is armed; guard
        # here so the per-ACK path skips the call.  (``_seq is not None``
        # is Timer.running without the property descriptor.)
        if (
            self._persist_backoff
            or self._peer_wnd_edge <= self.snd_nxt
            or self._persist_timer._seq is not None
        ):
            self._check_persist()
        self._try_send()

    def _grow_cwnd(self, acked: int) -> None:
        """RFC 2861 congestion-window validation: grow only when the
        window was actually being filled.  Without this, a subflow that
        is scheduler- or receive-window-limited (the 3G path in §4.2)
        inflates its cwnd without bound and the batching scheduler then
        dumps megabytes onto the slowest path."""
        cwnd = self.cc.cwnd
        limited = self._max_recent_flight + acked >= cwnd - self.mss
        if cwnd < self.cc.ssthresh:
            # Slow start may run cwnd up to twice the demonstrated
            # flight (Linux's tcp_is_cwnd_limited), letting a fast
            # subflow outgrow the shared window and absorb it entirely —
            # the "all packets over WiFi" small-buffer regime of §4.2.
            limited = limited or cwnd < 2 * max(self._max_recent_flight, self.mss)
        self._max_recent_flight = self._flight_bytes()
        if limited:
            self.cc.on_ack(acked)

    def _dupack_threshold(self) -> int:
        """RFC 5827 early retransmit: with fewer than four segments in
        flight there can never be three dupacks — lower the threshold so
        small-flight losses (common on a scheduler-interleaved subflow)
        do not have to wait for the RTO."""
        flight_segments = max(1, (self.snd_nxt - self.snd_una + self.mss - 1) // self.mss)
        if flight_segments >= 4:
            return 3
        return max(1, flight_segments - 1)

    def _enter_fast_recovery(self) -> None:
        self._recover = self.snd_nxt
        self._recover_kind = "fast"
        self.cc.on_loss_event(min(self.snd_nxt - self.snd_una, self.cc.cwnd))
        self._recovery_inflation = 3 * self.mss
        self.stats.fast_retransmits += 1
        self._retransmit_head()

    def _exit_recovery(self) -> None:
        self._recover = None
        self._recover_kind = None
        self._recovery_inflation = 0
        self._dupacks = 0

    # ------------------------------------------------------------------
    # SACK scoreboard
    # ------------------------------------------------------------------
    def _process_sack(self, option: "SACKOption") -> None:
        """Record selectively-acknowledged ranges and infer losses.

        Loss inference is FACK-style: a segment with at least 3*MSS of
        SACKed sequence space above it is presumed lost and queued for
        retransmission through the lost-marking machinery.
        """
        for left32, right32 in option.blocks:
            left = self._unit_from_ack(left32)
            right = self._unit_from_ack(right32)
            if right <= left or right > self.snd_nxt + 1:
                continue
            for sent in self._rtx_queue.in_range(left, right):
                if sent.sacked:
                    continue
                sent.sacked = True
                self._sacked_bytes += sent.length
                if sent.lost:
                    sent.lost = False
                    self._lost_bytes -= sent.length
            if right > self._highest_sacked:
                self._highest_sacked = right
        newly_lost = False
        for sent in self._rtx_queue:
            if sent.sacked or sent.lost:
                continue
            if self._highest_sacked < sent.end + 3 * self.mss:
                break  # queue is ordered; nothing further qualifies
            if sent.retransmitted and self.sim.now - sent.sent_time < self.rtt.smoothed:
                continue  # just resent: give it a round trip
            sent.lost = True
            self._rtx_queue.note_lost(sent)
            self._lost_bytes += sent.length
            newly_lost = True
        if newly_lost and self._recover is None:
            self._recover = self.snd_nxt
            self._recover_kind = "sack"
            self.cc.on_loss_event(min(self.snd_nxt - self.snd_una, self.cc.cwnd))
            self.stats.fast_retransmits += 1

    def _mark_head_lost(self) -> None:
        if not self._rtx_queue:
            return
        head = self._rtx_queue[0]
        if not head.sacked and not head.lost:
            head.lost = True
            self._rtx_queue.note_lost(head)
            self._lost_bytes += head.length

    def _retransmit_head(self) -> None:
        if self._rtx_queue:
            self._retransmit_segment(self._rtx_queue[0])

    def _mark_all_lost(self) -> None:
        """Go-back-N after an RTO: presume every outstanding, un-SACKed
        segment lost.  They are resent through ``_try_send`` as the
        (collapsed) window reopens — this restores ACK clocking after a
        burst loss.  SACKed segments are skipped: our receiver never
        reneges on buffered data."""
        for sent in self._rtx_queue:
            if not sent.lost and not sent.sacked:
                sent.lost = True
                self._rtx_queue.note_lost(sent)
                self._lost_bytes += sent.length

    def _retransmit_segment(self, sent: SentSegment) -> None:
        if sent.lost:
            sent.lost = False
            self._lost_bytes -= sent.length
        sent.retransmitted = True
        sent.sent_time = self.sim.now
        self.stats.retransmissions += 1
        flags = ACK
        if sent.syn:
            self.syn_retries += 1
            if self.state is SYN_SENT:
                self._send_syn()
                return
            self._send_synack()
            return
        if sent.fin:
            flags |= FIN
        options = list(sent.sticky_options)
        segment = self._make_segment(
            flags=flags, seq_unit=sent.start, payload=sent.payload, options=options
        )
        self.host.send(segment)

    def _pop_acked_segments(self, ack_unit: int) -> None:
        queue = self._rtx_queue
        while queue and queue[0].end <= ack_unit:
            sent = queue.popleft()
            if sent.lost:
                self._lost_bytes -= sent.length
            if sent.sacked:
                self._sacked_bytes -= sent.length
        # Mid-segment ACK (a middlebox split the segment): trim the head.
        if queue and queue[0].start < ack_unit:
            head = queue[0]
            trim = ack_unit - head.start
            if head.lost:
                self._lost_bytes -= trim
            # O(1) when the payload is a memoryview: the trim is a
            # re-slice of the shared backing, not a copy.
            trim_payload = min(trim, len(head.payload))
            head.payload = head.payload[trim_payload:]
            head.start = ack_unit
            if head.lost:
                # The lost index is keyed by start: re-index under the
                # trimmed one, or first_lost() would miss a lost head.
                queue.note_lost(head)

    def _sample_rtt(self, ts: Optional[TimestampsOption], ack_unit: int) -> None:
        if ts is not None and ts.tsecr:
            rtt = self.sim.now - self._ts_decode(ts.tsecr)
            if rtt >= 0:
                self.rtt.sample(rtt)
            return
        # Fallback: time the oldest segment this ACK covers (Karn's rule).
        # _pop_acked_segments already removed it, so sample only when
        # timestamps are off; track via a simple timing marker instead.
        if self._timing_unit is not None and ack_unit >= self._timing_unit:
            if not self._timing_retransmitted:
                self.rtt.sample(self.sim.now - self._timing_start)
            self._timing_unit = None

    def _handle_fin_acked(self, ack_unit: int) -> None:
        if not self._fin_sent or self._fin_unit_sent is None:
            return
        if ack_unit < self._fin_unit_sent:
            return
        if self.state is FIN_WAIT_1:
            self._set_state(FIN_WAIT_2)
        elif self.state is CLOSING:
            self._enter_time_wait()
        elif self.state is LAST_ACK:
            self._destroy()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _process_payload(self, segment: Segment, seq_unit: int) -> None:
        if not self.state.can_receive_data:
            self._schedule_ack(immediate=True)
            return
        payload = segment.payload
        stream_offset = seq_unit - 1
        limit = self._rcv_adv_edge - 1  # stream-offset right edge
        reassembly = self.reassembly
        if (
            seq_unit == self.rcv_nxt
            and not reassembly.block_count
            and stream_offset + segment.payload_len <= limit
        ):
            # Fast path — the overwhelmingly common case on a clean
            # path: exactly the next expected bytes, nothing buffered,
            # fully inside the advertised window.  Inserting into the
            # reassembly queue and extracting straight back out would
            # store and immediately discard a run; hand the payload
            # through directly instead (identical bytes, same ACK).
            self.rcv_nxt += segment.payload_len
            self._on_in_order_data(payload)
            self._check_fin_consumable()
            self._schedule_ack(immediate=False)
            return
        in_order_before = seq_unit <= self.rcv_nxt
        if seq_unit > self.rcv_nxt:
            self.stats.out_of_order_segments += 1
        self.reassembly.insert(stream_offset, payload, limit=limit)
        data = self.reassembly.extract_in_order(self.rcv_nxt - 1)
        if data:
            self.rcv_nxt += len(data)
            self._on_in_order_data(data)
            self._check_fin_consumable()
        if in_order_before and not self.reassembly.block_count:
            self._schedule_ack(immediate=False)
        else:
            self._schedule_ack(immediate=True)  # dup ACK for fast rtx

    def _check_fin_consumable(self) -> None:
        if self._peer_fin_unit is None or self.rcv_nxt != self._peer_fin_unit:
            return
        self.rcv_nxt += 1
        self._on_peer_fin()
        if self.state is ESTABLISHED:
            self._set_state(CLOSE_WAIT)
        elif self.state is FIN_WAIT_1:
            # Our FIN not yet acked: simultaneous close.
            self._set_state(CLOSING)
        elif self.state is FIN_WAIT_2:
            self._enter_time_wait()

    # ------------------------------------------------------------------
    # ACK generation
    # ------------------------------------------------------------------
    def _schedule_ack(self, immediate: bool) -> None:
        self._ack_pending += 1
        if immediate or not self.config.delayed_ack or self._ack_pending >= 2:
            self._send_ack()
        elif not self._delack_timer.running:
            self._delack_timer.start(DELAYED_ACK_TIMEOUT)

    def _on_delack_timeout(self) -> None:
        if self._ack_pending:
            self._send_ack()

    def _send_ack(self, extra_options: Optional[list[TCPOption]] = None) -> None:
        if self.state is CLOSED or self.remote is None:
            return
        self._ack_pending = 0
        self._delack_timer.stop()
        # Option budget (40 bytes): timestamps and extension options
        # (DSS DATA_ACK, handshake MACs, ADD_ADDR, ...) take priority;
        # SACK gets as many blocks as still fit — Linux does the same
        # (3 blocks with timestamps, fewer with more options).
        # Every _ack_options implementation returns a fresh list, so it
        # may be extended in place.
        options: list[TCPOption] = self._ack_options()
        if extra_options:
            options.extend(extra_options)
        timestamp_cost = 12 if self.ts_enabled else 0
        budget = 40 - timestamp_cost - options_length(options)
        while budget < 0 and options:
            # Extensions alone overflow (e.g. MP_JOIN third ACK + DSS):
            # drop the leading droppable option — pure DATA_ACK DSS is
            # re-sent on every subsequent ACK, so losing one is free.
            options.pop(0)
            budget = 40 - timestamp_cost - options_length(options)
        if self.sack_enabled and self.reassembly.block_count and budget >= 12:
            max_blocks = min(3, (budget - 4) // 8)
            blocks = tuple(
                (
                    (self.irs + start + 1) % SEQ_MOD,
                    (self.irs + end + 1) % SEQ_MOD,
                )
                for start, end in self.reassembly.sack_blocks(max_blocks=max_blocks)
            )
            options.insert(0, SACKOption(blocks=blocks))
        segment = self._make_segment(flags=ACK, seq_unit=self.snd_nxt, options=options)
        self.stats.acks_sent += 1
        self.host.send(segment)

    def _maybe_send_window_update(self) -> None:
        """After the app reads, re-advertise if the window grew usefully."""
        if not self.state.synchronized:
            return
        new_window = self._window_to_advertise()
        growth = (self.rcv_nxt + new_window) - self._rcv_adv_edge
        if growth >= 2 * self.mss or (
            growth > 0 and self._last_advertised_window < self.mss
        ):
            self._send_ack()

    # ==================================================================
    # Transmission
    # ==================================================================
    def _flight_bytes(self) -> int:
        """Estimate of bytes actually in the network ("pipe"): outstanding
        sequence units minus those presumed lost and those the receiver
        has selectively acknowledged."""
        flight = self.snd_nxt - self.snd_una - self._lost_bytes - self._sacked_bytes
        return flight if flight > 0 else 0

    def usable_cwnd_space(self) -> int:
        """Bytes of congestion window not yet occupied by flight."""
        space = self.cc.cwnd + self._recovery_inflation - self._flight_bytes()
        return space if space > 0 else 0

    def _try_send(self) -> None:
        if not self.state.synchronized:  # CLOSED, SYN_SENT, SYN_RCVD (no row enters LISTEN)
            return
        if self._fin_sent and self.state in (TIME_WAIT, LAST_ACK):
            return
        mss = self.mss
        half_mss = mss // 2
        while True:
            # Packet-granularity cwnd (as Linux does): a full-MSS segment
            # may go while flight, in segments, is below cwnd in segments,
            # so a cwnd byte remainder never fragments a segment (sender-
            # side silly window syndrome).  RFC 3042 limited transmit: the
            # first two dupacks each release one new segment, keeping the
            # ACK clock alive.  Tested before every segment this loop
            # emits, and once more to end it.
            cwnd = self.cc.cwnd + self._recovery_inflation
            if self._recover is None and self._dupacks:
                cwnd += (2 if self._dupacks > 2 else self._dupacks) * mss
            cwnd_segments = (cwnd + half_mss) // mss
            if cwnd_segments < 1:
                cwnd_segments = 1
            flight = self.snd_nxt - self.snd_una - self._lost_bytes - self._sacked_bytes
            if flight < 0:
                flight = 0
            if (flight + mss - 1) // mss >= cwnd_segments:
                break
            # Lost segments (post-RTO go-back-N) are resent before new data.
            if self._lost_bytes > 0:
                lost = self._rtx_queue.first_lost()
                if lost is not None:
                    self._retransmit_segment(lost)
                    continue
            window_space = self._send_window_limit() - self.snd_nxt
            if window_space <= 0:
                self._check_persist()
                break
            max_bytes = mss if mss < window_space else window_space
            pulled = self._pull_new_data(max_bytes)
            if pulled is None:
                break
            payload, payload_len, sticky_options, fin = pulled
            if fin and self._fin_sent:
                fin = False
            if not payload_len and not fin:
                break
            self._send_data_segment(payload, payload_len, sticky_options, fin)
            if fin:
                break

    def _send_data_segment(
        self, payload: Buffer, payload_len: int, sticky_options: list[TCPOption], fin: bool
    ) -> None:
        start = self.snd_nxt
        end = start + payload_len + (1 if fin else 0)
        flags = ACK | (FIN if fin else 0) | (PSH if payload_len else 0)
        segment = self._make_segment(
            flags=flags,
            seq_unit=start,
            payload=payload,
            options=sticky_options,
            payload_len=payload_len,
        )
        self.snd_nxt = end
        flight_now = end - self.snd_una
        if flight_now > self._max_recent_flight:
            self._max_recent_flight = flight_now
        sent = SentSegment(
            start, end, payload, sticky_options, self.sim.now, fin=fin
        )
        self._rtx_queue.append(sent)
        if fin:
            self._fin_sent = True
            self._fin_unit_sent = end
        if self._timing_unit is None:
            self._timing_unit = end
            self._timing_start = self.sim.now
            self._timing_retransmitted = False
        self.stats.bytes_sent += payload_len
        self.host.send(segment)
        if not self._rto_timer.running:
            self._rto_timer.start(self.rtt.rto)
        self._ack_pending = 0
        self._delack_timer.stop()

    def _make_segment(
        self,
        flags: int,
        seq_unit: int,
        payload: Buffer = b"",
        options: Optional[list[TCPOption]] = None,
        with_ack: bool = True,
        payload_len: Optional[int] = None,
    ) -> Segment:
        assert self.local is not None and self.remote is not None
        options = list(options) if options else []
        if self.ts_enabled:
            for option in options:
                if type(option) is TimestampsOption:
                    break
            else:
                options.insert(0, self._ts_option())
        window_bytes = self._window_to_advertise()
        if flags & SYN:
            field = 0xFFFF if window_bytes > 0xFFFF else window_bytes
            actual = field
        else:
            field = window_bytes >> self.rcv_wscale
            if field > 0xFFFF:
                field = 0xFFFF
            actual = field << self.rcv_wscale
        if with_ack and (flags & (ACK | RST)):
            new_edge = self.rcv_nxt + actual
            if new_edge > self._rcv_adv_edge:
                self._rcv_adv_edge = new_edge
            self._last_advertised_window = actual
        ack_field = self._wire_rcv_seq(self.rcv_nxt) if flags & ACK else 0
        self.stats.segments_sent += 1
        return Segment(
            src=self.local,
            dst=self.remote,
            seq=self._wire_seq(seq_unit),
            ack=ack_field,
            flags=flags,
            window=field,
            options=options,
            payload=payload,
            payload_len=payload_len,
        )

    # ==================================================================
    # Timers
    # ==================================================================
    def _on_rto(self) -> None:
        if not self._rtx_queue:
            return
        if (
            self._send_window_limit() <= self.snd_una
            and self._rtx_queue[0].length <= 1
        ):
            # Only a zero-window probe is outstanding: the peer's window
            # is closed, not the network broken.  Re-probe with backoff
            # but do not collapse cwnd or burn the retry budget.
            self._retransmit_head()
            self.rtt.backoff()
            self._rto_timer.restart(self.rtt.rto)
            self.stats.zero_window_probes += 1
            return
        self._consecutive_rtos += 1
        self.stats.timeouts += 1
        limit = (
            self.config.max_syn_retries
            if self.state in (SYN_SENT, SYN_RCVD)
            else self.config.max_retries
        )
        if self._consecutive_rtos > limit:
            self._on_subflow_dead()
            return
        if self._recover_kind != "rto":
            # Collapse once per timeout episode; backed-off re-fires must
            # not grind ssthresh down to its floor.
            self.cc.on_timeout(min(self.snd_nxt - self.snd_una, self.cc.cwnd))
        else:
            self.cc.cwnd = self.mss  # stay collapsed while backing off
        self._recover = self.snd_nxt  # suppress spurious fast retransmits
        self._recover_kind = "rto"
        self._recovery_inflation = 0
        self._dupacks = 0
        self._timing_retransmitted = True
        self._mark_all_lost()
        self._retransmit_head()
        self.rtt.backoff()
        self._rto_timer.restart(self.rtt.rto)

    def _check_persist(self) -> None:
        """Zero-window handling: arm a probe when flow control blocks us
        and nothing is in flight to elicit an ACK."""
        blocked = (
            self._send_window_limit() <= self.snd_nxt
            and self._flight_bytes() == 0
            and (self.snd_buf.tail > self.snd_nxt - 1 or self._fin_ready())
            and self.state.synchronized
        )
        if blocked:
            if not self._persist_timer.running:
                if self._persist_timer is IDLE_TIMER:
                    self._persist_timer = Timer(self.sim, self._on_persist_timeout)
                delay = min(60.0, self.rtt.rto * (2 ** min(self._persist_backoff, 6)))
                self._persist_timer.start(delay)
        else:
            self._persist_backoff = 0
            self._persist_timer.stop()

    def _on_persist_timeout(self) -> None:
        self._persist_backoff += 1
        self.stats.zero_window_probes += 1
        next_stream = self.snd_nxt - 1
        if self.snd_buf.tail > next_stream:
            payload = self.snd_buf.peek(next_stream, 1)
            self._send_data_segment(payload, 1, [], False)
        else:
            self._send_ack()
        self._check_persist()

    def _enter_time_wait(self) -> None:
        self._set_state(TIME_WAIT)
        self._rto_timer.stop()
        self._persist_timer.stop()
        self._time_wait_timer = Timer(self.sim, self._on_time_wait_expired)
        self._time_wait_timer.start(2 * MSL)

    def _on_time_wait_expired(self) -> None:
        self._destroy()

    # ==================================================================
    # Teardown
    # ==================================================================
    def _fail(self, reason: str) -> None:
        self.error = reason
        if self.on_error is not None:
            self.on_error(self, reason)
        self._destroy(error=reason)

    def _destroy(self, error: Optional[str] = None) -> None:
        if self.state is CLOSED:
            return  # a socket leaves CLOSED in the call that registers it
        self._set_state(CLOSED)
        if error and not self.error:
            self.error = error
        for timer in (
            self._rto_timer,
            self._delack_timer,
            self._persist_timer,
            self._time_wait_timer,
            self._autotune_timer,
        ):
            timer.stop()
        if self._registered and self.local is not None and self.remote is not None:
            self.host.unregister_connection(self.local, self.remote)
            self._registered = False
        if self.on_close is not None:
            callback, self.on_close = self.on_close, None
            callback(self)

    # ==================================================================
    # Wire <-> absolute conversions
    # ==================================================================
    def _wire_seq(self, unit: int) -> int:
        return (self.iss + unit) % SEQ_MOD

    def _wire_rcv_seq(self, unit: int) -> int:
        return (self.irs + unit) % SEQ_MOD

    def _unit_from_seq(self, seq32: int) -> int:
        # seq_diff(), inlined: runs for every arriving segment
        rcv_nxt = self.rcv_nxt
        diff = (seq32 - self.irs - rcv_nxt) % SEQ_MOD
        if diff >= _SEQ_HALF:
            diff -= SEQ_MOD
        return rcv_nxt + diff

    def _unit_from_ack(self, ack32: int) -> int:
        # seq_diff(), inlined: runs for every arriving ACK
        snd_una = self.snd_una
        diff = (ack32 - self.iss - snd_una) % SEQ_MOD
        if diff >= _SEQ_HALF:
            diff -= SEQ_MOD
        return snd_una + diff

    def _scaled_window(self, segment: Segment) -> int:
        shift = 0 if segment.flags & SYN else self.snd_wscale
        return segment.window << shift

    def _tsval(self) -> int:
        return int(self.sim.now * 1_000_000) & 0xFFFFFFFF

    def _ts_option(self) -> TimestampsOption:
        tsval = int(self.sim.now * 1_000_000) & 0xFFFFFFFF
        cached = self._ts_option_cache
        if (
            cached is not None
            and cached.tsval == tsval
            and cached.tsecr == self._ts_recent
        ):
            return cached
        option = TimestampsOption(tsval=tsval, tsecr=self._ts_recent)
        self._ts_option_cache = option
        return option

    @staticmethod
    def _ts_decode(tsval: int) -> float:
        return tsval / 1_000_000

    # ==================================================================
    # Introspection
    # ==================================================================
    @property
    def srtt(self) -> float:
        return self.rtt.smoothed

    def tx_memory_bytes(self) -> int:
        """Send-side memory footprint: buffered stream bytes."""
        return len(self.snd_buf)

    def rx_memory_bytes(self) -> int:
        return self._rx_memory_bytes()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TCPSocket {self.name} {self.state.value} {self.local}->{self.remote} "
            f"una={self.snd_una} nxt={self.snd_nxt} rcv={self.rcv_nxt} cwnd={self.cc.cwnd}>"
        )

    # M4 support ---------------------------------------------------------
    def _maybe_cap_cwnd(self) -> None:
        """Mechanism M4 (§4.2): when the smoothed RTT has grown to twice
        the path's base RTT we are only filling a network buffer; cap the
        congestion window near the true BDP (FreeBSD's inflight limiter)."""
        if not self.config.cwnd_capping:
            return
        min_rtt = self.rtt.min_rtt
        srtt = self.rtt.srtt
        if min_rtt is None or srtt is None or srtt <= 2 * min_rtt:
            return
        target = int(self.cc.cwnd * 2 * min_rtt / srtt)
        self.cc.set_cwnd(max(2 * self.mss, target))
