"""The MPTCP connection: shared send/receive queues, data-level
sequencing and acknowledgment, subflow management, fallback, and the
receive-buffer mechanisms.

Data sequencing uses absolute (unwrapped) *data offsets*: offset 0 is
the first application byte; the wire DSN for offset ``x`` is
``IDSN + 1 + x (mod 2^32)`` (the IDSN is derived from the key, so both
sides agree without ever exchanging it).  The DATA_FIN occupies one data
offset past the last byte, mirroring TCP's FIN (§3.4).

Flow control is connection-level (§3.3.1): one receive pool shared by
all subflows; the window advertised on every subflow is the pool's
headroom, and the sender interprets it relative to the cumulative
DATA_ACK — this is exactly the deadlock-free semantics the paper
derives.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.node import Host
from repro.net.packet import Endpoint
from repro.net.payload import Buffer
from repro.sim import Timer
from repro.tcp.buffer import ByteStream, ReassemblyQueue
from repro.tcp.cc import INITIAL_CWND_SEGMENTS
from repro.tcp.seq import SEQ_MOD, seq_add

_SEQ_HALF = 1 << 31
from repro.tcp.socket import AUTOTUNE_INITIAL, IDLE_TIMER, TCPConfig, require_positive
from repro.tcp.state import IllegalTransition
from repro.mptcp.coupled import CoupledGroup, LIAController
from repro.mptcp.keys import host_tokens, idsn_from_key, token_from_key
from repro.mptcp.ooo import OOOQueue, make_ooo_queue
from repro.mptcp.options import DSS, AddAddr, FastClose, MPTCPOption, RemoveAddr
from repro.mptcp.checksum import dss_checksum
from repro.mptcp.scheduler import Scheduler
from repro.mptcp.state import (
    M_CLOSED,
    M_ESTABLISHED,
    M_FALLBACK,
    M_FALLBACK_CLOSED,
    M_FALLBACK_INIT,
    M_INIT,
    TRANSITIONS,
    MPTCPConnState,
)
from repro.mptcp.subflow import Subflow

# Floor of the data-level retransmission timer (§3.3.5), in seconds.
DATA_RTO_MIN = 1.0


@dataclass
class MPTCPConfig:
    """Connection-level knobs; ``tcp`` is the per-subflow template."""

    tcp: TCPConfig = field(default_factory=TCPConfig)
    # Protocol
    checksum: bool = True  # DSS checksums (disable in datacenters, §3.3.6)
    # Supported MPTCP versions, in no particular order; the initiator
    # offers max(versions) in its MP_CAPABLE and the listener answers
    # with the highest version both sides share — no common version
    # means a clean fallback to plain TCP, the deployment failure the
    # v0-only-server vs v1-only-client split made common in practice.
    versions: tuple = (0,)
    # Buffers (connection-level pools)
    snd_buf: int = 256 * 1024
    rcv_buf: int = 256 * 1024
    # Mechanisms of §4.2
    enable_m1: bool = True  # opportunistic retransmission
    enable_m2: bool = True  # penalizing slow subflows
    autotune: bool = False  # M3: grow buffers as needed
    capping: bool = False  # M4: cap cwnd at ~1 BDP of queueing
    # Congestion control
    coupled_cc: bool = True  # LIA [23]; False = uncoupled NewReno
    # Receive algorithm (§4.3)
    ooo_algorithm: str = "allshortcuts"
    # Scheduler batching: contiguous-DSN reservation per subflow, in
    # segments (1 disables batching — the ablation for §4.3's shortcut
    # hit rate).
    batch_segments: int = 64
    # Path management
    max_subflows: int = 8
    subflow_max_retries: int = 5  # consecutive RTOs before a subflow fails

    def __post_init__(self) -> None:
        require_positive(self, "snd_buf", "rcv_buf", "max_subflows")

    def subflow_tcp_config(self) -> TCPConfig:
        cfg = dataclasses.replace(self.tcp)
        cfg.max_retries = self.subflow_max_retries
        cfg.cwnd_capping = self.capping
        # Subflow buffers do not gate anything (the connection pools do),
        # but the advertised-window math needs headroom.
        cfg.rcv_buf = max(cfg.rcv_buf, self.rcv_buf)
        return cfg


@dataclass(slots=True)
class MPTCPStats:
    bytes_sent: int = 0
    bytes_delivered: int = 0
    duplicate_bytes: int = 0
    out_of_order_chunks: int = 0
    in_order_chunks: int = 0
    unmapped_bytes_dropped: int = 0
    checksums_verified: int = 0
    checksum_bytes_rx: int = 0
    checksum_bytes_tx: int = 0
    checksum_failures: int = 0
    opportunistic_retransmissions: int = 0
    penalizations: int = 0
    data_rtos: int = 0
    subflow_failures: int = 0
    join_failures: int = 0
    fallbacks: int = 0
    add_addr_received: int = 0
    window_limited_time_marks: int = 0


class MPTCPConnection:
    """One multipath connection, presented to the app like a socket."""

    __slots__ = (
        "host", "sim", "config", "role", "name", "stats", "local_key", "local_token",
        "remote_key", "remote_token", "local_idsn", "remote_idsn", "checksum_enabled", "subflows",
        "_next_address_id", "_subflow_config", "cc_group", "scheduler", "send_stream", "data_una",
        "data_nxt", "snd_buf_limit", "peer_rwnd_edge", "_close_requested", "_data_recovery_point",
        "data_fin_offset", "_data_fin_sent", "_data_fin_acked", "rcv_data_nxt", "rcv_buf_limit",
        "reassembly", "ooo_index", "_rx_ready", "_rx_eof", "rcv_data_adv_edge", "peer_data_fin",
        "conn_state", "_dack_option_cache", "negotiated_version", "fallback_reason",
        "_fallback_tx_base", "_mp_fail_pending", "remote_addresses", "local_extra_addresses",
        "remote_primary", "_announcements", "_data_rtx_timer", "_autotune_timer", "_rx_rate",
        "_rx_mark_time", "_rx_mark_bytes", "_on_accept", "on_established", "on_data", "on_eof",
        "on_close", "on_error", "on_writable", "__dict__", "__weakref__",
    )

    def __init__(
        self,
        host: Host,
        config: Optional[MPTCPConfig] = None,
        role: str = "client",
        on_accept: Optional[Callable[["MPTCPConnection"], None]] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.config = config or MPTCPConfig()
        self.role = role
        self.name = f"mptcp-{role}@{host.name}"
        self.stats = MPTCPStats()

        # --- keys / tokens (§3.2, Fig. 10's measured path) -------------
        tokens = host_tokens(host)
        self.local_key, self.local_token = tokens.generate_unique_key()
        tokens.register(self.local_token, self)
        self.remote_key: int = 0
        self.remote_token: int = 0
        self.local_idsn = idsn_from_key(self.local_key)
        self.remote_idsn = 0
        self.checksum_enabled = self.config.checksum

        # --- subflows ----------------------------------------------------
        self.subflows: list[Subflow] = []
        self._next_address_id = 0
        self.cc_group = CoupledGroup()
        self._subflow_config = self._build_subflow_config()  # one, shared by every subflow
        self.scheduler = Scheduler(self)

        # --- send side (absolute data offsets) ---------------------------
        self.send_stream = ByteStream()
        self.data_una = 0
        self.data_nxt = 0
        self.snd_buf_limit = self.config.snd_buf
        self.peer_rwnd_edge = 64 * 1024  # refined by the first DATA_ACK
        self._close_requested = False
        self._data_recovery_point: Optional[int] = None
        self.data_fin_offset: Optional[int] = None
        self._data_fin_sent = False
        self._data_fin_acked = False

        # --- receive side -------------------------------------------------
        self.rcv_data_nxt = 0
        self.rcv_buf_limit = self.config.rcv_buf
        self.reassembly = ReassemblyQueue()
        self.ooo_index: OOOQueue = make_ooo_queue(self.config.ooo_algorithm)
        self._rx_ready = bytearray()
        self._rx_eof = False
        self.rcv_data_adv_edge = 0
        self.peer_data_fin: Optional[int] = None

        # --- state ---------------------------------------------------------
        # The initial state; every later write goes through _set_state.
        self.conn_state = M_INIT
        self._dack_option_cache: Optional[DSS] = None
        # Version agreed during the MP_CAPABLE exchange; None until the
        # handshake resolves it (or forever, when MPTCP fell back).
        self.negotiated_version: Optional[int] = None
        self.fallback_reason: Optional[str] = None
        self._fallback_tx_base: Optional[int] = None
        self._mp_fail_pending = False

        # --- path management ------------------------------------------------
        self.remote_addresses: dict[int, str] = {}  # addr_id -> ip
        self.local_extra_addresses: list[str] = []
        self.remote_primary: Optional[Endpoint] = None
        self._announcements: list[tuple[MPTCPOption, set[int]]] = []

        # --- timers ----------------------------------------------------------
        self._data_rtx_timer = Timer(self.sim, self._on_data_rto)
        autotune = self.config.autotune
        self._autotune_timer = Timer(self.sim, self._autotune_tick) if autotune else IDLE_TIMER

        # --- autotuning (M3) ---------------------------------------------------
        # The configured buffers become maximums; the effective ones start
        # small and only grow (_autotune_tick).  The receive side's
        # delivered-rate EWMA: no rate until the first tick marks a window.
        self._rx_rate = 0.0
        self._rx_mark_time: Optional[float] = None
        self._rx_mark_bytes = 0
        if autotune:
            self.snd_buf_limit = min(AUTOTUNE_INITIAL, self.config.snd_buf)
            self.rcv_buf_limit = min(AUTOTUNE_INITIAL, self.config.rcv_buf)

        # --- app callbacks -------------------------------------------------------
        # A listener's accept callback (server side only): fires once, at
        # establishment, before on_established.
        self._on_accept = on_accept
        self.on_established: Optional[Callable[["MPTCPConnection"], None]] = None
        self.on_data: Optional[Callable[["MPTCPConnection"], None]] = None
        self.on_eof: Optional[Callable[["MPTCPConnection"], None]] = None
        self.on_close: Optional[Callable[["MPTCPConnection"], None]] = None
        self.on_error: Optional[Callable[["MPTCPConnection", str], None]] = None
        self.on_writable: Optional[Callable[["MPTCPConnection"], None]] = None

    # ------------------------------------------------------------------
    # Derived state flags (read-only: conn_state is the source of truth)
    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        return self.conn_state.is_established

    @property
    def fallback(self) -> bool:
        return self.conn_state.is_fallback

    @property
    def closed(self) -> bool:
        return self.conn_state.is_closed

    def _set_state(self, dst: MPTCPConnState) -> None:
        """The connection machine's only transition site: the edge must
        be a row of :data:`repro.mptcp.state.TRANSITIONS`."""
        if (self.conn_state, dst) not in TRANSITIONS:
            raise IllegalTransition("mptcp", self.conn_state, dst)
        self.conn_state = dst

    # ==================================================================
    # Opening
    # ==================================================================
    def start(
        self,
        remote: Endpoint,
        local_ip: Optional[str] = None,
        extra_local_ips: Optional[list[str]] = None,
    ) -> None:
        """Client side: open the initial subflow."""
        self.remote_primary = remote
        self.local_extra_addresses = list(extra_local_ips or [])
        subflow = self._new_subflow(Subflow.KIND_INITIAL)
        subflow.connect(remote, local_ip=local_ip)

    def adopt_server_syn(self, syn_segment) -> Subflow:
        """Server side: called by the listener factory with the
        MP_CAPABLE SYN; returns the subflow to accept it."""
        subflow = self._new_subflow(Subflow.KIND_INITIAL)
        self.remote_primary = syn_segment.src
        return subflow

    def adopt_join_syn(self) -> Subflow:
        """Server side: a verified-token MP_JOIN SYN."""
        return self._new_subflow(Subflow.KIND_JOIN)

    def _new_subflow(self, kind: str) -> Subflow:
        subflow = Subflow(
            self.host,
            self,
            kind=kind,
            config=self._subflow_config,
            address_id=self._next_address_id,
        )
        self._next_address_id += 1
        self.subflows.append(subflow)  # its failures reach us via mark_failed
        return subflow

    def _build_subflow_config(self) -> TCPConfig:
        cfg = self.config.subflow_tcp_config()
        if self.config.coupled_cc:
            cfg.cc_factory = self._new_lia
        return cfg

    def _new_lia(self, mss: int) -> LIAController:
        return LIAController(mss, INITIAL_CWND_SEGMENTS, self.cc_group, self.sim)

    def on_subflow_established(self, subflow: Subflow) -> None:
        if self.config.coupled_cc and isinstance(subflow.cc, LIAController):
            subflow.cc.rtt = subflow.rtt
        # Seed the connection-level window edge from the handshake's
        # advertised window (before any DATA_ACK, the SYN/ACK's window
        # is all we know — without this the scheduler thinks it is
        # receive-window-limited for the whole first RTT).
        if not self.fallback:
            handshake_window = max(0, subflow._peer_wnd_edge - 1)
            edge = self.data_una + handshake_window
            if edge > self.peer_rwnd_edge:
                self.peer_rwnd_edge = edge
        if self.closed:
            subflow.abort()  # connection already gone: refuse stragglers
            return
        if self._data_fin_acked or (self.fallback and self._close_requested):
            # The connection finished sending while this subflow was
            # still handshaking: close it immediately.
            self.sim.call_soon(subflow.close)
        if not self.established:
            if self.conn_state is M_FALLBACK_INIT:
                # The handshake already dropped to TCP: the subflow comes
                # up carrying the plain byte stream.
                self._set_state(M_FALLBACK)
            else:
                self._set_state(M_ESTABLISHED)
            if self.config.autotune:
                self._autotune_timer.restart(0.1)
            if self._on_accept is not None:
                self._on_accept(self)
            if self.on_established is not None:
                self.on_established(self)
            # Client: grow the mesh (extra local interfaces → new
            # subflows to the peer's primary address).
            if self.role == "client" and not self.fallback:
                self.sim.call_soon(self.maybe_open_subflows)
            # Server: advertise additional addresses (ADD_ADDR, §3.2 —
            # NATs mean the server can rarely SYN toward the client).
            if not self.fallback:
                for ip in self.local_extra_addresses:
                    self.announce_address(ip)
        self.kick()

    # ==================================================================
    # Path management (§3.2, §3.4)
    # ==================================================================
    def maybe_open_subflows(self) -> None:
        """Full-mesh-ish path manager: one subflow per usable
        (local address, remote address) pair."""
        if self.fallback or self.closed or self.role != "client":
            return
        if self.remote_primary is None:
            return
        remote_ips = [self.remote_primary.ip] + list(self.remote_addresses.values())
        used = {
            (s.local.ip, s.remote.ip)
            for s in self.subflows
            if s.local is not None and s.remote is not None and not s.failed
        }
        port = self.remote_primary.port
        primary_local = next(
            (s.local.ip for s in self.subflows if s.local is not None), None
        )
        local_candidates = list(self.local_extra_addresses)
        if primary_local is not None and primary_local not in local_candidates:
            local_candidates.insert(0, primary_local)
        for local_ip in local_candidates:
            for remote_ip in remote_ips:
                if len([s for s in self.subflows if not s.failed]) >= self.config.max_subflows:
                    return
                if (local_ip, remote_ip) in used:
                    continue
                try:
                    iface = self.host.interface(local_ip)
                except KeyError:
                    continue
                if iface.route_for(remote_ip) is None:
                    continue
                # Only open subflows from extra interfaces or toward
                # extra addresses (the primary pair already exists).
                subflow = self._new_subflow(Subflow.KIND_JOIN)
                subflow.connect(Endpoint(remote_ip, port), local_ip=local_ip)
                used.add((local_ip, remote_ip))

    def announce_address(self, ip: str) -> None:
        address_id = self._next_address_id
        self._next_address_id += 1
        option = AddAddr(address_id=address_id, ip=ip)
        self._announcements.append((option, set()))
        self._prompt_announcements()

    def on_add_addr(self, option: AddAddr) -> None:
        self.stats.add_addr_received += 1
        self.remote_addresses[option.address_id] = option.ip
        if self.role == "client":
            self.sim.call_soon(self.maybe_open_subflows)

    def remove_local_address(self, ip: str) -> None:
        """Mobility: this address is gone.  Kill its subflows (we cannot
        even send a FIN from it, §3.4) and tell the peer."""
        for subflow in list(self.subflows):
            if subflow.local is not None and subflow.local.ip == ip and not subflow.failed:
                subflow.mark_failed("local address removed")
                subflow._destroy(error="address removed")
        address_id = next(
            (s.address_id for s in self.subflows if s.local and s.local.ip == ip), 0
        )
        self._announcements.append((RemoveAddr(address_id=address_id), set()))
        self._prompt_announcements()
        self.kick()

    def on_remove_addr(self, option: RemoveAddr) -> None:
        # The peer lost an address: close our subflows towards it (the
        # announced id is the peer's; match via remembered advertisements
        # and subflow address ids).
        ip = self.remote_addresses.pop(option.address_id, None)
        for subflow in list(self.subflows):
            if subflow.failed or subflow.remote is None:
                continue
            if (ip is not None and subflow.remote.ip == ip) or (
                subflow.peer_address_id == option.address_id
            ):
                subflow.mark_failed("remote address removed")
                subflow._destroy(error="peer address removed")
        self.kick()

    def set_subflow_backup(self, subflow: Subflow, backup: bool) -> None:
        """MP_PRIO: locally flip a subflow's priority and tell the peer
        (so it also stops sending data our way on it)."""
        subflow.backup = backup
        from repro.mptcp.options import MPPrio

        if subflow.state.synchronized and not self.fallback:
            subflow._send_ack(
                extra_options=[MPPrio(backup=backup, address_id=subflow.address_id)],
            )
        self.kick()

    def take_announcements(self, subflow: Subflow) -> list[MPTCPOption]:
        """Pending ADD_ADDR/REMOVE_ADDR options not yet sent on this
        subflow (each rides one ACK per subflow)."""
        if not self._announcements:
            return []
        taken: list[MPTCPOption] = []
        for option, sent_on in self._announcements:
            if subflow.subflow_id not in sent_on:
                sent_on.add(subflow.subflow_id)
                taken.append(option)
        self._announcements = [
            (option, sent_on)
            for option, sent_on in self._announcements
            if len(sent_on) < len([s for s in self.subflows if not s.failed])
        ]
        return taken

    def _prompt_announcements(self) -> None:
        for subflow in self.ack_capable_subflows():
            if subflow.established_at is not None:
                subflow._send_ack()

    # ==================================================================
    # Keys / wire conversions
    # ==================================================================
    def learn_remote_key(self, key: int) -> None:
        self.remote_key = key
        self.remote_token = token_from_key(key)
        self.remote_idsn = idsn_from_key(key)

    def negotiate_checksum(self, peer_requires: bool) -> None:
        """RFC rule: checksums are used if either endpoint demands them."""
        self.checksum_enabled = self.config.checksum or peer_requires

    def version_answer(self, peer_offer: int) -> Optional[int]:
        """Listener side of version negotiation: the highest supported
        version at or below the initiator's offer, or None when the two
        sets share nothing (the listener then answers without
        MP_CAPABLE and the connection is plain TCP)."""
        shared = [v for v in self.config.versions if v <= peer_offer]
        return max(shared) if shared else None

    def tx_wire_dsn(self, offset: int) -> int:
        return seq_add(self.local_idsn, 1 + offset)

    def tx_abs_offset(self, data_ack32: int) -> int:
        # seq_diff(), inlined: once per DATA_ACK-bearing segment
        data_una = self.data_una
        diff = (data_ack32 - self.local_idsn - 1 - data_una) % SEQ_MOD
        if diff >= _SEQ_HALF:
            diff -= SEQ_MOD
        return data_una + diff

    def rx_wire_dsn(self, offset: int) -> int:
        return seq_add(self.remote_idsn, 1 + offset)

    def rx_abs_offset(self, dsn32: int) -> int:
        # seq_diff(), inlined: once per mapping-bearing segment
        rcv_data_nxt = self.rcv_data_nxt
        diff = (dsn32 - self.remote_idsn - 1 - rcv_data_nxt) % SEQ_MOD
        if diff >= _SEQ_HALF:
            diff -= SEQ_MOD
        return rcv_data_nxt + diff

    # ==================================================================
    # Application API
    # ==================================================================
    def send(self, data: bytes) -> int:
        if self.closed:
            raise RuntimeError("send() on closed connection")
        if self._close_requested:
            raise RuntimeError("send() after close()")
        room = self.snd_buf_limit - len(self.send_stream)
        accepted = data[:room] if room < len(data) else data
        if accepted:
            # append() snapshots mutable inputs; bytes and views over
            # bytes enter the send stream without a copy.
            self.send_stream.append(accepted)
            self.kick()
        return len(accepted)

    def send_buffer_room(self) -> int:
        return max(0, self.snd_buf_limit - len(self.send_stream))

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Consume in-order data; ``None`` or a negative ``max_bytes``
        reads everything, as ``io`` does."""
        if max_bytes is None or max_bytes < 0 or max_bytes >= len(self._rx_ready):
            data = bytes(self._rx_ready)
            self._rx_ready.clear()
        else:
            data = bytes(self._rx_ready[:max_bytes])
            del self._rx_ready[:max_bytes]
        if data:
            self._maybe_window_update()
        return data

    @property
    def rx_available(self) -> int:
        return len(self._rx_ready)

    @property
    def eof_seen(self) -> bool:
        return self._rx_eof and not self._rx_ready

    def close(self) -> None:
        """No more application data: DATA_FIN once the stream drains."""
        if self._close_requested or self.closed:
            return
        self._close_requested = True
        if self.fallback:
            self._fallback_close_if_drained()
            self.kick()
            return
        self.data_fin_offset = self.send_stream.tail
        self.kick()

    def abort(self) -> None:
        """Connection-level abort: MP_FASTCLOSE + RST on all subflows."""
        for subflow in self.alive_subflows():
            subflow._send_ack(extra_options=[FastClose(receiver_key=self.remote_key)])
        for subflow in list(self.subflows):
            if not subflow.failed:
                subflow.abort()
        self._teardown(error="aborted")

    def on_fastclose(self, option: FastClose) -> None:
        # RFC 6824 §3.5: only an MP_FASTCLOSE carrying our own key closes.
        if option.receiver_key != self.local_key:
            return
        for other in list(self.subflows):
            if not other.failed:
                other.abort()
        self._teardown(error="peer fastclose")

    # ==================================================================
    # Send path: scheduler hooks
    # ==================================================================
    def rwnd_limit(self) -> int:
        """Highest data offset connection flow control allows (§3.3.1):
        cumulative DATA_ACK plus the advertised window."""
        return self.peer_rwnd_edge

    def build_dss(
        self,
        subflow: Optional[Subflow],
        start: Optional[int],
        payload: Buffer,
        data_fin: bool = False,
        length: Optional[int] = None,
    ) -> DSS:
        """The DSS option for a mapping starting at data offset ``start``.

        The mapping's subflow sequence number is *relative* to the
        subflow's ISN (§3.3.4): ``subflow.snd_nxt`` is exactly the
        sequence unit the payload is about to occupy, and unit 1 is the
        first payload byte — so the relative SSN is ``snd_nxt`` itself.
        The checksum (when negotiated) covers the pseudo-header and the
        payload (§3.3.6).
        """
        dsn = None
        ssn_rel = None
        checksum = None
        if start is not None:
            dsn = self.tx_wire_dsn(start)
            ssn_rel = subflow.snd_nxt if subflow is not None else 0
            if length is None:
                # Only cold callers omit it: the scheduler passes the
                # allocation length it already holds.
                length = len(payload)
            if self.checksum_enabled:
                checksum = dss_checksum(dsn, ssn_rel, length, payload)
                self.stats.checksum_bytes_tx += length
        else:
            length = 0
            if data_fin:
                dsn = self.tx_wire_dsn(self.data_fin_offset or self.send_stream.tail)
        return DSS(
            data_ack=self.rx_wire_dsn(self.rcv_data_nxt),
            dsn=dsn,
            subflow_seq=ssn_rel,
            length=length,
            checksum=checksum,
            data_fin=data_fin,
        )

    def note_data_fin_sent(self) -> None:
        self._data_fin_sent = True
        self._ensure_data_rtx_timer()

    def data_fin_due(self) -> bool:
        return (
            self.data_fin_offset is not None
            and self.data_nxt >= self.data_fin_offset
            and not self._data_fin_sent
        )

    def kick(self) -> None:
        """Give every subflow (lowest smoothed RTT first) a chance to
        send — the scheduler's "least congested path" preference."""
        subs = [s for s in self.subflows if not s.failed and s.state.may_send_data]
        if len(subs) == 2:
            # The common two-path case: a stable sort of two elements is
            # a single compare-and-swap, no key lambda needed.
            if subs[0].rtt.smoothed > subs[1].rtt.smoothed:
                subs.reverse()
        elif len(subs) > 2:
            subs.sort(key=lambda s: s.rtt.smoothed)
        for subflow in subs:
            subflow._try_send()
        if not self.fallback and self.data_fin_due():
            # Nothing carried the DATA_FIN: send it on a pure ACK.
            alive = self.alive_subflows()
            if alive:
                self.note_data_fin_sent()
                alive[0]._send_ack(
                    extra_options=[self.build_dss(None, None, b"", data_fin=True)],
                )

    def alive_subflows(self) -> list[Subflow]:
        return [s for s in self.subflows if s.alive]

    def ack_capable_subflows(self) -> list[Subflow]:
        """Subflows that can still emit pure ACKs (a FIN_WAIT_2 subflow
        can no longer carry data but must keep acknowledging)."""
        return [s for s in self.subflows if not s.failed and s.state.synchronized]

    # ------------------------------------------------------------------
    # DATA_ACK processing (sender side)
    # ------------------------------------------------------------------
    def on_data_ack(self, ack_offset: int, window_bytes: int) -> None:
        advanced = False
        if ack_offset > self.data_una:
            fin_ack_limit = (
                self.data_fin_offset + 1 if self.data_fin_offset is not None else None
            )
            if ack_offset > self.data_nxt + 1 and (
                fin_ack_limit is None or ack_offset > fin_ack_limit
            ):
                return  # acks data never sent: middlebox "corrected" it
            tail = self.send_stream.tail
            release_to = ack_offset if ack_offset < tail else tail
            if release_to > self.send_stream.head:
                self.send_stream.release_to(release_to)
            self.data_una = ack_offset
            self.scheduler.on_data_ack(ack_offset)
            advanced = True
            if self._data_recovery_point is not None:
                if ack_offset >= self._data_recovery_point:
                    self._data_recovery_point = None
                else:
                    # Still in data-level recovery: keep reinjecting past
                    # the (new) trailing edge.
                    self.scheduler.reinject_head(window=32 * self.config.tcp.mss)
            if (
                self.data_fin_offset is not None
                and ack_offset >= self.data_fin_offset + 1
                and not self._data_fin_acked
            ):
                self._data_fin_acked = True
                self._close_subflows_after_fin()
            self._ensure_data_rtx_timer()
            if (
                self.on_writable is not None
                and self.snd_buf_limit > self.send_stream.tail - self.send_stream.head
            ):
                self.on_writable(self)
        edge = ack_offset + window_bytes
        if edge > self.peer_rwnd_edge:
            self.peer_rwnd_edge = edge
            advanced = True
        if advanced:
            self.kick()

    def _ensure_data_rtx_timer(self) -> None:
        outstanding = self.data_una < self.data_nxt or (
            self._data_fin_sent and not self._data_fin_acked
        )
        if outstanding:
            # A last-resort timer (§3.3.5): it must outwait every
            # subflow's own retransmission machinery, so its horizon
            # follows the slowest subflow.  Fast cross-subflow rescue is
            # mechanism M1's job, not this timer's.
            slowest = None
            for s in self.subflows:
                if not s.failed and s.state.may_send_data:
                    r = s.rtt.rto
                    if slowest is None or r > slowest:
                        slowest = r
            rto = 2 * (slowest if slowest is not None else 1.0)
            if rto < DATA_RTO_MIN:
                rto = DATA_RTO_MIN
            self._data_rtx_timer.restart(rto)
        else:
            self._data_rtx_timer.stop()

    def _on_data_rto(self) -> None:
        """The data-level retransmission timer (§3.3.5): un-DATA-ACKed
        data is reinjected on a live subflow.  Entering data-level
        recovery: until the DATA_ACK passes the current allocation
        point, each DATA_ACK advance triggers further go-back-N
        reinjection (only cumulative feedback exists at this level)."""
        if self.closed:
            return
        self.stats.data_rtos += 1
        if self.data_una < self.data_nxt:
            if self._data_recovery_point is None and self._peer_holds_unmapped_tail():
                # Sender-side fallback instead of a reinjection: the
                # subflow byte stream continues the data stream raw.
                self.enter_fallback("subflow-acked tail never DATA_ACKed")
                self.kick()
                return
            self._data_recovery_point = self.data_nxt
            self.scheduler.reinject_head(window=32 * self.config.tcp.mss)
        if self._data_fin_sent and not self._data_fin_acked:
            self._data_fin_sent = False  # allocate() re-sends it
        self._ensure_data_rtx_timer()
        self.kick()

    def _peer_holds_unmapped_tail(self) -> bool:
        """Did the only subflow there has ever been deliver our last
        segment, unmapped, to a peer that is waiting to fall back?

        The subflow ACK covers everything sent, DATA_ACK lags by at most
        one segment, and (the caller checks) no data-level recovery has
        reinjected anything since: the lagging bytes were the last ones
        on the subflow, so no later mapping reached the peer and it
        still holds them.  A peer whose options are stripped falls back
        at its second mapless segment (``try_rx_fallback``); a
        reinjection at a new subflow sequence would be that second
        segment, and the raw continuation would deliver the bytes
        twice.  A longer lag means later mappings arrived, so the peer
        dropped the unmapped bytes (a coalescer ate their mapping) and
        only reinjection repairs it (§3.3.5).
        """
        if len(self.subflows) != 1:
            return False
        subflow = self.subflows[0]
        return (
            not subflow.failed
            and not subflow._rtx_queue
            and self.data_nxt - self.data_una <= subflow.mss
        )

    def _close_subflows_after_fin(self) -> None:
        for subflow in self.alive_subflows():
            subflow.close()
        self._maybe_finished()

    # ==================================================================
    # Receive path
    # ==================================================================
    def dss_data_ack_option(self) -> DSS:
        # DSS instances are frozen, so the pure-DATA_ACK option for an
        # unchanged rcv_data_nxt can be shared across ACKs (dupacks and
        # multi-subflow acking re-ack the same level constantly).
        wire = self.rx_wire_dsn(self.rcv_data_nxt)
        cached = self._dack_option_cache
        if cached is not None and cached.data_ack == wire:
            return cached
        option = DSS(data_ack=wire)
        self._dack_option_cache = option
        return option

    def deliver_chunk(self, subflow: Subflow, offset: int, payload: Buffer) -> None:
        """In-order subflow bytes with a verified mapping land here."""
        plen = len(payload)
        end = offset + plen
        data_nxt = self.rcv_data_nxt
        if end <= data_nxt:
            self.stats.duplicate_bytes += plen
            return
        if offset < data_nxt:
            payload = payload[data_nxt - offset :]
            offset = data_nxt
        limit = self.rcv_data_adv_edge
        if limit <= data_nxt:
            limit = data_nxt + 1
        if (
            offset == data_nxt
            and end <= limit
            and not self.reassembly.block_count
        ):
            # Fast path: exactly the next data bytes with nothing
            # buffered — storing into the reassembly queue would be
            # popped straight back out, so deliver directly (same bytes,
            # same stats, same callbacks as the general path below).
            self.stats.in_order_chunks += 1
            self.rcv_data_nxt = end
            self.ooo_index.advance(end)
            self._rx_ready += payload
            self.stats.bytes_delivered += end - offset
            if self.on_data is not None:
                self.on_data(self)
            self._check_data_fin_consumable()
            return
        if offset > self.rcv_data_nxt:
            # Out of order at the data level: exercise the §4.3 index.
            self.stats.out_of_order_chunks += 1
            self.ooo_index.insert(
                offset, end if end < limit else limit, subflow.subflow_id
            )
        else:
            self.stats.in_order_chunks += 1
        self.reassembly.insert(offset, payload, limit=limit)
        data = self.reassembly.extract_in_order(data_nxt)
        dlen = len(data)
        if dlen:
            data_nxt += dlen
            self.rcv_data_nxt = data_nxt
            self.ooo_index.advance(data_nxt)
            self._rx_ready += data
            self.stats.bytes_delivered += dlen
            if self.on_data is not None:
                self.on_data(self)
            self._check_data_fin_consumable()

    def on_data_fin(self, fin_offset: int) -> None:
        if self._rx_eof and fin_offset < self.rcv_data_nxt:
            # Retransmitted DATA_FIN: the ack carrying our cumulative
            # DATA_ACK was lost — re-ack it.
            for subflow in self.ack_capable_subflows():
                subflow._send_ack()
            return
        if self.peer_data_fin is None or fin_offset < self.peer_data_fin:
            self.peer_data_fin = fin_offset
        self._check_data_fin_consumable()

    def _check_data_fin_consumable(self) -> None:
        if self.peer_data_fin is None or self._rx_eof:
            return
        if self.rcv_data_nxt == self.peer_data_fin:
            self.rcv_data_nxt += 1  # the DATA_FIN occupies one offset
            self._rx_eof = True
            # Acknowledge the fin promptly on all subflows.
            for subflow in self.ack_capable_subflows():
                subflow._send_ack()
            if self.on_eof is not None:
                self.on_eof(self)
            self._maybe_finished()

    def _maybe_window_update(self) -> None:
        """After the app reads: re-advertise only when the window
        *reopens* from (nearly) closed, or jumps by half the buffer —
        RFC 1122 receiver SWS avoidance.  Anything chattier floods the
        other subflows with pure ACKs that the sender must count as
        duplicates."""
        if self.fallback:
            return
        mss = self.config.tcp.mss
        window = max(0, self.rcv_buf_limit - self.rx_memory_bytes())
        previously_open = self.rcv_data_adv_edge - self.rcv_data_nxt
        growth = (self.rcv_data_nxt + window) - self.rcv_data_adv_edge
        if growth <= 0:
            return
        if previously_open < 2 * mss or growth >= self.rcv_buf_limit // 2:
            for subflow in self.ack_capable_subflows():
                subflow._send_ack()

    def on_subflow_fin(self, subflow: Subflow) -> None:
        """Subflow-level FIN: "no more data on this subflow" — the
        connection continues on the others (§3.4).  In fallback mode the
        subflow's FIN *is* the connection's end of stream."""
        pending = subflow._rx_pending
        if pending.tail > pending.head and not self.fallback:
            # No mapping can follow a FIN: let try_rx_fallback judge the
            # bytes still waiting for one.
            subflow._match_mappings()
        if self.fallback or not subflow.is_mptcp:
            self.notify_fallback_eof()
        self._maybe_finished()

    # ==================================================================
    # Failure handling / fallback ladder (§3.1, §3.3.6)
    # ==================================================================
    def on_subflow_failed(self, subflow: Subflow, reason: str) -> None:
        self.stats.subflow_failures += 1
        if isinstance(subflow.cc, LIAController):
            subflow.cc.retire()
        self.scheduler.on_subflow_failed(subflow)
        if not any(s.alive for s in self.subflows) and not self.closed:
            # A never-established connection has nothing left to retry
            # with; an established one dies only with data outstanding.
            if not self.established or self.data_una < self.send_stream.tail or not self._rx_eof:
                self._teardown(error=f"all subflows failed ({reason})")
                return
        self._ensure_data_rtx_timer()
        self.kick()

    def on_checksum_failure(self, subflow: Subflow) -> None:
        """§3.3.6: a content-modifying middlebox struck.  With another
        subflow available, reset this one; otherwise fall back to plain
        TCP and let the middlebox rewrite in peace."""
        self.stats.checksum_failures += 1
        others = [s for s in self.alive_subflows() if s is not subflow]
        if others:
            subflow.mark_failed("DSS checksum failure")
            subflow.abort()
            self.kick()
            return
        # Single subflow: infinite-mapping fallback.  Deliver the
        # modified bytes raw and tell the sender via MP_FAIL.
        self._mp_fail_pending = True
        self.enter_fallback("DSS checksum failure on the only subflow")
        pending = subflow._rx_pending
        raw = pending.peek(pending.head, len(pending))
        pending.release_to(pending.tail)
        self.on_fallback_data(raw)
        subflow._send_ack(extra_options=[self._take_mp_fail()])

    def _take_mp_fail(self):
        from repro.mptcp.options import MPFail

        self._mp_fail_pending = False
        return MPFail(dsn=self.rx_wire_dsn(self.rcv_data_nxt))

    def on_mp_fail(self) -> None:
        """Peer detected a checksum failure with a single subflow: stop
        sending mappings; continue as plain TCP."""
        if not self.fallback:
            self.enter_fallback("peer sent MP_FAIL")

    def rx_in_sync(self, subflow: Subflow) -> bool:
        """No data-level hole: the reassembly queue and OOO index are
        empty and ``subflow`` holds no mapping still waiting for its
        bytes, so every mapped byte has been delivered and the raw
        subflow continuation starts exactly at ``rcv_data_nxt``."""
        return (
            len(self.reassembly) == 0 and len(self.ooo_index) == 0 and not subflow._rx_mappings
        )

    def try_rx_fallback(self, subflow: Subflow) -> bool:
        """Unmapped bytes arrived and no later mapping exists.  Falling
        back is only safe with a single subflow and no data-level holes
        (otherwise the stream could interleave)."""
        if self.fallback:
            return True
        single = len([s for s in self.subflows if not s.failed]) <= 1
        if not (single and self.rx_in_sync(subflow)):
            return False
        if subflow.rx_mappings_received == 0:
            # §3.1's first-data rule: options never survived past the
            # handshake.  The peer notices symmetrically (our ACKs carry
            # no DSS), so no explicit signal is needed.
            self.enter_fallback("MPTCP options stripped from data segments")
        elif len(self.subflows) == 1 and (
            subflow._rx_mapless_data_run >= 2 or (subflow._rx_eof and not self._rx_eof)
        ):
            # Mid-connection stripping: mappings flowed earlier, then a
            # path change ate the options.  Requiring a run of mapping-
            # less data segments separates this from a coalescer that
            # merged away one mapping (the merged segment still carries
            # its first mapping — §3.3.5 drops those bytes instead).
            # A subflow FIN before DATA_FIN ends the wait early: no
            # mapping can follow it.  With the only-ever subflow,
            # every mapped byte mapped contiguously and was delivered
            # (reassembly and index are empty), so the raw subflow
            # continuation IS the data-stream continuation.  The sender
            # still thinks it is speaking MPTCP — tell it with MP_FAIL
            # (infinite-mapping fallback, the §3.3.6 ladder).
            self._mp_fail_pending = True
            self.enter_fallback("MPTCP options stripped mid-connection")
        else:
            # A second subflow existed at some point: its unacked data
            # may be reinjected here with stale mappings, so a raw
            # continuation could interleave.  Keep waiting; data-level
            # retransmission will repair or tear the connection down.
            return False
        pending = subflow._rx_pending
        raw = pending.peek(pending.head, len(pending))
        pending.release_to(pending.tail)
        self.on_fallback_data(raw)
        if self._mp_fail_pending:
            subflow._send_ack(extra_options=[self._take_mp_fail()])
        return True

    def enter_fallback(self, reason: str) -> None:
        """Drop to regular-TCP behaviour on the (single) subflow (§3.1's
        deployability requirement: *always* complete the transfer)."""
        if self.fallback or self.closed:
            # Fallback is a one-way door, and a torn-down connection has
            # no stream left to fall back for (a late checksum failure
            # must not resurrect it as "fallback").
            return
        if self.conn_state is M_ESTABLISHED:
            # Mid-connection drop: checksum failure or MP_FAIL (§3.3.6).
            self._set_state(M_FALLBACK)
        else:
            # Handshake-time drop: options never made it (§3.1).
            self._set_state(M_FALLBACK_INIT)
        self.fallback_reason = reason
        self.stats.fallbacks += 1
        self._fallback_tx_base = None
        if self._close_requested and self.data_fin_offset is not None:
            self.data_fin_offset = None  # fallback closes via subflow FIN
        self._data_rtx_timer.stop()

    # -- fallback datapath ------------------------------------------------
    def allocate_fallback(self, subflow: Subflow, max_bytes: int) -> Optional[tuple[bytes, list]]:
        """Sequential allocation with no options: the subflow IS the
        connection now."""
        if self._fallback_tx_base is None:
            batch = self.scheduler.batches.pop(subflow.subflow_id, None)
            if batch is not None and self.data_una <= batch.cursor < batch.end == self.data_nxt:
                # Hand back the reserved-but-unsent rest of the batch:
                # the raw continuation starts where the subflow stopped.
                self.data_nxt = batch.cursor
            # Map subflow sequence units onto data offsets from here on.
            # Fallback collapses the two sequence spaces: the subflow
            # byte stream IS the data stream, so this one anchor
            # legitimately subtracts SSN from DSN.
            self._fallback_tx_base = self.data_nxt - (subflow.snd_nxt - 1)
        if self.data_nxt >= self.send_stream.tail:
            self._fallback_close_if_drained()
            return None
        take = min(max_bytes, self.send_stream.tail - self.data_nxt)
        payload = self.send_stream.peek(self.data_nxt, take)
        self.data_nxt += take
        return (payload, [])

    def on_fallback_acked(self, acked_unit: int) -> None:
        if self._fallback_tx_base is None:
            return
        acked_offset = min(self._fallback_tx_base + acked_unit - 1, self.send_stream.tail)
        if acked_offset > self.data_una:
            self.send_stream.release_to(min(acked_offset, self.send_stream.tail))
            self.data_una = acked_offset
            if self.on_writable is not None and self.send_buffer_room() > 0:
                self.on_writable(self)

    def on_fallback_data(self, data: Buffer) -> None:
        if not data:
            return
        self.rcv_data_nxt += len(data)
        self._rx_ready += data
        self.stats.bytes_delivered += len(data)
        if self.on_data is not None:
            self.on_data(self)

    def _fallback_close_if_drained(self) -> None:
        if not self._close_requested:
            return
        if self.data_nxt >= self.send_stream.tail:
            for subflow in self.alive_subflows():
                subflow.close()

    # ==================================================================
    # Teardown
    # ==================================================================
    def _maybe_finished(self) -> None:
        """Fully closed when our DATA_FIN is acked and the peer's
        consumed (or, in fallback, when the subflow closed)."""
        if self.closed:
            return
        ours_done = self._data_fin_acked or (self.fallback and self._close_requested)
        theirs_done = self._rx_eof
        if ours_done and theirs_done:
            self._teardown()

    def _teardown(self, error: Optional[str] = None) -> None:
        if self.closed:
            return
        if self.fallback:
            self._set_state(M_FALLBACK_CLOSED)
        else:
            self._set_state(M_CLOSED)
        self._data_rtx_timer.stop()
        self._autotune_timer.stop()
        host_tokens(self.host).unregister(self.local_token)
        if error and self.on_error is not None:
            self.on_error(self, error)
        if self.on_close is not None:
            self.on_close(self)

    # ==================================================================
    # Fallback-aware EOF via subflow FIN
    # ==================================================================
    def notify_fallback_eof(self) -> None:
        if not self._rx_eof:
            self._rx_eof = True
            if self.on_eof is not None:
                self.on_eof(self)
            self._maybe_finished()

    # ==================================================================
    # Memory accounting and autotuning (Fig. 5, M3)
    # ==================================================================
    def tx_memory_bytes(self) -> int:
        """Send-side footprint: everything not yet DATA_ACKed plus
        buffered-but-unsent application data."""
        return len(self.send_stream)

    def rx_memory_bytes(self) -> int:
        used = len(self._rx_ready) + self.reassembly.buffered_bytes
        for s in self.subflows:
            if not s.failed:
                pending = s._rx_pending
                used += pending.tail - pending.head
        return used

    def _autotune_tick(self) -> None:
        """M3 (§4.2): grow each effective buffer, never shrinking it,
        toward ``2 · Σ throughput_i · RTT_max``, capped by the configured
        maximum.  Receive side: the delivered rate.  Send side: each
        subflow's rate estimated as cwnd_i / srtt_i, which is what makes
        M4 (cwnd capping) shrink the measured demand: capping keeps both
        the 3G cwnd and RTT_max honest, roughly halving the buffer the
        formula asks for."""
        if self.closed:
            return
        rtt_max = 0.0
        tx_rate = 0.0
        for s in self.alive_subflows():
            srtt = s.rtt.smoothed
            if srtt > rtt_max:
                rtt_max = srtt
            tx_rate += s.cc.cwnd / max(srtt, 1e-3)
        now = self.sim.now
        delivered = self.stats.bytes_delivered
        if self._rx_mark_time is None:
            self._rx_mark_time = now
            self._rx_mark_bytes = delivered
            rx_rate = 0.0
        else:
            elapsed = now - self._rx_mark_time
            if elapsed > 0:
                instant = (delivered - self._rx_mark_bytes) / elapsed
                # EWMA with a half-life of roughly two windows.
                rate = self._rx_rate
                self._rx_rate = instant if rate == 0.0 else 0.7 * rate + 0.3 * instant
                self._rx_mark_time = now
                self._rx_mark_bytes = delivered
            rx_rate = self._rx_rate
        if rx_rate > 0 and rtt_max > 0:
            needed = int(2 * rx_rate * rtt_max)
            if needed > self.rcv_buf_limit:
                self.rcv_buf_limit = min(self.config.rcv_buf, needed)
        if tx_rate > 0 and rtt_max > 0:
            needed = int(2 * tx_rate * rtt_max)
            if needed > self.snd_buf_limit:
                self.snd_buf_limit = min(self.config.snd_buf, needed)
                if self.on_writable is not None and self.send_buffer_room() > 0:
                    self.on_writable(self)
        rtt_max = max((s.rtt.smoothed for s in self.alive_subflows()), default=0.1)
        self._autotune_timer.restart(max(0.05, rtt_max))
        self.kick()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MPTCPConnection {self.name} subflows={len(self.subflows)} "
            f"una={self.data_una} nxt={self.data_nxt} rcv={self.rcv_data_nxt} "
            f"fallback={self.fallback}>"
        )
