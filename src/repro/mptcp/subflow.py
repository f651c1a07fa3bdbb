"""An MPTCP subflow: a TCP socket whose payload belongs to a connection.

On the wire a subflow is indistinguishable from a TCP flow (that is the
deployability requirement): it runs the full handshake, keeps its own
contiguous sequence space, its own congestion window, RTO and
retransmissions.  What changes is where bytes come from and go to:

* outgoing payload is *allocated* from the connection's send queue by
  the scheduler, and carries a DSS mapping as a sticky option (so a
  subflow-level retransmission repeats the identical mapping — which is
  what keeps middleboxes' sequence tracking consistent, §3.3.3);
* incoming in-order subflow bytes are matched against received DSS
  mappings, checksum-verified, and handed to the connection's
  data-level reassembly;
* the TCP window field is *connection-level* (§3.3.1): advertised from
  the shared receive pool and, on receipt, interpreted relative to the
  DATA_ACK rather than the subflow ACK.

A subflow can also be a *fallback* TCP connection (§3.1): if MP_CAPABLE
never survives the handshake, or a DSS checksum fails with no other
subflow to retreat to, the same object keeps moving the byte stream as
plain TCP.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from repro.net.node import Host
from repro.net.options import TCPOption
from repro.net.packet import FIN, RST, SYN, Segment
from repro.net.payload import Buffer
from repro.tcp.buffer import ByteStream
from repro.tcp.socket import TCPConfig, TCPSocket
from repro.mptcp.checksum import verify_dss_checksum
from repro.mptcp.keys import join_hmac
from repro.mptcp.options import (
    DSS,
    AddAddr,
    FastClose,
    MPCapable,
    MPFail,
    MPJoin,
    MPPrio,
    MPTCPOption,
    RemoveAddr,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.mptcp.connection import MPTCPConnection

# Bisect key for the ssn_start-ordered mapping table below.
_ssn_start = attrgetter("ssn_start")

# Every subflow's ``snd_buf``: a subflow's payload comes from the
# connection's send stream through the scheduler, so the TCP send buffer
# it inherits is never written — one shared empty stream stands in for it.
_NO_SEND_BUFFER = ByteStream()

# SYN losses after which the initial subflow retries as plain TCP (§3.1).
SYN_RETRIES_DROP_MPTCP = 2


@dataclass(slots=True)
class RxMapping:
    """A received data-sequence mapping, in absolute offsets.

    ``ssn_start`` is the subflow *stream* offset (0-based byte index) of
    the first mapped byte; ``data_start`` is the absolute connection
    data offset.  ``checksum`` is the DSS checksum when in use.
    """

    ssn_start: int
    data_start: int
    length: int
    checksum: Optional[int]
    dsn_wire: int  # as carried in the option (for checksum verification)
    ssn_rel_wire: int
    data_fin: bool = False
    # Computed once: the mapping-match loop reads ssn_end per pending
    # byte-run, so it is a stored field rather than a property.
    ssn_end: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.ssn_end = self.ssn_start + self.length


class Subflow(TCPSocket):
    """One path of an MPTCP connection."""

    KIND_INITIAL = "initial"
    KIND_JOIN = "join"

    __slots__ = (
        "connection", "kind", "address_id", "subflow_id", "is_mptcp", "mptcp_confirmed", "failed",
        "backup", "local_nonce", "remote_nonce", "join_verified", "peer_address_id", "_rx_mappings",
        "_rx_pending", "unmapped_bytes_dropped", "checksum_failures", "last_penalty_at",
        "last_opportunistic_offset", "last_opportunistic_edge", "last_opportunistic_time",
        "rx_mappings_received", "_rx_first_checked", "_rx_mapless_data_run", "rx_dss_received",
        "_rx_optionless_ack_run",
    )

    def __init__(
        self,
        host: Host,
        connection: "MPTCPConnection",
        kind: str = KIND_INITIAL,
        config: Optional[TCPConfig] = None,
        address_id: int = 0,
    ):
        super().__init__(host, config, name=f"sf{address_id}@{host.name}")
        self.snd_buf = _NO_SEND_BUFFER
        self.connection = connection
        self.kind = kind
        self.address_id = address_id
        self.subflow_id = address_id
        self.is_mptcp = kind == self.KIND_JOIN  # initial learns from SYN/ACK
        self.mptcp_confirmed = False
        self.failed = False
        # MP_PRIO: a backup subflow carries data only when every normal
        # subflow is gone (e.g. keep 3G warm but idle while WiFi works).
        self.backup = False
        # MP_JOIN handshake state.
        self.local_nonce = host.rng.getrandbits(32)
        self.remote_nonce: Optional[int] = None
        self.join_verified = False
        # The address id the PEER uses for this subflow's remote end
        # (learned from MP_JOIN); REMOVE_ADDR carries the peer's ids.
        self.peer_address_id: Optional[int] = 0 if kind == self.KIND_INITIAL else None
        # Receive-side mapping machinery.
        self._rx_mappings: list[RxMapping] = []
        self._rx_pending = ByteStream()
        self.unmapped_bytes_dropped = 0
        self.checksum_failures = 0
        # M2 bookkeeping: when this subflow was last penalized.
        self.last_penalty_at = -1e9
        # M1 bookkeeping: the walk cursor through the foreign backlog and
        # the window edge it was started for (the cursor restarts from
        # the edge whenever the edge moves).
        self.last_opportunistic_offset = -1
        self.last_opportunistic_edge = -1
        self.last_opportunistic_time = -1.0
        self.rx_mappings_received = 0
        self._rx_first_checked = False
        # Consecutive data segments that arrived without any DSS mapping.
        # A coalescing middlebox drops *some* mappings but the merged
        # segment still carries one; a stripping middlebox removes them
        # from every segment — this run length tells the two apart.
        self._rx_mapless_data_run = 0
        # DSS options of any form received (mappings *or* bare
        # DATA_ACKs) and, for the data-sender side of the symmetric
        # mid-connection rule, consecutive pure ACKs that carried no
        # MPTCP option at all after DSS traffic had been flowing.
        self.rx_dss_received = 0
        self._rx_optionless_ack_run = 0

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self.failed and self.state.may_send_data

    # ==================================================================
    # Handshake options (§3.1, §3.2)
    # ==================================================================
    def _syn_options(self) -> list[TCPOption]:
        conn = self.connection
        if self.kind == self.KIND_INITIAL:
            # After repeated SYN losses, retry without MP_CAPABLE: the
            # option itself may be what a middlebox objects to (§3.1).
            if self.syn_retries >= SYN_RETRIES_DROP_MPTCP:
                conn.enter_fallback("MP_CAPABLE dropped after SYN retransmissions")
                return []
            return [
                MPCapable(
                    sender_key=conn.local_key,
                    checksum_required=conn.config.checksum,
                    version=max(conn.config.versions),
                )
            ]
        return [
            MPJoin(
                address_id=self.address_id,
                token=conn.remote_token,
                nonce=self.local_nonce,
            )
        ]

    def _synack_options(self) -> list[TCPOption]:
        conn = self.connection
        if conn.fallback:
            return []
        if self.kind == self.KIND_INITIAL:
            return [
                MPCapable(
                    sender_key=conn.local_key,
                    checksum_required=conn.config.checksum,
                    version=conn.negotiated_version or 0,
                )
            ]
        assert self.remote_nonce is not None
        mac = join_hmac(conn.local_key, conn.remote_key, self.local_nonce, self.remote_nonce)
        return [
            MPJoin(address_id=self.address_id, mac=mac, nonce=self.local_nonce)
        ]

    def _handshake_ack_options(self) -> list[TCPOption]:
        conn = self.connection
        if not self.is_mptcp:
            return []
        if self.kind == self.KIND_INITIAL:
            return [
                MPCapable(
                    sender_key=conn.local_key,
                    receiver_key=conn.remote_key,
                    checksum_required=conn.config.checksum,
                )
            ]
        assert self.remote_nonce is not None
        mac = join_hmac(conn.local_key, conn.remote_key, self.local_nonce, self.remote_nonce)
        return [MPJoin(address_id=self.address_id, mac=mac)]

    # -- passive side: inspect the SYN ---------------------------------
    def _process_peer_syn_options(self, segment: Segment) -> None:
        super()._process_peer_syn_options(segment)
        conn = self.connection
        if self.kind == self.KIND_INITIAL:
            capable = segment.find_option(MPCapable)
            if capable is None:
                conn.enter_fallback("no MP_CAPABLE in SYN")
            else:
                answer = conn.version_answer(capable.version)
                if answer is None:
                    conn.enter_fallback(
                        f"no common MPTCP version (peer offered v{capable.version})"
                    )
                    return
                conn.negotiated_version = answer
                self.is_mptcp = True
                conn.learn_remote_key(capable.sender_key)
                conn.negotiate_checksum(capable.checksum_required)
        else:
            join = segment.find_option(MPJoin)
            assert join is not None, "join subflow spawned without MP_JOIN"
            self.remote_nonce = join.nonce
            self.peer_address_id = join.address_id

    # -- active side: inspect the SYN/ACK -------------------------------
    def _process_peer_synack_options(self, segment: Segment) -> None:
        super()._process_peer_synack_options(segment)
        conn = self.connection
        if self.kind == self.KIND_INITIAL:
            capable = segment.find_option(MPCapable)
            if capable is None:
                # A middlebox stripped the option from the SYN/ACK — or
                # the server is plain TCP.  Either way: fall back (§3.1).
                self.is_mptcp = False
                conn.enter_fallback("no MP_CAPABLE in SYN/ACK")
                return
            if capable.version not in conn.config.versions:
                # The listener answered with a version this endpoint
                # does not implement (a v0-only server confronted with a
                # v1-only client lands here): plain TCP.
                self.is_mptcp = False
                conn.enter_fallback(
                    f"unsupported MPTCP version v{capable.version} in SYN/ACK"
                )
                return
            conn.negotiated_version = capable.version
            self.is_mptcp = True
            self.mptcp_confirmed = True
            conn.learn_remote_key(capable.sender_key)
            conn.negotiate_checksum(capable.checksum_required)
        else:
            join = segment.find_option(MPJoin)
            expected = None
            if join is not None and join.nonce is not None:
                self.remote_nonce = join.nonce
                self.peer_address_id = join.address_id
                expected = join_hmac(
                    conn.remote_key, conn.local_key, join.nonce, self.local_nonce
                )
            if join is None or join.mac != expected:
                # Bad or missing authentication: never attach this
                # subflow; reset it (§3.2).
                self.connection.stats.join_failures += 1
                self.abort()
                return
            self.join_verified = True
            self.mptcp_confirmed = True

    def _on_first_non_syn_segment(self, segment: Segment) -> None:
        """Passive-side fallback / join-verification point (§3.1, §3.2)."""
        conn = self.connection
        if conn.fallback or self.mptcp_confirmed:
            return
        if self.kind == self.KIND_INITIAL:
            if any(isinstance(option, MPTCPOption) for option in segment.options):
                self.mptcp_confirmed = True
                capable = segment.find_option(MPCapable)
                if capable is not None and capable.receiver_key is not None:
                    conn.learn_remote_key(capable.sender_key)
            else:
                # The third ACK (and this first data) carried no MPTCP
                # option: a middlebox strips options from non-SYN
                # segments.  The server must drop to TCP (§3.1).
                self.is_mptcp = False
                conn.enter_fallback("first non-SYN segment without MPTCP option")
        else:
            join = segment.find_option(MPJoin)
            expected = join_hmac(
                conn.remote_key, conn.local_key, self.remote_nonce or 0, self.local_nonce
            )
            if join is None or join.mac != expected:
                self.connection.stats.join_failures += 1
                self.abort()
                return
            self.join_verified = True
            self.mptcp_confirmed = True

    def _on_handshake_complete(self) -> None:
        self.connection.on_subflow_established(self)

    # ==================================================================
    # Send path
    # ==================================================================
    def _pull_new_data(
        self, max_bytes: int
    ) -> Optional[tuple[bytes, int, list[TCPOption], bool]]:
        conn = self.connection
        if conn.conn_state.is_fallback:
            pulled = conn.allocate_fallback(self, max_bytes)
            if pulled is not None:
                payload, options = pulled
                return (payload, len(payload), options, False)
        else:
            if self.kind == self.KIND_JOIN and not (self.join_verified or self.mptcp_confirmed):
                return None
            pulled = conn.scheduler.allocate(self, max_bytes)
            if pulled is not None:
                payload, length, options = pulled
                # §3.1: the third ACK may be lost, so data packets must
                # keep carrying an MPTCP option until one is acked.  The
                # DSS mapping attached to every data segment satisfies
                # this (and fits the option budget, which repeating
                # MP_CAPABLE's two keys would not: 12+20+20 > 40 bytes).
                return (payload, length, options, False)
        if self._fin_ready():
            return (b"", 0, [], True)
        return None

    def _release_acked_stream(self, acked_unit: int) -> None:
        """Subflow ACKs do *not* free connection memory — only DATA_ACKs
        do (§3.3.5) — except in fallback mode, where the subflow ACK is
        all there is."""
        if self.connection.conn_state.is_fallback:
            self.connection.on_fallback_acked(acked_unit)
        # Retransmission-queue entries popped by the caller keep holding
        # payload references until data-acked; that is the paper's
        # "data kept in memory until DATA_ACK" behaviour, and the memory
        # accounting charges the connection-level send queue for it.

    def _send_window_limit(self) -> int:
        if self.connection.conn_state.is_fallback:
            return super()._send_window_limit()
        # Subflow-level flow control does not exist: the window is
        # connection-level and enforced by the scheduler's allocation.
        return self.snd_nxt + (1 << 40)

    def _window_to_advertise(self) -> int:
        conn = self.connection
        if conn.conn_state.is_fallback:
            return super()._window_to_advertise()
        # The connection-level window is the shared receive pool's
        # headroom: rcv_buf_limit less the bytes held in the ready queue,
        # the reassembly queue and every live subflow's pending queue.
        # Recomputed for every segment any subflow emits.
        used = len(conn._rx_ready) + conn.reassembly.buffered_bytes
        for s in conn.subflows:
            if not s.failed:
                pending = s._rx_pending
                used += pending.tail - pending.head
        window = conn.rcv_buf_limit - used
        if window < 0:
            window = 0
        edge = conn.rcv_data_nxt + window
        if edge > conn.rcv_data_adv_edge:
            conn.rcv_data_adv_edge = edge
        return window

    def _ack_options(self) -> list[TCPOption]:
        conn = self.connection
        if conn.conn_state.is_fallback or not self.is_mptcp:
            return []
        options: list[TCPOption] = [conn.dss_data_ack_option()]
        options.extend(conn.take_announcements(self))
        return options

    # ==================================================================
    # Receive path
    # ==================================================================
    def _process_segment_options(self, segment: Segment) -> None:
        conn = self.connection
        if not self._rx_first_checked and not segment.flags & SYN:
            # Symmetric §3.1 rule: if the very first post-handshake
            # segment from the peer carries no MPTCP option, a middlebox
            # strips options from non-SYN segments — drop to TCP.  (A
            # genuine MPTCP peer attaches a DSS DATA_ACK to every ACK.)
            self._rx_first_checked = True
            if (
                self.kind == self.KIND_INITIAL
                and self.is_mptcp
                and not conn.fallback
                and not any(isinstance(option, MPTCPOption) for option in segment.options)
            ):
                self.is_mptcp = False
                conn.enter_fallback("first non-SYN segment from peer without MPTCP option")
                return
        if segment.payload_len > 0:
            # Concrete option classes are never subclassed, so exact
            # type tests replace isinstance chains on this per-segment
            # path.
            for option in segment.options:
                if (
                    type(option) is DSS
                    and option.dsn is not None
                    and option.length > 0
                ):
                    self._rx_mapless_data_run = 0
                    break
            else:
                self._rx_mapless_data_run += 1
        elif (
            not segment.flags & (SYN | FIN | RST)
            and self.is_mptcp
            and self.kind == self.KIND_INITIAL
            and not conn.conn_state.is_fallback
        ):
            # The data sender's half of the mid-connection rule: a
            # genuine MPTCP peer attaches a DSS DATA_ACK to every pure
            # ACK, so a run of option-less ACKs (after DSS traffic had
            # been flowing) means a middlebox started stripping options
            # on the reverse path too.  The receiver's MP_FAIL was
            # stripped along with them, so without this symmetric
            # detection the sender would keep emitting mappings and
            # data-level retransmissions that the raw-continuing
            # receiver delivers as duplicate stream bytes.  The rule
            # fires on whichever end sees the ACKs, the data receiver
            # included, so it waits until the receive side is in sync:
            # falling back with data held behind a hole, or with
            # subflow bytes still waiting for a mapping, would deliver
            # the raw continuation at the wrong data offset.
            for option in segment.options:
                if isinstance(option, MPTCPOption):
                    self._rx_optionless_ack_run = 0
                    break
            else:
                self._rx_optionless_ack_run += 1
                pending = self._rx_pending
                if (
                    self._rx_optionless_ack_run >= 2
                    and self.rx_dss_received > 0
                    and len(conn.subflows) == 1
                    and pending.tail == pending.head
                    and conn.rx_in_sync(self)
                ):
                    conn.enter_fallback(
                        "MPTCP options stripped from ACKs mid-connection"
                    )
        for option in segment.options:
            cls = option.__class__
            if cls is DSS:
                self._process_dss(option, segment)
            elif cls is AddAddr:
                conn.on_add_addr(option)
            elif cls is RemoveAddr:
                conn.on_remove_addr(option)
            elif cls is MPPrio:
                # The peer flips this subflow's priority (or, with an
                # address id, some other subflow's).
                if option.address_id is None or option.address_id == self.peer_address_id:
                    self.backup = option.backup
                else:
                    for sibling in conn.subflows:
                        if sibling.peer_address_id == option.address_id:
                            sibling.backup = option.backup
                conn.kick()
            elif cls is MPFail:
                conn.on_mp_fail()
            elif cls is FastClose:
                conn.on_fastclose(option)

    def _process_dss(self, dss: DSS, segment: Segment) -> None:
        self.rx_dss_received += 1
        conn = self.connection
        if conn.conn_state.is_fallback:
            return
        if dss.data_ack is not None:
            # _scaled_window(), inlined: runs once per DATA_ACK-bearing segment
            window = segment.window << (0 if segment.flags & SYN else self.snd_wscale)
            conn.on_data_ack(conn.tx_abs_offset(dss.data_ack), window)
        if dss.dsn is not None and dss.subflow_seq is not None and dss.length > 0:
            ssn_start = dss.subflow_seq - 1  # rel SSN 1 = stream offset 0
            mapping = RxMapping(
                ssn_start=ssn_start,
                data_start=conn.rx_abs_offset(dss.dsn),
                length=dss.length,
                checksum=dss.checksum,
                dsn_wire=dss.dsn,
                ssn_rel_wire=dss.subflow_seq,
                data_fin=dss.data_fin,
            )
            self._add_mapping(mapping)
        elif dss.data_fin:
            # A mapping-less DATA_FIN: dsn field holds the fin position.
            conn.on_data_fin(conn.rx_abs_offset(dss.dsn if dss.dsn is not None else 0))
        # _match_mappings() is a no-op with no pending in-order bytes —
        # the usual case here, since a data segment's DSS is processed
        # before its payload reaches _rx_pending (and pure DATA_ACKs
        # carry no payload at all).  Guard with its loop condition.
        pending = self._rx_pending
        if pending.tail > pending.head:
            self._match_mappings()

    def _add_mapping(self, mapping: RxMapping) -> None:
        """Record a mapping, ignoring duplicates (TSO copies the same DSS
        onto every split segment — idempotency is by design, §3.3.4)."""
        if mapping.ssn_end <= self._rx_pending.head:
            return  # entirely consumed already (duplicate)
        # The table is kept sorted by ssn_start, so only the equal-start
        # run can hold a duplicate, and the insertion point after that
        # run is exactly where append-and-stable-sort used to land the
        # newcomer.  In-order arrival (the overwhelming case) bisects to
        # the end: an O(1) append.
        mappings = self._rx_mappings
        j = bisect_left(mappings, mapping.ssn_start, key=_ssn_start)
        while j < len(mappings) and mappings[j].ssn_start == mapping.ssn_start:
            if mappings[j].length == mapping.length:
                return
            j += 1
        mappings.insert(j, mapping)
        self.rx_mappings_received += 1

    def _on_in_order_data(self, data: Buffer) -> None:
        conn = self.connection
        self.stats.bytes_delivered += len(data)
        if conn.conn_state.is_fallback:
            conn.on_fallback_data(data)
            return
        self._rx_pending.append(data)
        self._match_mappings()

    def _match_mappings(self) -> None:
        """Consume pending in-order subflow bytes through the mapping
        table, verifying checksums and feeding the connection."""
        conn = self.connection
        pending = self._rx_pending
        while pending.tail > pending.head:
            head = pending.head
            mapping = self._covering_mapping(head)
            if mapping is None:
                next_start = self._next_mapping_start(head)
                if next_start is None:
                    if conn.try_rx_fallback(self):
                        return  # bytes re-delivered raw by the connection
                    break  # wait: mapping may still arrive
                # Bytes with no mapping (a middlebox coalesced segments
                # and the second mapping was lost): drop them; they stay
                # subflow-ACKed but never data-ACKed, so the sender
                # retransmits them at the data level (§3.3.5).
                drop = min(next_start, pending.tail) - head
                if drop <= 0:
                    break
                pending.release_to(head + drop)
                self.unmapped_bytes_dropped += drop
                conn.stats.unmapped_bytes_dropped += drop
                continue
            if mapping.checksum is not None:
                # Checksums verify whole mappings: wait for all its bytes.
                if pending.tail < mapping.ssn_end:
                    break
                payload = pending.peek(mapping.ssn_start, mapping.length)
                ok = verify_dss_checksum(
                    mapping.dsn_wire,
                    mapping.ssn_rel_wire,
                    mapping.length,
                    payload,
                    mapping.checksum,
                )
                conn.stats.checksums_verified += 1
                conn.stats.checksum_bytes_rx += mapping.length
                if not ok:
                    self.checksum_failures += 1
                    conn.on_checksum_failure(self)
                    return
                pending.release_to(mapping.ssn_end)
                self._remove_mapping(mapping)
                conn.deliver_chunk(self, mapping.data_start, payload)
                if mapping.data_fin:
                    conn.on_data_fin(mapping.data_start + mapping.length)
            else:
                # No checksum: deliver incrementally (lower latency).
                tail = pending.tail
                ssn_end = mapping.ssn_end
                take = (tail if tail < ssn_end else ssn_end) - head
                if take <= 0:
                    break
                payload = pending.peek(head, take)
                pending.release_to(head + take)
                data_offset = mapping.data_start + (head - mapping.ssn_start)
                conn.deliver_chunk(self, data_offset, payload)
                if head + take >= mapping.ssn_end:
                    self._remove_mapping(mapping)
                    if mapping.data_fin:
                        conn.on_data_fin(mapping.data_start + mapping.length)

    def _covering_mapping(self, offset: int) -> Optional[RxMapping]:
        # Last mapping with ssn_start <= offset; walk left so that with
        # (hypothetically) overlapping mappings the *earliest* covering
        # one wins, as the old front-to-back scan guaranteed.  Mappings
        # are disjoint in practice, so the walk is 0 or 1 step.
        mappings = self._rx_mappings
        j = bisect_right(mappings, offset, key=_ssn_start) - 1
        if j < 0 or mappings[j].ssn_end <= offset:
            return None
        while j > 0 and mappings[j - 1].ssn_end > offset:
            j -= 1
        return mappings[j]

    def _next_mapping_start(self, offset: int) -> Optional[int]:
        mappings = self._rx_mappings
        j = bisect_right(mappings, offset, key=_ssn_start)
        if j < len(mappings):
            return mappings[j].ssn_start
        return None

    def _remove_mapping(self, mapping: RxMapping) -> None:
        """Drop a consumed mapping: bisect to its equal-start run, then
        delete the first value-equal entry (what list.remove did, minus
        the scan from index 0)."""
        mappings = self._rx_mappings
        j = bisect_left(mappings, mapping.ssn_start, key=_ssn_start)
        while j < len(mappings):
            if mappings[j] == mapping:
                del mappings[j]
                return
            j += 1
        raise ValueError("mapping not in table")

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def _on_peer_fin(self) -> None:
        """A subflow FIN means "no more data on THIS subflow" (§3.4)."""
        super()._on_peer_fin()
        self.connection.on_subflow_fin(self)

    def _on_subflow_dead(self) -> None:
        self.mark_failed("retransmission limit")
        self._destroy(error="too many retransmissions")

    def mark_failed(self, reason: str) -> None:
        if self.failed:
            return
        self.failed = True
        self.connection.on_subflow_failed(self, reason)

    def _fail(self, reason: str) -> None:
        self.mark_failed(reason)
        super()._fail(reason)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Subflow {self.name} {self.kind} {self.state.value} "
            f"{self.local}->{self.remote} mptcp={self.is_mptcp}>"
        )
