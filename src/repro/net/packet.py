"""The wire model: endpoints and TCP segments.

Segments carry *real* 32-bit sequence/ack numbers, real flag bits, a raw
16-bit window field and a list of typed options that encode to bytes.
Middleboxes operate on these objects exactly as a real middlebox operates
on packets: they can rewrite addresses and sequence numbers, strip options,
split and merge payloads, and everything downstream (including the MPTCP
data-sequence mapping machinery) has to cope.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, NamedTuple, Optional, Type, TypeVar

from repro.tcp.seq import seq_add

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.options import TCPOption
    from repro.net.payload import Buffer

# TCP header flag bits (subset used by the simulator).
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10

_FLAG_NAMES = [(SYN, "SYN"), (ACK, "ACK"), (FIN, "FIN"), (RST, "RST"), (PSH, "PSH")]

# Fixed header sizes used for packet sizing (IPv4 + TCP without options).
IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20

MAX_OPTION_BYTES = 40  # TCP data-offset field limits options to 40 bytes

SEQ_MOD = 1 << 32


def flags_repr(flags: int) -> str:
    """Human-readable flag string, e.g. ``"SYN|ACK"``."""
    names = [name for bit, name in _FLAG_NAMES if flags & bit]
    return "|".join(names) if names else "-"


class Endpoint(NamedTuple):
    """An (ip, port) pair that keys demux tables and flow ledgers.

    A tuple, so building, hashing, equality and ordering run in C, and
    ``Endpoint(ip, port) == (ip, port)``.
    """

    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


_T = TypeVar("_T", bound="TCPOption")


class Segment:
    """One TCP segment in flight.

    ``payload`` is real bytes (``bytes`` or a zero-copy read-only
    ``memoryview`` over ``bytes``): content-modifying middleboxes
    genuinely change them and the DSS checksum genuinely detects it.
    """

    __slots__ = (
        "src",
        "dst",
        "seq",
        "ack",
        "flags",
        "window",
        "payload_len",
        "options",
        "_payload",
        "created_at",
    )

    def __init__(
        self,
        src: Endpoint,
        dst: Endpoint,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        window: int = 0,
        options: Optional[list["TCPOption"]] = None,
        payload: "Buffer" = b"",
        created_at: float = 0.0,
        payload_len: Optional[int] = None,
    ):
        self.src = src
        self.dst = dst
        self.seq = seq % SEQ_MOD
        self.ack = ack % SEQ_MOD
        self.flags = flags
        self.window = window
        self.options: list["TCPOption"] = options if options is not None else []
        self._payload: "Buffer" = payload
        # Cached len(payload): links, sockets and the DSS machinery read
        # the payload length several times per hop, and reading it
        # through the ``payload`` property costs a Python frame.  Senders
        # that already know the length pass it to skip even the initial
        # len().
        self.payload_len: int = len(payload) if payload_len is None else payload_len
        self.created_at = created_at

    @property
    def payload(self) -> "Buffer":
        return self._payload

    @payload.setter
    def payload(self, payload: "Buffer") -> None:
        self._payload = payload
        self.payload_len = len(payload)

    # ------------------------------------------------------------------
    # Flag helpers
    # ------------------------------------------------------------------
    @property
    def syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & ACK)

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.payload_len

    @property
    def seq_space(self) -> int:
        """Bytes of sequence space consumed (payload plus SYN/FIN)."""
        flags = self.flags
        length = self.payload_len
        if flags & SYN:
            length += 1
        if flags & FIN:
            length += 1
        return length

    @property
    def end_seq(self) -> int:
        return seq_add(self.seq, self.seq_space)

    @property
    def size_bytes(self) -> int:
        """On-the-wire size including IP and TCP headers."""
        # Inline of repro.net.options.options_length(): Link.send reads
        # this once per transmitted segment, and the helper call was
        # measurable at that rate.
        raw = 0
        for option in self.options:
            raw += option.wire_len
        return IP_HEADER_BYTES + TCP_HEADER_BYTES + (raw + 3) // 4 * 4 + self.payload_len

    # ------------------------------------------------------------------
    # Option access
    # ------------------------------------------------------------------
    def find_option(self, option_type: Type[_T]) -> Optional[_T]:
        """First option of the given type, or None."""
        for option in self.options:
            if isinstance(option, option_type):
                return option
        return None

    # ------------------------------------------------------------------
    # Copying (middleboxes and retransmissions need deep-enough copies)
    # ------------------------------------------------------------------
    def copy(self) -> "Segment":
        """A copy sharing nothing mutable with the original.

        Options are immutable wire values, so sharing the instances is
        safe; the *list* is copied so adding/stripping options on the copy
        leaves the original intact.
        """
        return Segment(
            src=self.src,
            dst=self.dst,
            seq=self.seq,
            ack=self.ack,
            flags=self.flags,
            window=self.window,
            options=list(self.options),
            payload=self.payload,
            created_at=self.created_at,
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_wire(self) -> bytes:
        """Serialise to the segment wire format.

        The segment is flattened to real bytes — fixed header,
        dotted-quad endpoints, the *encoded* option blob and the payload
        — and rebuilt with :func:`segment_from_wire`.  Options go
        through the same codec middleboxes use, so the bytes obey the
        same option-space constraints a segment on a path does.
        """
        from repro.net.options import encode_options

        blob = encode_options(self.options)
        payload = self._payload
        if type(payload) is not bytes:
            payload = bytes(payload)
        src = self.src
        dst = self.dst
        src_ip = src.ip.encode("ascii")
        dst_ip = dst.ip.encode("ascii")
        header = _WIRE_HEADER.pack(
            self.seq,
            self.ack,
            self.window,
            self.flags,
            len(src_ip),
            len(dst_ip),
            src.port,
            dst.port,
            self.created_at,
            len(blob),
            len(payload),
        )
        return b"".join((header, src_ip, dst_ip, blob, payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        opts = ",".join(type(option).__name__ for option in self.options)
        return (
            f"<Seg {self.src}->{self.dst} {flags_repr(self.flags)} "
            f"seq={self.seq} ack={self.ack} len={len(self.payload)} win={self.window}"
            f"{' opts=' + opts if opts else ''}>"
        )


# Fixed wire header: seq, ack, window, flags, src-ip len, dst-ip len,
# src port, dst port, created_at, option-blob len, payload len.
# Big-endian, no padding; the two IP strings, the encoded option blob
# and the payload follow in that order.
_WIRE_HEADER = struct.Struct(">IIIBBBIIdHI")

# decode_options() resolves option kinds through a registry that the
# MPTCP module populates on import.  A cold deserialiser — unit tests,
# tools — may not have imported it, and kind 30 would silently
# downgrade to UnknownOption.  Latched import, checked per call.
_WIRE_DECODERS_READY = False


def segment_from_wire(data: bytes) -> Segment:
    """Rebuild a :class:`Segment` from :meth:`Segment.to_wire` bytes.

    The payload comes back as plain ``bytes`` (a zero-copy view does not
    survive serialisation); options are decoded through the
    registered option codecs.  Raises ``ValueError`` on truncation.
    """
    global _WIRE_DECODERS_READY
    if not _WIRE_DECODERS_READY:
        import repro.mptcp.options  # noqa: F401  (registers the kind-30 decoder)

        _WIRE_DECODERS_READY = True
    from repro.net.options import decode_options

    try:
        (
            seq,
            ack,
            window,
            flags,
            src_ip_len,
            dst_ip_len,
            src_port,
            dst_port,
            created_at,
            blob_len,
            payload_len,
        ) = _WIRE_HEADER.unpack_from(data)
    except struct.error as error:
        raise ValueError(f"truncated segment header: {error}") from error
    offset = _WIRE_HEADER.size
    end = offset + src_ip_len + dst_ip_len + blob_len + payload_len
    if end != len(data):
        raise ValueError(
            f"segment length mismatch: header implies {end} bytes, got {len(data)}"
        )
    src_ip = data[offset : offset + src_ip_len].decode("ascii")
    offset += src_ip_len
    dst_ip = data[offset : offset + dst_ip_len].decode("ascii")
    offset += dst_ip_len
    options = decode_options(data[offset : offset + blob_len])
    offset += blob_len
    payload = data[offset:end]
    return Segment(
        src=Endpoint(src_ip, src_port),
        dst=Endpoint(dst_ip, dst_port),
        seq=seq,
        ack=ack,
        flags=flags,
        window=window,
        options=options,
        payload=payload,
        created_at=created_at,
        payload_len=payload_len,
    )
