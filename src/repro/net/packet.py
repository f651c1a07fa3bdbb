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
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Optional, Type, TypeVar

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

# Lazily bound reference to repro.net.options.options_length (circular
# import: that module imports this one for the option base class).
_options_length = None
MAX_OPTION_BYTES = 40  # TCP data-offset field limits options to 40 bytes

SEQ_MOD = 1 << 32


def flags_repr(flags: int) -> str:
    """Human-readable flag string, e.g. ``"SYN|ACK"``."""
    names = [name for bit, name in _FLAG_NAMES if flags & bit]
    return "|".join(names) if names else "-"


@dataclass(frozen=True, order=True)
class Endpoint:
    """An (ip, port) pair.  Hashable so it can key demux tables."""

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
        "_options",
        "_options_len_cache",
        "_payload",
        "_size_cache",
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
        self._options: list["TCPOption"] = options if options is not None else []
        self._options_len_cache: Optional[tuple[int, int]] = None
        self._payload: "Buffer" = payload
        # Cached len(payload): links, sockets and the DSS machinery read
        # the payload length several times per hop, and reading it
        # through the ``payload`` property costs a Python frame.  Senders
        # that already know the length pass it to skip even the initial
        # len().
        self.payload_len: int = len(payload) if payload_len is None else payload_len
        self._size_cache: Optional[tuple[int, int]] = None
        self.created_at = created_at

    @property
    def options(self) -> list["TCPOption"]:
        return self._options

    @options.setter
    def options(self, options: list["TCPOption"]) -> None:
        self._options = options
        self._options_len_cache = None
        self._size_cache = None

    @property
    def payload(self) -> "Buffer":
        return self._payload

    @payload.setter
    def payload(self, payload: "Buffer") -> None:
        self._payload = payload
        self.payload_len = len(payload)
        self._size_cache = None

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

    def options_length(self) -> int:
        """Encoded (padded) length of the option list in bytes.

        Cached: links recompute packet sizes on every hop, so encoding
        the (immutable) options repeatedly dominated the link hot path.
        Replacing the list (the `options` setter, :meth:`remove_options`)
        or changing its length in place invalidates the cache.
        """
        cache = self._options_len_cache
        count = len(self._options)
        if cache is not None and cache[0] == count:
            return cache[1]
        global _options_length
        if _options_length is None:
            # Imported lazily (repro.net.options imports this module);
            # bound once instead of re-importing per cache miss.
            from repro.net.options import options_length

            _options_length = options_length
        length = _options_length(self._options)
        self._options_len_cache = (count, length)
        return length

    @property
    def size_bytes(self) -> int:
        """On-the-wire size including IP and TCP headers.

        Cached with the same invalidation discipline as
        :meth:`options_length`: ``Link.send``, ``tx_time`` and the
        transmit-done handler each read it per packet, so recomputing
        the option encoding three times per hop added up.  Assigning
        ``payload`` or ``options`` invalidates; in-place option-list
        edits that change its *count* are caught by the count key.
        """
        cache = self._size_cache
        count = len(self._options)
        if cache is not None and cache[0] == count:
            return cache[1]
        # Inline of options_length(): Link.send reads this once per
        # transmitted segment, and the method + helper dispatch pair was
        # measurable at that rate.
        raw = 0
        for option in self._options:
            raw += option.wire_len
        size = (
            IP_HEADER_BYTES + TCP_HEADER_BYTES + (raw + 3) // 4 * 4 + self.payload_len
        )
        self._size_cache = (count, size)
        return size

    # ------------------------------------------------------------------
    # Option access
    # ------------------------------------------------------------------
    def find_option(self, option_type: Type[_T]) -> Optional[_T]:
        """First option of the given type, or None."""
        for option in self.options:
            if isinstance(option, option_type):
                return option
        return None

    def find_options(self, option_type: Type[_T]) -> list[_T]:
        return [option for option in self.options if isinstance(option, option_type)]

    def remove_options(self, option_type: Type["TCPOption"]) -> int:
        """Strip all options of a type; returns how many were removed."""
        kept = [option for option in self.options if not isinstance(option, option_type)]
        removed = len(self.options) - len(kept)
        self.options = kept
        return removed

    # ------------------------------------------------------------------
    # Copying (middleboxes and retransmissions need deep-enough copies)
    # ------------------------------------------------------------------
    def copy(self) -> "Segment":
        """A copy sharing nothing mutable with the original.

        Options are immutable dataclasses, so sharing the instances is
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
    # Wire format (cross-shard process boundary)
    # ------------------------------------------------------------------
    def to_wire(self) -> bytes:
        """Serialise to the inter-shard wire format.

        A segment crossing a shard boundary is flattened to real bytes —
        fixed header, dotted-quad endpoints, the *encoded* option blob
        and the payload — and rebuilt on the far side with
        :func:`segment_from_wire`.  Options round-trip through the same
        codec middleboxes use, so a sharded run exercises exactly the
        byte constraints a serial run does.
        """
        from repro.net.options import encode_options

        blob = encode_options(self._options)
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
# MPTCP module populates on import.  A forked shard worker always has it
# imported (the topology was built first), but a cold deserialiser —
# unit tests, tools — may not, and kind 30 would silently downgrade to
# UnknownOption.  Latched import, checked per call.
_WIRE_DECODERS_READY = False


def segment_from_wire(data: bytes) -> Segment:
    """Rebuild a :class:`Segment` from :meth:`Segment.to_wire` bytes.

    The payload comes back as plain ``bytes`` (a zero-copy view does not
    survive a process boundary); options are decoded through the
    registered option codecs.  Raises ``ValueError`` on truncation.
    """
    global _WIRE_DECODERS_READY
    if not _WIRE_DECODERS_READY:
        import repro.mptcp.options  # noqa: F401  (registers the kind-30 decoder)

        _WIRE_DECODERS_READY = True  # analyze: ok(MUT01): once-per-process import latch
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
