"""TCP options with a real wire encoding.

Why bother encoding options to bytes in a simulator?  Because the paper's
constraints are *byte* constraints: TCP's data-offset field allows at most
40 option bytes per segment, which is exactly why a coalescing middlebox
cannot preserve two data-sequence mappings (§3.3.5) and why the DSS option
layout matters.  Every option here round-trips through ``encode`` /
``decode_options`` and tests enforce it.

The MPTCP option (kind 30) is defined in :mod:`repro.mptcp.options` and
registers its decoder here, keeping this layer protocol-agnostic.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Callable, Iterable

KIND_EOL = 0
KIND_NOP = 1
KIND_MSS = 2
KIND_WSCALE = 3
KIND_SACK_PERMITTED = 4
KIND_SACK = 5
KIND_TIMESTAMPS = 8
KIND_MPTCP = 30

_DECODERS: dict[int, Callable[[bytes], "TCPOption"]] = {}

# Options refuse assignment, so constructors store their slots through
# object's own setter.
_set = object.__setattr__


def register_option(kind: int, decoder: Callable[[bytes], "TCPOption"]) -> None:
    """Register a decoder for an option kind (body excludes kind+len)."""
    _DECODERS[kind] = decoder


class TCPOption:
    """Base class: an immutable, slotted wire value (safe to share).

    A kind's fields are its ``__match_args__``, stored in slots by a
    hand-written ``__init__`` through ``_set`` (no generated code: one
    option is built per sent segment).  No instance has a ``__dict__``,
    assignment raises, and equality, hashing and ``repr`` go by (type,
    fields), so ``MSSOption(7) != WindowScaleOption(7)``.

    ``wire_len`` is the preparsed codec: the encoded length, fixed at
    construction.  Fixed-size kinds make it a class constant; the others
    compute it from their fields (pure arithmetic, no byte building).
    All hot-path sizing (``Segment.size_bytes``, link serialisation,
    middlebox option-space checks) reads it; the bytes themselves are
    built by ``encode()``, which on the data path is never called (only
    traces, checksum rewrites and the segment wire codec serialise
    options).  The wire tests enforce ``wire_len == len(encode())`` per
    option type.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    wire_len: int

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.__class__, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # The raising __setattr__ defeats the default slot-state restore
        # of copy and pickle: rebuild through the constructor instead.
        return self.__class__, self._values()

    def encode(self) -> bytes:
        raise NotImplementedError

    @property
    def kind(self) -> int:
        raise NotImplementedError


class NoOperation(TCPOption):
    __slots__ = ()
    kind = KIND_NOP
    wire_len = 1

    def encode(self) -> bytes:
        return bytes([KIND_NOP])


class MSSOption(TCPOption):
    __slots__ = __match_args__ = ("mss",)
    kind = KIND_MSS
    wire_len = 4

    def __init__(self, mss: int = 1460) -> None:
        _set(self, "mss", mss)

    def encode(self) -> bytes:
        return bytes([KIND_MSS, 4]) + self.mss.to_bytes(2, "big")


class WindowScaleOption(TCPOption):
    __slots__ = __match_args__ = ("shift",)
    kind = KIND_WSCALE
    wire_len = 3

    def __init__(self, shift: int = 0) -> None:
        _set(self, "shift", shift)

    def encode(self) -> bytes:
        return bytes([KIND_WSCALE, 3, self.shift])


class SACKPermitted(TCPOption):
    __slots__ = ()
    kind = KIND_SACK_PERMITTED
    wire_len = 2

    def encode(self) -> bytes:
        return bytes([KIND_SACK_PERMITTED, 2])


class SACKOption(TCPOption):
    """Selective acknowledgment blocks: tuples of (left, right) edges."""

    __slots__ = ("blocks", "wire_len")
    __match_args__ = ("blocks",)
    kind = KIND_SACK

    def __init__(self, blocks: tuple[tuple[int, int], ...] = ()) -> None:
        _set(self, "blocks", blocks)
        _set(self, "wire_len", 2 + 8 * len(blocks))

    def encode(self) -> bytes:
        body = b"".join(
            left.to_bytes(4, "big") + right.to_bytes(4, "big") for left, right in self.blocks
        )
        return bytes([KIND_SACK, 2 + len(body)]) + body


class TimestampsOption(TCPOption):
    __slots__ = __match_args__ = ("tsval", "tsecr")
    kind = KIND_TIMESTAMPS
    wire_len = 10

    def __init__(self, tsval: int = 0, tsecr: int = 0) -> None:
        # One is built per sent segment (modulo the socket's one-slot memo).
        _set(self, "tsval", tsval)
        _set(self, "tsecr", tsecr)

    def encode(self) -> bytes:
        return (
            bytes([KIND_TIMESTAMPS, 10])
            + (self.tsval & 0xFFFFFFFF).to_bytes(4, "big")
            + (self.tsecr & 0xFFFFFFFF).to_bytes(4, "big")
        )


class UnknownOption(TCPOption):
    """An option the decoder has no registered type for.

    Middleboxes forward these untouched — exactly the "pass options they
    don't understand" behaviour the paper's §7 warns about.
    """

    __slots__ = ("unknown_kind", "body", "wire_len")
    __match_args__ = ("unknown_kind", "body")

    def __init__(self, unknown_kind: int = 253, body: bytes = b"") -> None:
        _set(self, "unknown_kind", unknown_kind)
        _set(self, "body", body)
        _set(self, "wire_len", 2 + len(body))

    @property
    def kind(self) -> int:
        return self.unknown_kind

    def encode(self) -> bytes:
        return bytes([self.unknown_kind, 2 + len(self.body)]) + self.body


def _decode_mss(body: bytes) -> TCPOption:
    return MSSOption(mss=int.from_bytes(body, "big"))


def _decode_wscale(body: bytes) -> TCPOption:
    return WindowScaleOption(shift=body[0])


def _decode_sack_permitted(body: bytes) -> TCPOption:
    return SACKPermitted()


def _decode_sack(body: bytes) -> TCPOption:
    blocks = tuple(
        (int.from_bytes(body[i : i + 4], "big"), int.from_bytes(body[i + 4 : i + 8], "big"))
        for i in range(0, len(body), 8)
    )
    return SACKOption(blocks=blocks)


def _decode_timestamps(body: bytes) -> TCPOption:
    return TimestampsOption(
        tsval=int.from_bytes(body[0:4], "big"), tsecr=int.from_bytes(body[4:8], "big")
    )


register_option(KIND_MSS, _decode_mss)
register_option(KIND_WSCALE, _decode_wscale)
register_option(KIND_SACK_PERMITTED, _decode_sack_permitted)
register_option(KIND_SACK, _decode_sack)
register_option(KIND_TIMESTAMPS, _decode_timestamps)


def encode_options(options: Iterable[TCPOption]) -> bytes:
    """Encode an option list, padded with NOPs to a 4-byte boundary."""
    blob = b"".join(option.encode() for option in options)
    remainder = len(blob) % 4
    if remainder:
        blob += b"\x01" * (4 - remainder)  # KIND_NOP padding
    return blob


def options_length(options: Iterable[TCPOption]) -> int:
    """Padded encoded length; the value the TCP data offset must cover."""
    raw = 0
    for option in options:
        raw += option.wire_len
    return (raw + 3) // 4 * 4


def fits_option_space(options: Iterable[TCPOption]) -> bool:
    return options_length(options) <= 40


def decode_options(blob: bytes) -> list[TCPOption]:
    """Parse an encoded option blob back to typed options.

    Unknown kinds become :class:`UnknownOption`; NOP/EOL padding is
    dropped.  Raises ValueError on truncated options.
    """
    options: list[TCPOption] = []
    i = 0
    while i < len(blob):
        kind = blob[i]
        if kind == KIND_EOL:
            break
        if kind == KIND_NOP:
            i += 1
            continue
        if i + 1 >= len(blob):
            raise ValueError("truncated option: missing length byte")
        length = blob[i + 1]
        if length < 2 or i + length > len(blob):
            raise ValueError(f"bad option length {length} for kind {kind}")
        body = blob[i + 2 : i + length]
        decoder = _DECODERS.get(kind)
        if decoder is not None:
            options.append(decoder(body))
        else:
            options.append(UnknownOption(unknown_kind=kind, body=body))
        i += length
    return options
