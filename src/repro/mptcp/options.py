"""MPTCP TCP options (kind 30) with real wire encodings.

The byte layouts follow RFC 6824 (the standardised form of the design
the paper describes), with 32-bit data sequence numbers and data ACKs.
Getting the sizes right matters: a DSS carrying both a DATA_ACK and a
mapping with checksum is 20 bytes, which together with timestamps (12
padded) fits the 40-byte option space *once* — which is why a coalescing
middlebox must drop the second mapping (§3.3.5).
"""

from __future__ import annotations

from typing import Optional

from repro.net.options import KIND_MPTCP, TCPOption, _set, register_option

SUBTYPE_MP_CAPABLE = 0
SUBTYPE_MP_JOIN = 1
SUBTYPE_DSS = 2
SUBTYPE_ADD_ADDR = 3
SUBTYPE_REMOVE_ADDR = 4
SUBTYPE_MP_PRIO = 5
SUBTYPE_MP_FAIL = 6
SUBTYPE_FASTCLOSE = 7


class MPTCPOption(TCPOption):
    """Base for all kind-30 options.  ``wire_len`` counts kind, length
    and the subtype/flags byte (3) before the subtype body."""

    __slots__ = ()
    kind = KIND_MPTCP

    @property
    def subtype(self) -> int:
        raise NotImplementedError

    def _frame(self, body: bytes, flags: int = 0) -> bytes:
        """kind, length, subtype|flags-nibble, then the body."""
        return bytes([KIND_MPTCP, 3 + len(body), (self.subtype << 4) | (flags & 0x0F)]) + body


class MPCapable(MPTCPOption):
    """MP_CAPABLE: negotiates MPTCP and exchanges 64-bit keys (§3.1).

    ``receiver_key`` is present only on the third handshake ACK.
    ``checksum_required`` is the C flag: either endpoint may demand DSS
    checksums (needed to survive content-modifying middleboxes, §3.3.6).
    """

    __slots__ = ("sender_key", "receiver_key", "checksum_required", "version", "wire_len")
    __match_args__ = __slots__[:-1]
    subtype = SUBTYPE_MP_CAPABLE

    def __init__(
        self,
        sender_key: int = 0,
        receiver_key: Optional[int] = None,
        checksum_required: bool = True,
        version: int = 0,
    ) -> None:
        _set(self, "sender_key", sender_key)
        _set(self, "receiver_key", receiver_key)
        _set(self, "checksum_required", checksum_required)
        _set(self, "version", version)
        _set(self, "wire_len", 12 if receiver_key is None else 20)

    def encode(self) -> bytes:
        flags = 0x8 if self.checksum_required else 0x0
        body = bytes([flags]) + self.sender_key.to_bytes(8, "big")
        if self.receiver_key is not None:
            body += self.receiver_key.to_bytes(8, "big")
        return self._frame(body, flags=self.version)

    @staticmethod
    def decode(body: bytes, flags: int) -> "MPCapable":
        checksum = bool(body[0] & 0x8)
        sender_key = int.from_bytes(body[1:9], "big")
        receiver_key = int.from_bytes(body[9:17], "big") if len(body) >= 17 else None
        return MPCapable(
            sender_key=sender_key,
            receiver_key=receiver_key,
            checksum_required=checksum,
            version=flags,
        )


class MPJoin(MPTCPOption):
    """MP_JOIN: adds a subflow to an existing connection (§3.2).

    Three phases share the subtype:

    * SYN       — ``token`` (hash of the receiver's key) + ``nonce``
    * SYN/ACK   — truncated ``mac`` (HMAC over both nonces) + ``nonce``
    * third ACK — full ``mac`` from the initiator

    The MAC prevents blind subflow hijacking; the token matches the
    subflow to a connection without relying on the five-tuple (which
    NATs rewrite).
    """

    __slots__ = ("address_id", "token", "nonce", "mac", "backup", "wire_len")
    __match_args__ = __slots__[:-1]
    subtype = SUBTYPE_MP_JOIN

    def __init__(
        self,
        address_id: int = 0,
        token: Optional[int] = None,
        nonce: Optional[int] = None,
        mac: Optional[int] = None,
        backup: bool = False,
    ) -> None:
        _set(self, "address_id", address_id)
        _set(self, "token", token)
        _set(self, "nonce", nonce)
        _set(self, "mac", mac)
        _set(self, "backup", backup)
        # SYN, SYN/ACK and third-ACK forms (see encode).
        _set(self, "wire_len", 12 if token is not None else 16 if nonce is not None else 24)

    def encode(self) -> bytes:
        flags = 0x1 if self.backup else 0x0
        body = bytes([self.address_id])
        if self.token is not None:  # SYN form (8-byte body)
            body += self.token.to_bytes(4, "big") + (self.nonce or 0).to_bytes(4, "big")
        elif self.nonce is not None:  # SYN/ACK form (12-byte body)
            body += (self.mac or 0).to_bytes(8, "big") + self.nonce.to_bytes(4, "big")
        else:  # third-ACK form: RFC 6824 carries the full 20-byte HMAC
            body += (self.mac or 0).to_bytes(20, "big")
        return self._frame(body, flags=flags)

    @staticmethod
    def decode(body: bytes, flags: int) -> "MPJoin":
        backup = bool(flags & 0x1)
        address_id = body[0]
        rest = body[1:]
        if len(rest) == 8:  # SYN: token + nonce
            return MPJoin(
                address_id=address_id,
                token=int.from_bytes(rest[0:4], "big"),
                nonce=int.from_bytes(rest[4:8], "big"),
                backup=backup,
            )
        if len(rest) == 12:  # SYN/ACK: mac64 + nonce
            return MPJoin(
                address_id=address_id,
                mac=int.from_bytes(rest[0:8], "big"),
                nonce=int.from_bytes(rest[8:12], "big"),
                backup=backup,
            )
        # Third-ACK form: 20-byte HMAC (we use the low 64 bits).
        return MPJoin(
            address_id=address_id, mac=int.from_bytes(rest[-8:], "big"), backup=backup
        )


class DSS(MPTCPOption):
    """Data Sequence Signal: mapping, DATA_ACK and DATA_FIN (§3.3).

    The mapping is (relative subflow sequence number, data sequence
    number, length[, checksum]).  The *relative* SSN — offset from the
    subflow's ISN — is the paper's §3.3.4 conclusion: 10% of paths
    rewrite ISNs, so absolute subflow sequence numbers cannot appear in
    the option; and TSO NICs copy the option onto every split segment,
    so the mapping must be idempotent under duplication.
    """

    __slots__ = ("data_ack", "dsn", "subflow_seq", "length", "checksum", "data_fin", "wire_len")
    __match_args__ = __slots__[:-1]
    subtype = SUBTYPE_DSS

    FLAG_DATA_ACK = 0x1
    FLAG_MAPPING = 0x2
    FLAG_DATA_FIN = 0x4

    def __init__(
        self,
        data_ack: Optional[int] = None,  # 32-bit cumulative data ACK
        dsn: Optional[int] = None,  # 32-bit data sequence number of mapping start
        subflow_seq: Optional[int] = None,  # relative SSN (1 = first payload byte)
        length: int = 0,  # mapping length in bytes
        checksum: Optional[int] = None,
        data_fin: bool = False,
    ) -> None:
        # One is built per data segment sent.
        _set(self, "data_ack", data_ack)
        _set(self, "dsn", dsn)
        _set(self, "subflow_seq", subflow_seq)
        _set(self, "length", length)
        _set(self, "checksum", checksum)
        _set(self, "data_fin", data_fin)
        # kind + len + subtype/flags byte + DSS flags byte, then the body.
        wire_len = 4 if data_ack is None else 8
        if dsn is not None:
            wire_len += 10 if checksum is None else 12
        elif data_fin:
            wire_len += 4  # placeholder dsn of a fin-only DSS
        _set(self, "wire_len", wire_len)

    def encode(self) -> bytes:
        flags = 0
        body = b""
        if self.data_ack is not None:
            flags |= self.FLAG_DATA_ACK
            body += self.data_ack.to_bytes(4, "big")
        if self.dsn is not None:
            flags |= self.FLAG_MAPPING
            body += self.dsn.to_bytes(4, "big")
            body += (self.subflow_seq or 0).to_bytes(4, "big")
            body += self.length.to_bytes(2, "big")
            if self.checksum is not None:
                body += self.checksum.to_bytes(2, "big")
        if self.data_fin:
            flags |= self.FLAG_DATA_FIN
            if self.dsn is None:
                body += (0).to_bytes(4, "big")  # placeholder, fin-only DSS
        return self._frame(bytes([flags]) + body)

    @staticmethod
    def decode(body: bytes, flags_nibble: int) -> "DSS":
        flags = body[0]
        cursor = 1
        data_ack = dsn = subflow_seq = checksum = None
        length = 0
        if flags & DSS.FLAG_DATA_ACK:
            data_ack = int.from_bytes(body[cursor : cursor + 4], "big")
            cursor += 4
        if flags & DSS.FLAG_MAPPING:
            dsn = int.from_bytes(body[cursor : cursor + 4], "big")
            subflow_seq = int.from_bytes(body[cursor + 4 : cursor + 8], "big")
            length = int.from_bytes(body[cursor + 8 : cursor + 10], "big")
            cursor += 10
            if cursor + 2 <= len(body):
                checksum = int.from_bytes(body[cursor : cursor + 2], "big")
                cursor += 2
        return DSS(
            data_ack=data_ack,
            dsn=dsn,
            subflow_seq=subflow_seq,
            length=length,
            checksum=checksum,
            data_fin=bool(flags & DSS.FLAG_DATA_FIN),
        )


def _encode_ipv4(ip: str) -> bytes:
    parts = [int(p) for p in ip.split(".")]
    if len(parts) != 4 or any(not (0 <= p <= 255) for p in parts):
        raise ValueError(f"not an IPv4 address: {ip!r}")
    return bytes(parts)


def _decode_ipv4(raw: bytes) -> str:
    return ".".join(str(b) for b in raw)


class AddAddr(MPTCPOption):
    """ADD_ADDR: the explicit address-advertisement path (§3.2) — the
    only way a NATted client learns a multihomed server's other
    addresses."""

    __slots__ = ("address_id", "ip", "port", "wire_len")
    __match_args__ = __slots__[:-1]
    subtype = SUBTYPE_ADD_ADDR

    def __init__(self, address_id: int = 0, ip: str = "0.0.0.0", port: Optional[int] = None) -> None:
        _set(self, "address_id", address_id)
        _set(self, "ip", ip)
        _set(self, "port", port)
        _set(self, "wire_len", 8 if port is None else 10)

    def encode(self) -> bytes:
        body = bytes([self.address_id]) + _encode_ipv4(self.ip)
        if self.port is not None:
            body += self.port.to_bytes(2, "big")
        return self._frame(body)

    @staticmethod
    def decode(body: bytes, flags: int) -> "AddAddr":
        address_id = body[0]
        ip = _decode_ipv4(body[1:5])
        port = int.from_bytes(body[5:7], "big") if len(body) >= 7 else None
        return AddAddr(address_id=address_id, ip=ip, port=port)


class RemoveAddr(MPTCPOption):
    """REMOVE_ADDR: mobility signal that an address (and its subflows)
    is gone — the host may no longer be able to send a FIN from it
    (§3.4)."""

    __slots__ = __match_args__ = ("address_id",)
    subtype = SUBTYPE_REMOVE_ADDR
    wire_len = 4

    def __init__(self, address_id: int = 0) -> None:
        _set(self, "address_id", address_id)

    def encode(self) -> bytes:
        return self._frame(bytes([self.address_id]))

    @staticmethod
    def decode(body: bytes, flags: int) -> "RemoveAddr":
        return RemoveAddr(address_id=body[0])


class MPPrio(MPTCPOption):
    """MP_PRIO: flip a subflow between normal and backup priority."""

    __slots__ = ("backup", "address_id", "wire_len")
    __match_args__ = __slots__[:-1]
    subtype = SUBTYPE_MP_PRIO

    def __init__(self, backup: bool = False, address_id: Optional[int] = None) -> None:
        _set(self, "backup", backup)
        _set(self, "address_id", address_id)
        _set(self, "wire_len", 3 if address_id is None else 4)

    def encode(self) -> bytes:
        body = bytes([self.address_id]) if self.address_id is not None else b""
        return self._frame(body, flags=0x1 if self.backup else 0x0)

    @staticmethod
    def decode(body: bytes, flags: int) -> "MPPrio":
        return MPPrio(backup=bool(flags & 0x1), address_id=body[0] if body else None)


class MPFail(MPTCPOption):
    """MP_FAIL: DSS checksum failed; fall back to infinite mapping when
    this is the only subflow (§3.3.6)."""

    __slots__ = __match_args__ = ("dsn",)
    subtype = SUBTYPE_MP_FAIL
    wire_len = 11

    def __init__(self, dsn: int = 0) -> None:
        _set(self, "dsn", dsn)

    def encode(self) -> bytes:
        return self._frame(self.dsn.to_bytes(8, "big"))

    @staticmethod
    def decode(body: bytes, flags: int) -> "MPFail":
        return MPFail(dsn=int.from_bytes(body[0:8], "big"))


class FastClose(MPTCPOption):
    """MP_FASTCLOSE: connection-level abort (the RST analogue that RST
    itself cannot be, since a subflow RST only kills the subflow)."""

    __slots__ = __match_args__ = ("receiver_key",)
    subtype = SUBTYPE_FASTCLOSE
    wire_len = 11

    def __init__(self, receiver_key: int = 0) -> None:
        _set(self, "receiver_key", receiver_key)

    def encode(self) -> bytes:
        return self._frame(self.receiver_key.to_bytes(8, "big"))

    @staticmethod
    def decode(body: bytes, flags: int) -> "FastClose":
        return FastClose(receiver_key=int.from_bytes(body[0:8], "big"))


_SUBTYPE_DECODERS = {
    SUBTYPE_MP_CAPABLE: MPCapable.decode,
    SUBTYPE_MP_JOIN: MPJoin.decode,
    SUBTYPE_DSS: DSS.decode,
    SUBTYPE_ADD_ADDR: AddAddr.decode,
    SUBTYPE_REMOVE_ADDR: RemoveAddr.decode,
    SUBTYPE_MP_PRIO: MPPrio.decode,
    SUBTYPE_MP_FAIL: MPFail.decode,
    SUBTYPE_FASTCLOSE: FastClose.decode,
}


def _decode_mptcp(body: bytes) -> TCPOption:
    subtype = body[0] >> 4
    flags = body[0] & 0x0F
    decoder = _SUBTYPE_DECODERS.get(subtype)
    if decoder is None:
        raise ValueError(f"unknown MPTCP subtype {subtype}")
    return decoder(body[1:], flags)


register_option(KIND_MPTCP, _decode_mptcp)
