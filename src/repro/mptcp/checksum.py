"""The DSS checksum (§3.3.6).

Application-level gateways rewrite payload bytes (and, for length
changes, fix up sequence numbers so the endpoints never notice).  Every
mapping scheme the designers considered breaks under this, so MPTCP
carries a checksum over each mapping: the same 16-bit one's-complement
sum TCP uses, over an MPTCP pseudo-header (DSN, relative SSN, length)
plus the mapped payload.  Sharing TCP's algorithm means a software
stack computes the payload sum once and reuses it for both checksums —
the cost the Fig. 3 experiment quantifies is the loss of NIC *offload*,
not a second pass.
"""

from __future__ import annotations

from repro.net.payload import Buffer


# Shift-add fold widths, widest first: 1,024·2^j bits up to 256 Kibit,
# which halves a 64 KiB mapping (the most a 16-bit DSS length covers).
_FOLDS = tuple((width, (1 << width) - 1) for width in (1024 << j for j in range(8, -1, -1)))


def ones_complement_sum(data: Buffer) -> int:
    """16-bit one's-complement sum of ``data`` (zero-padded to even
    length), as used by the TCP/IP checksums; any bytes-like object.

    As ``2**16 ≡ 1 (mod 0xFFFF)``, the data's big-endian integer value
    (one C-level ``int.from_bytes``) is congruent to the sum of its
    words.  CPython's ``%`` divides once per 30-bit digit, so a long
    value is first cut down by shift-add folds ``(v >> k) + (v & (2**k
    - 1))``, ``k`` running down the table of multiples of 16 (``2**k ≡
    1`` too).  A non-zero value stays non-zero, so a non-zero multiple
    of ``0xFFFF`` sums to ``0xFFFF``, never 0.
    """
    value = int.from_bytes(data, "big")
    if len(data) & 1:
        value <<= 8  # zero-pad the odd tail byte
    if value == 0:
        return 0
    for width, mask in _FOLDS:
        if value.bit_length() > width:
            value = (value >> width) + (value & mask)
    folded = value % 0xFFFF
    return folded if folded else 0xFFFF


def add_ones_complement(a: int, b: int) -> int:
    """One's-complement addition of two 16-bit partial sums."""
    total = a + b
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def pseudo_header_sum(dsn: int, subflow_seq: int, length: int) -> int:
    """Partial sum of the MPTCP pseudo-header covering the mapping.

    Pure integer arithmetic — summing the five 16-bit words of the
    (DSN, relative SSN, length, zero-pad) header without building the
    12-byte string first.  Equivalent to ``ones_complement_sum`` over
    the encoded header.
    """
    dsn &= 0xFFFFFFFF
    ssn = subflow_seq & 0xFFFFFFFF
    # The checksum folds both sequence spaces into 16-bit words; this
    # is bit-pattern hashing, not sequence arithmetic.
    total = (dsn >> 16) + (dsn & 0xFFFF) + (ssn >> 16) + (ssn & 0xFFFF) + (length & 0xFFFF)
    return add_ones_complement(total >> 16, total & 0xFFFF)


def dss_checksum(dsn: int, subflow_seq: int, length: int, payload: Buffer) -> int:
    """Checksum placed in the DSS option: one's complement of the sum of
    the pseudo-header and the mapped payload."""
    total = add_ones_complement(pseudo_header_sum(dsn, subflow_seq, length), ones_complement_sum(payload))
    return (~total) & 0xFFFF


def verify_dss_checksum(
    dsn: int, subflow_seq: int, length: int, payload: Buffer, checksum: int
) -> bool:
    """True when the received mapping's bytes are unmodified."""
    return dss_checksum(dsn, subflow_seq, length, payload) == checksum
