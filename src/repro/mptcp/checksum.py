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


def ones_complement_sum(data: Buffer) -> int:
    """16-bit one's-complement sum of ``data`` (padded with a zero byte
    if odd length), as used by the TCP/IP checksums.

    Accepts any bytes-like object, memoryview payloads included, and
    folds it in C — the hot path (one call per mapped payload when DSS
    checksums are on) runs no Python frame per byte.

    Implementation: because ``2**16 ≡ 1 (mod 0xFFFF)``, the big-endian
    integer value of the data is congruent to the sum of its 16-bit
    words, so the whole fold collapses to one C-level ``int.from_bytes``
    and one modulo.  The only case the congruence cannot distinguish is
    a non-zero sum that is a multiple of ``0xFFFF`` — the repeated-fold
    loop yields ``0xFFFF`` there, never 0, hence the final fix-up.
    An odd length needs a zero byte appended, which is a left shift.
    """
    value = int.from_bytes(data, "big")
    if len(data) & 1:
        value <<= 8  # zero-pad the odd tail byte
    if value == 0:
        return 0
    folded = value % 0xFFFF
    return folded if folded else 0xFFFF


def add_ones_complement(a: int, b: int) -> int:
    """One's-complement addition of two 16-bit partial sums."""
    total = a + b
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def payload_sum(payload: Buffer) -> int:
    """The payload's partial sum — computed once, then combined into
    both the TCP checksum and the DSS checksum."""
    return ones_complement_sum(payload)


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
    total = (dsn >> 16) + (dsn & 0xFFFF) + (ssn >> 16) + (ssn & 0xFFFF) + (length & 0xFFFF)  # analyze: ok(DOM01)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def dss_checksum(dsn: int, subflow_seq: int, length: int, payload: Buffer) -> int:
    """Checksum placed in the DSS option: one's complement of the sum of
    the pseudo-header and the mapped payload."""
    total = add_ones_complement(pseudo_header_sum(dsn, subflow_seq, length), payload_sum(payload))
    return (~total) & 0xFFFF


def verify_dss_checksum(
    dsn: int, subflow_seq: int, length: int, payload: Buffer, checksum: int
) -> bool:
    """True when the received mapping's bytes are unmodified."""
    return dss_checksum(dsn, subflow_seq, length, payload) == checksum
