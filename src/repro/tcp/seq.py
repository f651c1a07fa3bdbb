"""Modular 32-bit sequence-number arithmetic (RFC 793 / RFC 1982 style).

TCP sequence numbers (and MPTCP's 32-bit data sequence numbers) wrap; all
comparisons are interpreted relative to a window of less than 2^31.  The
middlebox study's point that ISNs get *rewritten* in flight is why MPTCP's
data-sequence mapping uses relative offsets — these helpers are used by
both layers.
"""

from __future__ import annotations

SEQ_MOD = 1 << 32
_HALF = 1 << 31


def seq_add(seq: int, delta: int) -> int:
    """seq + delta, wrapped to 32 bits (delta may be negative)."""
    return (seq + delta) % SEQ_MOD


def seq_diff(a: int, b: int) -> int:
    """Signed distance a - b, interpreted modulo 2^32.

    Positive when ``a`` is "after" ``b`` (within half the space).
    """
    diff = (a - b) % SEQ_MOD
    if diff >= _HALF:
        diff -= SEQ_MOD
    return diff


def seq_lt(a: int, b: int) -> bool:
    return seq_diff(a, b) < 0


def seq_le(a: int, b: int) -> bool:
    return seq_diff(a, b) <= 0


def seq_gt(a: int, b: int) -> bool:
    return seq_diff(a, b) > 0


def seq_ge(a: int, b: int) -> bool:
    return seq_diff(a, b) >= 0

