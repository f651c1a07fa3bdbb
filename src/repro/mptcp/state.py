"""MPTCP connection-level states (RFC 6824 §3, the paper's §3.1 ladder).

RFC 6824 does not draw a single connection state diagram the way
RFC 793 does, but the MP_CAPABLE/MP_JOIN handshakes and the fallback
ladder define one implicitly, and the paper's hardest deployment bugs
(§3.1) are exactly missed transitions in it.  :data:`TRANSITIONS` makes
that machine explicit: ``MPTCPConnection._set_state`` is its only
writer after ``__init__`` and raises
:class:`~repro.tcp.state.IllegalTransition` for any pair not in the
table.  FSM01 (``repro.analyze``) checks statically that nothing else
writes ``.conn_state``.

The three historical booleans (``established``, ``fallback``,
``closed``) survive as derived read-only properties on
:class:`~repro.mptcp.connection.MPTCPConnection`; the enum is the only
source of truth, so the flags can never drift apart.
"""

from __future__ import annotations

import enum


class MPTCPConnState(enum.Enum):
    """Cross-product of (established, fallback, closed) that actually
    occurs; fallback and closure are both one-way doors."""

    M_INIT = "M_INIT"  # first subflow still handshaking
    M_ESTABLISHED = "M_ESTABLISHED"  # MPTCP confirmed end-to-end
    M_FALLBACK_INIT = "M_FALLBACK_INIT"  # dropped to TCP during handshake
    M_FALLBACK = "M_FALLBACK"  # carrying data as plain TCP
    M_CLOSED = "M_CLOSED"  # fully closed, MPTCP mode
    M_FALLBACK_CLOSED = "M_FALLBACK_CLOSED"  # fully closed, fallback mode

    # Non-member attributes (bare annotations are not enum members):
    # the derived flags are stamped onto each member once, below, so the
    # per-segment hot path reads a plain attribute instead of hashing
    # enum members into a frozenset.
    is_established: bool  #: completed a handshake and can carry data
    is_fallback: bool  #: the fallback door has been passed (one-way)
    is_closed: bool


# Every member as a module constant, in definition order, read instead
# of ``MPTCPConnState.X`` (see ``repro.tcp.state``: 3.11's
# ``EnumType.__getattr__`` makes each class attribute read slow).
M_INIT, M_ESTABLISHED, M_FALLBACK_INIT, M_FALLBACK, M_CLOSED, M_FALLBACK_CLOSED = MPTCPConnState

# Fallback and closure are one-way doors: no row leaves a fallback or a
# closed state except fallback -> fallback-closed.
TRANSITIONS = frozenset(
    {
        (M_INIT, M_ESTABLISHED),  # first subflow completes the MP_CAPABLE handshake
        (M_INIT, M_FALLBACK_INIT),  # options stripped during the handshake (RFC 6824 §3.1)
        (M_INIT, M_CLOSED),  # abort before establishment
        (M_FALLBACK_INIT, M_FALLBACK),  # first subflow up, carrying the plain byte stream
        (M_FALLBACK_INIT, M_FALLBACK_CLOSED),  # abort while falling back in the handshake
        (M_ESTABLISHED, M_FALLBACK),  # DSS checksum failure / MP_FAIL (RFC 6824 §3.6)
        (M_ESTABLISHED, M_CLOSED),  # DATA_FIN exchange complete / teardown
        (M_FALLBACK, M_FALLBACK_CLOSED),  # subflow FIN teardown of the fallback stream
    }
)

_ESTABLISHED = frozenset({M_ESTABLISHED, M_FALLBACK})
_FALLBACK = frozenset({M_FALLBACK_INIT, M_FALLBACK, M_FALLBACK_CLOSED})
_CLOSED = frozenset({M_CLOSED, M_FALLBACK_CLOSED})

for _state in MPTCPConnState:
    _state.is_established = _state in _ESTABLISHED
    _state.is_fallback = _state in _FALLBACK
    _state.is_closed = _state in _CLOSED
del _state
