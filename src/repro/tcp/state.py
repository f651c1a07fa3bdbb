"""RFC 793 connection states and the transitions the socket may take.

:data:`TRANSITIONS` is the machine: ``TCPSocket._set_state`` is its only
writer after ``__init__`` and raises :class:`IllegalTransition` for any
``(state, dst)`` pair not in the table, in every run.  FSM01
(``repro.analyze``) checks statically that nothing else writes
``.state``.
"""

from __future__ import annotations

import enum


class TCPState(enum.Enum):
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSING = "CLOSING"
    TIME_WAIT = "TIME_WAIT"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"

    # Non-member attributes (bare annotations are not enum members): the
    # derived flags are stamped onto each member once, below, so the
    # per-segment hot path reads a plain attribute instead of hashing
    # enum members into a frozenset behind a property call.
    synchronized: bool  #: past the three-way handshake
    can_receive_data: bool
    may_send_data: bool  #: the local application may still submit data


# Every member as a module constant, in definition order.  On CPython
# 3.11 ``EnumType`` defines ``__getattr__``, so each ``TCPState.X`` read
# goes through a Python-level attribute hook (~180 ns against ~20 ns for
# a global): code outside this module reads these names instead.
(
    CLOSED, LISTEN, SYN_SENT, SYN_RCVD, ESTABLISHED, FIN_WAIT_1,
    FIN_WAIT_2, CLOSING, TIME_WAIT, CLOSE_WAIT, LAST_ACK,
) = TCPState


class IllegalTransition(RuntimeError):
    """A state write whose ``(src, dst)`` pair is not in the machine's
    table.  ``args`` is ``(machine, src, dst)`` — a name and two enum
    members — so the error pickles across a worker pipe as is; the text
    is built only when it is printed."""

    def __str__(self) -> str:
        machine, src, dst = self.args
        return f"{machine}: {src.name} -> {dst.name} is not in the transition table"


# RFC 793 edges the code never takes, so they are not rows: everything
# through LISTEN (a Listener adopts each SYN into a fresh CLOSED socket),
# simultaneous open (SYN_SENT -> SYN_RCVD) and FIN+ACK in one segment
# (FIN_WAIT_1 -> TIME_WAIT: the ACK is processed first, via FIN_WAIT_2).
TRANSITIONS = frozenset(
    {
        (CLOSED, SYN_SENT),  # active OPEN: send SYN
        (CLOSED, SYN_RCVD),  # a Listener adopts an incoming SYN: send SYN,ACK
        (SYN_SENT, ESTABLISHED),  # rcv SYN,ACK: send ACK
        (SYN_RCVD, ESTABLISHED),  # rcv ACK of SYN
        (SYN_RCVD, FIN_WAIT_1),  # CLOSE during the handshake: send FIN
        (ESTABLISHED, FIN_WAIT_1),  # CLOSE: send FIN
        (ESTABLISHED, CLOSE_WAIT),  # rcv FIN: send ACK
        (FIN_WAIT_1, FIN_WAIT_2),  # rcv ACK of FIN
        (FIN_WAIT_1, CLOSING),  # rcv FIN: simultaneous close
        (FIN_WAIT_2, TIME_WAIT),  # rcv FIN: send ACK
        (CLOSING, TIME_WAIT),  # rcv ACK of FIN
        (CLOSE_WAIT, LAST_ACK),  # CLOSE: send FIN
    }
    # Every other entered state closes through _destroy: ABORT and RST
    # from anywhere, LAST_ACK's ACK of FIN and TIME_WAIT's 2*MSL expiry.
    | {(state, CLOSED) for state in TCPState if state not in (CLOSED, LISTEN)}
)

_SYNCHRONIZED = frozenset({ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2, CLOSING, TIME_WAIT, CLOSE_WAIT, LAST_ACK})
_RECEIVING = frozenset({ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2})

for _state in TCPState:
    _state.synchronized = _state in _SYNCHRONIZED
    _state.can_receive_data = _state in _RECEIVING
    _state.may_send_data = _state in (ESTABLISHED, CLOSE_WAIT)
del _state
