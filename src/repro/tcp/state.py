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


class IllegalTransition(RuntimeError):
    """A state write whose ``(src, dst)`` pair is not in the machine's
    table.  ``args`` is ``(machine, src, dst)`` — a name and two enum
    members — so the error pickles across a worker pipe as is; the text
    is built only when it is printed."""

    def __str__(self) -> str:
        machine, src, dst = self.args
        return f"{machine}: {src.name} -> {dst.name} is not in the transition table"


_S = TCPState

# RFC 793 edges the code never takes, so they are not rows: everything
# through LISTEN (a Listener adopts each SYN into a fresh CLOSED socket),
# simultaneous open (SYN_SENT -> SYN_RCVD) and FIN+ACK in one segment
# (FIN_WAIT_1 -> TIME_WAIT: the ACK is processed first, via FIN_WAIT_2).
TRANSITIONS = frozenset(
    {
        (_S.CLOSED, _S.SYN_SENT),  # active OPEN: send SYN
        (_S.CLOSED, _S.SYN_RCVD),  # a Listener adopts an incoming SYN: send SYN,ACK
        (_S.SYN_SENT, _S.ESTABLISHED),  # rcv SYN,ACK: send ACK
        (_S.SYN_RCVD, _S.ESTABLISHED),  # rcv ACK of SYN
        (_S.SYN_RCVD, _S.FIN_WAIT_1),  # CLOSE during the handshake: send FIN
        (_S.ESTABLISHED, _S.FIN_WAIT_1),  # CLOSE: send FIN
        (_S.ESTABLISHED, _S.CLOSE_WAIT),  # rcv FIN: send ACK
        (_S.FIN_WAIT_1, _S.FIN_WAIT_2),  # rcv ACK of FIN
        (_S.FIN_WAIT_1, _S.CLOSING),  # rcv FIN: simultaneous close
        (_S.FIN_WAIT_2, _S.TIME_WAIT),  # rcv FIN: send ACK
        (_S.CLOSING, _S.TIME_WAIT),  # rcv ACK of FIN
        (_S.CLOSE_WAIT, _S.LAST_ACK),  # CLOSE: send FIN
    }
    # Every other entered state closes through _destroy: ABORT and RST
    # from anywhere, LAST_ACK's ACK of FIN and TIME_WAIT's 2*MSL expiry.
    | {(state, _S.CLOSED) for state in TCPState if state not in (_S.CLOSED, _S.LISTEN)}
)

_SYNCHRONIZED = frozenset(
    {
        TCPState.ESTABLISHED,
        TCPState.FIN_WAIT_1,
        TCPState.FIN_WAIT_2,
        TCPState.CLOSING,
        TCPState.TIME_WAIT,
        TCPState.CLOSE_WAIT,
        TCPState.LAST_ACK,
    }
)

_RECEIVING = frozenset(
    {TCPState.ESTABLISHED, TCPState.FIN_WAIT_1, TCPState.FIN_WAIT_2}
)

for _state in TCPState:
    _state.synchronized = _state in _SYNCHRONIZED
    _state.can_receive_data = _state in _RECEIVING
    _state.may_send_data = _state in (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT)
del _state
