"""A complete TCP implementation on the simulator.

This is the substrate the paper's contribution extends: RFC 793 state
machine, three-way handshake with option negotiation (MSS, window scale,
timestamps), cumulative ACKs with out-of-order reassembly, RFC 6298
retransmission timing, NewReno congestion control with fast
retransmit/recovery, flow control with zero-window probing, delayed ACKs
and the full FIN/RST teardown machinery.

:class:`~repro.tcp.socket.TCPSocket` exposes protected hooks
(`_pull_new_data`, `_on_in_order_data`, `_ack_options`, ...) that
:mod:`repro.mptcp` overrides to turn a socket into an MPTCP subflow.
"""

from typing import TYPE_CHECKING, Any

from repro.tcp.seq import seq_add, seq_diff, seq_ge, seq_gt, seq_le, seq_lt
from repro.tcp.rtt import RTTEstimator
from repro.tcp.buffer import ByteStream, ReassemblyQueue
from repro.tcp.cc import NewReno
from repro.tcp.state import TCPState

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.listener import Listener
    from repro.tcp.socket import TCPSocket

# TCPSocket/Listener import repro.net.node, and repro.net.packet imports
# repro.tcp.seq (which initialises this package): loading them eagerly
# here would close an import cycle.  PEP 562 lazy attributes keep
# ``from repro.tcp import TCPSocket`` working without the cycle.
_LAZY = {"TCPSocket": "repro.tcp.socket", "Listener": "repro.tcp.listener"}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "seq_add",
    "seq_diff",
    "seq_ge",
    "seq_gt",
    "seq_le",
    "seq_lt",
    "RTTEstimator",
    "ByteStream",
    "ReassemblyQueue",
    "NewReno",
    "TCPState",
    "TCPSocket",
    "Listener",
]
