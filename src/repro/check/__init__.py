"""Runtime protocol checking: the invariant oracle and scenario fuzzer.

``repro.check`` watches a simulation from the outside: attach an
:class:`InvariantOracle` to a :class:`~repro.net.network.Network` and
every executed event is followed by a check of the live TCP sockets
and MPTCP connections on the host that event ran on, validating the
protocol algebra the paper's design arguments rest on.  A breach raises
:class:`InvariantViolation` carrying the tail of a packet trace.

The oracle costs nothing when not attached — the simulator pays one
``is not None`` test per event (see ``Simulator.post_event``).
"""

from repro.check.oracle import InvariantOracle, InvariantViolation

__all__ = ["InvariantOracle", "InvariantViolation"]
