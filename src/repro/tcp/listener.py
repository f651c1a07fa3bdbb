"""Passive opener: accepts SYNs and spawns per-connection sockets.

The ``socket_factory`` indirection is how a server becomes
MPTCP-capable: :func:`repro.mptcp.api.listen` installs a factory that
inspects the SYN's options and spawns either an MPTCP first subflow, a
joining subflow for an existing connection (MP_JOIN), or a plain TCP
socket — exactly the dispatch a kernel performs.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.node import Host
from repro.net.packet import Segment
from repro.tcp.socket import TCPConfig, TCPSocket

SocketFactory = Callable[[Host, Segment, TCPConfig], Optional[TCPSocket]]


def _default_factory(host: Host, syn: Segment, config: TCPConfig) -> Optional[TCPSocket]:
    return TCPSocket(host, config)


class Listener:
    """A listening port.  ``on_accept(sock)`` fires on ESTABLISHED."""

    def __init__(
        self,
        host: Host,
        port: int,
        config: Optional[TCPConfig] = None,
        socket_factory: SocketFactory = _default_factory,
        on_accept: Optional[Callable[[TCPSocket], None]] = None,
    ):
        self.host = host
        self.port = port
        self.config = config or TCPConfig()
        self.socket_factory = socket_factory
        self.on_accept = on_accept
        self.syns_received = 0
        host.register_listener(port, self)
        self._open = True

    def segment_arrives(self, segment: Segment) -> None:
        if not self._open:
            return
        if not segment.syn or segment.has_ack or segment.rst:
            # Stray non-SYN to the listening port: let the host RST it.
            if not segment.rst:
                self.host._reset_unknown(segment)
            return
        self.syns_received += 1
        sock = self.socket_factory(self.host, segment, self.config)
        if sock is None:
            return  # factory refused (e.g. MP_JOIN with a bad token)
        previous = sock.on_established

        def _established(s: TCPSocket) -> None:
            s.on_established = previous  # one-shot: the socket drops this closure
            if previous is not None:
                previous(s)
            if self.on_accept is not None:
                self.on_accept(s)

        sock.on_established = _established
        sock.accept_syn(segment)

    def close(self) -> None:
        if self._open:
            self.host.unregister_listener(self.port)
            self._open = False
