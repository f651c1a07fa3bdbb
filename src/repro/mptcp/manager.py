"""Per-host MPTCP state: the token table and the listener dispatch.

A kernel keeps one hash table of established MPTCP connections per
host so MP_JOIN SYNs — which arrive on brand-new five-tuples — can be
matched to their connection by token (§3.2).  The listener's
``socket_factory`` reproduces the kernel's SYN dispatch:

* MP_CAPABLE present and MPTCP enabled → new MPTCP connection;
* MP_JOIN with a known token → joining subflow (unknown token → the
  SYN is refused and the host RSTs it);
* no MPTCP option (a plain client, or a middlebox stripped the option)
  → a connection that starts life in fallback mode: the application
  sees the same object either way, which is the deployability story.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.node import Host
from repro.net.packet import Segment
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPConfig, TCPSocket
from repro.mptcp.connection import MPTCPConfig, MPTCPConnection
from repro.mptcp.keys import TokenTable
from repro.mptcp.options import MPCapable, MPJoin

_MANAGER_ATTRIBUTE = "_mptcp_manager"


class MPTCPManager:
    """Host-wide MPTCP state (token table, accept callbacks)."""

    def __init__(self, host: Host):
        self.host = host
        self.tokens = TokenTable(host.rng.fork("mptcp-keys"))
        self._accept_callbacks: dict[int, Callable[[MPTCPConnection], None]] = {}

    def notify_accept(self, connection: MPTCPConnection) -> None:
        port = (
            connection.subflows[0].local.port
            if connection.subflows and connection.subflows[0].local
            else None
        )
        callback = self._accept_callbacks.get(port)
        if callback is not None:
            callback(connection)

    def register_accept_callback(
        self, port: int, callback: Optional[Callable[[MPTCPConnection], None]]
    ) -> None:
        if callback is not None:
            self._accept_callbacks[port] = callback


def get_manager(host: Host) -> MPTCPManager:
    manager = getattr(host, _MANAGER_ATTRIBUTE, None)
    if manager is None:
        manager = MPTCPManager(host)
        setattr(host, _MANAGER_ATTRIBUTE, manager)
    return manager


def make_server_factory(host: Host, config: MPTCPConfig):
    """The SYN-dispatch factory installed into a Listener.  Each server
    connection advertises the host's non-primary addresses."""
    manager = get_manager(host)
    advertised = [ip for ip in host.addresses if ip != host.primary_address]

    def factory(factory_host: Host, syn: Segment, tcp_config: TCPConfig) -> Optional[TCPSocket]:
        join = syn.find_option(MPJoin)
        if join is not None:
            connection = manager.tokens.lookup(join.token or 0)
            if connection is None or connection.fallback or connection.closed:
                # Unknown token: refuse; the host answers with a RST.
                factory_host._reset_unknown(syn)
                return None
            return connection.adopt_join_syn(syn)
        connection = MPTCPConnection(factory_host, config, role="server")
        connection.local_extra_addresses = list(advertised)
        capable = syn.find_option(MPCapable)
        if capable is None:
            # Plain TCP client (or the option was stripped): fallback
            # from the start — same connection object for the app.
            connection.enter_fallback("no MP_CAPABLE in SYN")
        return connection.adopt_server_syn(syn)

    return factory
