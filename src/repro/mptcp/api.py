"""Public MPTCP API: the two calls an application makes.

The goal of the paper's design is that applications need no changes;
here the analogous property is that :func:`connect` / :func:`listen`
mirror the plain-TCP API and always return a connection object that
completes the transfer — over many subflows when MPTCP negotiates,
over one plain TCP flow when anything on the path objects.

>>> conn = connect(client_host, Endpoint("10.0.1.1", 80))
>>> listener = listen(server_host, 80, on_accept=serve)
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.node import Host
from repro.net.packet import Endpoint
from repro.tcp.listener import Listener
from repro.mptcp.connection import MPTCPConfig, MPTCPConnection
from repro.mptcp.manager import get_manager, make_server_factory


def connect(
    host: Host,
    remote: Endpoint,
    config: Optional[MPTCPConfig] = None,
    local_ip: Optional[str] = None,
    extra_local_ips: Optional[list[str]] = None,
) -> MPTCPConnection:
    """Open an MPTCP connection from ``host`` to ``remote``.

    The initial subflow leaves from ``local_ip`` (default: the host's
    primary address).  After establishment the path manager opens one
    additional subflow per usable extra interface, and reacts to the
    server's ADD_ADDR advertisements.
    """
    connection = MPTCPConnection(host, config, role="client")
    if extra_local_ips is None:
        primary = local_ip or host.primary_address
        extra_local_ips = [ip for ip in host.addresses if ip != primary]
    connection.start(remote, local_ip=local_ip, extra_local_ips=extra_local_ips)
    return connection


def listen(
    host: Host,
    port: int,
    config: Optional[MPTCPConfig] = None,
    on_accept: Optional[Callable[[MPTCPConnection], None]] = None,
) -> Listener:
    """Listen for MPTCP (and plain TCP) connections on ``port``.

    The host's non-primary addresses are sent to clients via ADD_ADDR
    after the handshake — the §3.2 mechanism that lets NATted clients
    reach a multihomed server's other interfaces.
    """
    config = config or MPTCPConfig()
    get_manager(host).register_accept_callback(port, on_accept)
    factory = make_server_factory(host, config)
    return Listener(host, port, config=config.subflow_tcp_config(), socket_factory=factory)
