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
from repro.net.packet import Endpoint, Segment
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPConfig, TCPSocket
from repro.mptcp.connection import MPTCPConfig, MPTCPConnection
from repro.mptcp.keys import host_tokens
from repro.mptcp.options import MPCapable, MPJoin


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

    The listener's ``socket_factory`` reproduces the kernel's SYN
    dispatch:

    * MP_CAPABLE present → new MPTCP connection;
    * MP_JOIN with a known token → joining subflow (unknown token → the
      SYN is refused and the host RSTs it);
    * no MPTCP option (a plain client, or a middlebox stripped the
      option) → a connection that starts life in fallback mode: the
      application sees the same object either way, which is the
      deployability story.

    ``on_accept(connection)`` fires once per connection at
    establishment, before its ``on_established``.  The host's
    non-primary addresses are then sent to clients via ADD_ADDR — the
    §3.2 mechanism that lets NATted clients reach a multihomed server's
    other interfaces.
    """
    config = config or MPTCPConfig()
    tokens = host_tokens(host)
    advertised = [ip for ip in host.addresses if ip != host.primary_address]

    def factory(factory_host: Host, syn: Segment, tcp_config: TCPConfig) -> Optional[TCPSocket]:
        join = syn.find_option(MPJoin)
        if join is not None:
            connection = tokens.lookup(join.token or 0)
            if connection is None or connection.fallback or connection.closed:
                # Unknown token: refuse; the host answers with a RST.
                factory_host._reset_unknown(syn)
                return None
            return connection.adopt_join_syn()
        connection = MPTCPConnection(factory_host, config, role="server", on_accept=on_accept)
        connection.local_extra_addresses = list(advertised)
        if syn.find_option(MPCapable) is None:
            # Plain TCP client (or the option was stripped): fallback
            # from the start — same connection object for the app.
            connection.enter_fallback("no MP_CAPABLE in SYN")
        return connection.adopt_server_syn(syn)

    return Listener(host, port, config=config.subflow_tcp_config(), socket_factory=factory)
