"""Hosts and interfaces.

A :class:`Host` owns one interface per attached path (mirroring the
multi-homed endpoints the paper targets: a phone with WiFi + 3G, a server
with two NICs).  It routes outgoing segments by *source address* — an
MPTCP subflow bound to the 3G address leaves via the 3G interface — and
demultiplexes incoming segments to bound sockets the way a kernel does:
exact four-tuple first, then listening sockets, then a RST.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.net.packet import ACK, RST, Endpoint, Segment
from repro.net.path import FORWARD, Path
from repro.sim import Simulator
from repro.sim.rng import SeededRNG
from repro.tcp.seq import seq_add


class SegmentSink(Protocol):
    """Anything that can receive segments (TCP sockets, listeners)."""

    def segment_arrives(self, segment: Segment) -> None: ...


class Interface:
    """One attachment point: an IP address plus routes out of it."""

    def __init__(self, host: "Host", ip: str):
        self.host = host
        self.ip = ip
        # dst ip -> (path, direction); "*" is the default route.
        self.routes: dict[str, tuple[Path, int]] = {}

    def add_route(self, dst_ip: str, path: Path, direction: int) -> None:
        self.routes[dst_ip] = (path, direction)

    def route_for(self, dst_ip: str) -> Optional[tuple[Path, int]]:
        route = self.routes.get(dst_ip)
        if route is None:
            route = self.routes.get("*")
        return route

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Interface {self.ip} of {self.host.name}>"


class Host:
    """An endpoint node with sockets, interfaces and a routing function."""

    EPHEMERAL_BASE = 32768

    def __init__(self, sim: Simulator, name: str, rng: Optional[SeededRNG] = None):
        self.sim = sim
        self.name = name
        self.rng = rng or SeededRNG(0, name)
        self.interfaces: list[Interface] = []
        # src ip -> owning interface, filled lazily by send().  Safe to
        # cache: interfaces are only ever added (duplicates rejected),
        # never removed or re-addressed.
        self._iface_cache: dict[str, Interface] = {}
        # Keyed on flat (ip, port, ip, port) tuples: one C-hashed tuple
        # per lookup on the per-segment deliver path, where a pair of
        # Endpoint tuples would hash three.
        self._connections: dict[tuple[str, int, str, int], SegmentSink] = {}
        self._listeners: dict[int, SegmentSink] = {}
        self._next_port = self.EPHEMERAL_BASE
        self.segments_sent = 0
        self.segments_received = 0
        # Diagnostics hook (tests attach here).
        self.on_receive: list[Callable[[Segment], None]] = []

    # ------------------------------------------------------------------
    # Interfaces / addressing
    # ------------------------------------------------------------------
    def add_interface(self, ip: str) -> Interface:
        if any(iface.ip == ip for iface in self.interfaces):
            raise ValueError(f"duplicate interface address {ip}")
        interface = Interface(self, ip)
        self.interfaces.append(interface)
        return interface

    def interface(self, ip: str) -> Interface:
        for iface in self.interfaces:
            if iface.ip == ip:
                return iface
        raise KeyError(f"{self.name} has no interface {ip}")

    @property
    def addresses(self) -> list[str]:
        return [iface.ip for iface in self.interfaces]

    @property
    def primary_address(self) -> str:
        if not self.interfaces:
            raise RuntimeError(f"{self.name} has no interfaces")
        return self.interfaces[0].ip

    def allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    # ------------------------------------------------------------------
    # Socket registration / demux
    # ------------------------------------------------------------------
    def register_connection(self, local: Endpoint, remote: Endpoint, sink: SegmentSink) -> None:
        key = (local.ip, local.port, remote.ip, remote.port)
        if key in self._connections:
            raise ValueError(f"connection {local}<->{remote} already bound")
        self._connections[key] = sink

    def unregister_connection(self, local: Endpoint, remote: Endpoint) -> None:
        self._connections.pop((local.ip, local.port, remote.ip, remote.port), None)

    def register_listener(self, port: int, sink: SegmentSink) -> None:
        if port in self._listeners:
            raise ValueError(f"port {port} already listening")
        self._listeners[port] = sink

    def unregister_listener(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connection_sink(self, local: Endpoint, remote: Endpoint) -> Optional[SegmentSink]:
        return self._connections.get((local.ip, local.port, remote.ip, remote.port))

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, segment: Segment) -> None:
        """Route a segment out of the interface owning its source address."""
        segment.created_at = self.sim.now
        src_ip = segment.src.ip
        interface = self._iface_cache.get(src_ip)
        if interface is None:
            for iface in self.interfaces:
                if iface.ip == src_ip:
                    interface = iface
                    self._iface_cache[src_ip] = iface
                    break
            else:
                # Source address does not exist (never configured, or a
                # hypothetical removal): silently drop, as a kernel would.
                return
        # route_for(), inlined: per-segment path
        routes = interface.routes
        route = routes.get(segment.dst.ip)
        if route is None:
            route = routes.get("*")
            if route is None:
                return
        self.segments_sent += 1
        route[0].send(segment, route[1])

    def deliver(self, segment: Segment) -> None:
        """Called by the attached path when a segment arrives."""
        self.segments_received += 1
        if self.on_receive:
            for hook in self.on_receive:
                hook(segment)
        dst = segment.dst
        src = segment.src
        sink = self._connections.get((dst.ip, dst.port, src.ip, src.port))
        if sink is None:
            sink = self._listeners.get(dst.port)
        if sink is None:
            self._reset_unknown(segment)
            return
        sink.segment_arrives(segment)

    def _reset_unknown(self, segment: Segment) -> None:
        """RFC 793: a segment to a non-existent connection draws a RST."""
        flags = segment.flags
        if flags & RST:
            return
        if flags & ACK:
            reset = Segment(
                src=segment.dst, dst=segment.src, seq=segment.ack, flags=RST, window=0
            )
        else:
            reset = Segment(
                src=segment.dst,
                dst=segment.src,
                seq=0,
                ack=seq_add(segment.seq, segment.seq_space),
                flags=RST | ACK,
                window=0,
            )
        self.send(reset)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name} addrs={self.addresses}>"
