"""Topology assembly.

:class:`Network` is the experiment-facing builder: create hosts, connect
interfaces with links (optionally through middlebox chains), and routes
are installed automatically.  All experiment topologies in the paper are
sets of point-to-point paths between two multihomed hosts, which this
models directly.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.net.link import Link
from repro.net.node import Host, Interface
from repro.net.path import FORWARD, REVERSE, Path, PathElement
from repro.sim import Simulator
from repro.sim.rng import SeededRNG


# The label of every network's root stream: ``net.rng`` is
# ``SeededRNG(seed, RNG_ROOT)``, so a builder can fork the streams of a
# network it has yet to build.
RNG_ROOT = "network"


class Network:
    """A simulator plus the hosts and paths of one experiment."""

    def __init__(self, seed: int = 1, shards: int = 1):
        # perf/workloads.py still passes shards=1; no other value exists.
        if shards != 1:
            raise ValueError("shards must be 1: every Network runs on one Simulator")
        self.sim = Simulator()
        self.rng = SeededRNG(seed, RNG_ROOT)
        self.hosts: dict[str, Host] = {}
        self.paths: list[Path] = []

    # ------------------------------------------------------------------
    def add_host(self, name: str, *addresses: str) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name}")
        host = Host(self.sim, name, rng=self.rng.fork(f"host:{name}"))
        for address in addresses:
            host.add_interface(address)
        self.hosts[name] = host
        return host

    # ------------------------------------------------------------------
    def connect(
        self,
        iface_a: Interface,
        iface_b: Interface,
        rate_bps: float,
        delay: float,
        queue_bytes: Optional[int] = None,
        loss: float = 0.0,
        elements: Optional[Sequence[PathElement]] = None,
        name: Optional[str] = None,
    ) -> Path:
        """Create a duplex path between two interfaces.

        ``rate_bps``/``delay``/``queue_bytes`` describe both directions;
        ``loss`` applies to A→B only (the paper's lossy links are
        data-direction).
        """
        name = name or f"{iface_a.ip}<->{iface_b.ip}"
        sim = self.sim
        link_fwd = Link(
            sim,
            rate_bps,
            delay,
            queue_bytes,
            loss,
            rng=self.rng.fork(f"loss:{name}:fwd"),
            name=f"{name}:fwd",
        )
        link_rev = Link(
            sim,
            rate_bps,
            delay,
            queue_bytes,
            0.0,
            rng=self.rng.fork(f"loss:{name}:rev"),
            name=f"{name}:rev",
        )
        path = Path(sim, link_fwd, link_rev, list(elements or []), name=name)
        link_fwd.deliver = iface_b.host.deliver
        link_rev.deliver = iface_a.host.deliver
        # Routes: specific address each way, installed on both interfaces.
        iface_a.add_route(iface_b.ip, path, FORWARD)
        iface_b.add_route(iface_a.ip, path, REVERSE)
        # A NAT on the path rewrites A-side addresses: B needs a route
        # back to the address(es) the NAT presents.
        for element in elements or []:
            if getattr(element, "rewrites_addresses", False):
                advertised = getattr(element, "advertised_addresses", None)
                if advertised:
                    for ip in advertised():
                        iface_b.add_route(ip, path, REVERSE)
                else:
                    iface_b.add_route("*", path, REVERSE)
        self.paths.append(path)
        return path

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    @property
    def now(self) -> float:
        return self.sim.now
