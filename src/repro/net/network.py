"""Topology assembly.

:class:`Network` is the experiment-facing builder: create hosts, connect
interfaces with links (optionally through middlebox chains), and routes
are installed automatically.  All experiment topologies in the paper are
sets of point-to-point paths between two multihomed hosts, which this
models directly.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.net.link import Link
from repro.net.node import Host, Interface
from repro.net.packet import Segment
from repro.net.path import FORWARD, REVERSE, Path, PathElement
from repro.sim import Simulator
from repro.sim.rng import SeededRNG
from repro.sim.shard import (
    ShardGroup,
    ShardedClock,
    ShardingError,
    shard_count_from_env,
)


# The label of every network's root stream: ``net.rng`` is
# ``SeededRNG(seed, RNG_ROOT)``, so a builder can fork the streams of a
# network it has yet to build.
RNG_ROOT = "network"


def _element_shard_safe(element: Any) -> bool:
    """Cut-placement gate: the class-level ``shard_safe`` declaration
    refined by the instance's ``shard_safe_now()`` hook — both must
    agree before an element may straddle a shard boundary."""
    if not getattr(element, "shard_safe", False):
        return False
    hook = getattr(element, "shard_safe_now", None)
    return bool(hook()) if callable(hook) else True


class Network:
    """A simulator plus the hosts and paths of one experiment.

    ``shards`` > 1 (default: the ``REPRO_SHARDS`` environment knob)
    partitions the topology across that many shard simulators: hosts are
    assigned round-robin (or explicitly via ``add_host(..., shard=k)``),
    same-shard paths run exactly as before, and cross-shard paths become
    cut links synchronised conservatively by their propagation delay
    (see :mod:`repro.sim.shard`).  ``self.sim`` is then a
    :class:`~repro.sim.shard.ShardedClock` that keeps the single-
    simulator API working unchanged.  A count below 1 raises
    :class:`~repro.sim.shard.ShardingError`.
    """

    def __init__(self, seed: int = 1, shards: Optional[int] = None):
        if shards is None:
            shards = shard_count_from_env(default=1)
        self.shard_count = int(shards)
        self._shards: Optional[ShardGroup] = None
        self.sim: Any  # Simulator, or ShardedClock when sharded
        if self.shard_count != 1:
            # ShardGroup raises ShardingError for a count below 1.
            self._shards = ShardGroup(self.shard_count)
            self.sim = ShardedClock(self._shards)
        else:
            self.sim = Simulator()
        self.rng = SeededRNG(seed, RNG_ROOT)
        self.hosts: dict[str, Host] = {}
        self.paths: list[Path] = []
        self._next_shard = 0

    # ------------------------------------------------------------------
    def add_host(self, name: str, *addresses: str, shard: Optional[int] = None) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name}")
        if self._shards is not None:
            if shard is None:
                shard = self._next_shard
                self._next_shard = (self._next_shard + 1) % self.shard_count
            elif not (0 <= shard < self.shard_count):
                raise ShardingError(
                    f"host {name}: shard {shard} out of range 0..{self.shard_count - 1}"
                )
            sim = self._shards.sims[shard]
        else:
            shard = 0
            sim = self.sim
        host = Host(sim, name, rng=self.rng.fork(f"host:{name}"))
        host.shard = shard
        for address in addresses:
            host.add_interface(address)
        self.hosts[name] = host
        return host

    # ------------------------------------------------------------------
    def _rehome_host(self, host: Host, shard: int) -> bool:
        """Move a still-unwired host onto another shard.

        Safe only while the host has no paths, sockets or listeners —
        i.e. nothing referencing its simulator yet.  Used to co-locate
        endpoints whose connecting path cannot legally cross shards
        (zero delay, or middlebox elements that keep per-flow state with
        timers)."""
        assert self._shards is not None
        if host._connections or host._listeners:
            return False
        if any(iface.routes for iface in host.interfaces):
            return False
        host.sim = self._shards.sims[shard]
        host.shard = shard
        return True

    def _colocate(self, iface_a: Interface, iface_b: Interface, why: str) -> None:
        """Force both endpoint hosts onto one shard, or fail loudly."""
        host_a, host_b = iface_a.host, iface_b.host
        if self._rehome_host(host_b, host_a.shard):
            return
        if self._rehome_host(host_a, host_b.shard):
            return
        raise ShardingError(
            f"cannot connect {host_a.name} (shard {host_a.shard}) to "
            f"{host_b.name} (shard {host_b.shard}): {why}, and neither host "
            "can be re-homed because both already have paths or sockets. "
            "Assign them the same shard explicitly via add_host(..., shard=k)."
        )

    def connect(
        self,
        iface_a: Interface,
        iface_b: Interface,
        rate_bps: float,
        delay: float,
        queue_bytes: Optional[int] = None,
        loss: float = 0.0,
        elements: Optional[Sequence[PathElement]] = None,
        rate_bps_rev: Optional[float] = None,
        queue_bytes_rev: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Path:
        """Create a duplex path between two interfaces.

        ``rate_bps``/``queue_bytes``/``loss`` describe the A→B direction;
        the reverse direction defaults to the same parameters (reverse
        loss defaults to 0 — the paper's lossy links are data-direction).
        """
        name = name or f"{iface_a.ip}<->{iface_b.ip}"
        element_list = list(elements or [])
        cut = False
        if self._shards is not None and iface_a.host.shard != iface_b.host.shard:
            # A cross-shard path needs positive delay for lookahead, and
            # any middlebox element on it must be a pure synchronous
            # same-direction transform (shard_safe): elements with
            # timers or opposite-direction injection would run against
            # the wrong shard's clock.  Otherwise co-locate the hosts.
            if delay <= 0.0:
                self._colocate(iface_a, iface_b, "the link has zero propagation delay")
            elif not all(_element_shard_safe(e) for e in element_list):
                unsafe = [
                    e.name for e in element_list if not _element_shard_safe(e)
                ]
                self._colocate(
                    iface_a,
                    iface_b,
                    f"path elements {unsafe} keep timers or inject segments "
                    "and cannot sit on a cut link",
                )
            cut = iface_a.host.shard != iface_b.host.shard
        # Each direction's link lives on its *transmitting* host's
        # simulator, so serialisation is clocked by the sender; for a
        # local path both ends (and the serial case) collapse to one sim.
        sim_fwd = iface_a.host.sim
        sim_rev = iface_b.host.sim if cut else iface_a.host.sim
        link_fwd = Link(
            sim_fwd,
            rate_bps,
            delay,
            queue_bytes,
            loss,
            rng=self.rng.fork(f"loss:{name}:fwd"),
            name=f"{name}:fwd",
        )
        link_rev = Link(
            sim_rev,
            rate_bps_rev if rate_bps_rev is not None else rate_bps,
            delay,
            queue_bytes_rev if queue_bytes_rev is not None else queue_bytes,
            0.0,
            rng=self.rng.fork(f"loss:{name}:rev"),
            name=f"{name}:rev",
        )
        path = Path(sim_fwd, link_fwd, link_rev, element_list, name=name)
        path.deliver_fwd = iface_b.host.deliver
        path.deliver_rev = iface_a.host.deliver
        if cut:
            assert self._shards is not None
            shard_a, shard_b = iface_a.host.shard, iface_b.host.shard
            link_fwd.remote = self._shards.add_cut(
                shard_a, shard_b, path._delivered_fwd, delay, name=link_fwd.name
            )
            link_rev.remote = self._shards.add_cut(
                shard_b, shard_a, path._delivered_rev, delay, name=link_rev.name
            )
            if element_list:
                self._shards.has_cut_elements = True
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
