"""Round-robin link bonding (the Fig. 11 baseline).

Linux's ``balance-rr`` bonding mode sprays packets of a single flow
across the team's links below TCP — no per-flow hashing, no transport
awareness.  Here a :class:`BondRoute` stands in for a routing-table
entry: it owns several real duplex paths between the same two hosts and
round-robins forward segments across them.  Reverse segments return
over the first member, as destination-based routing sends them.

The paper's observation that this works *well* for small files (the
round-robin spreads load perfectly) but loses to MPTCP for large ones
(whole flows collide on a congested link and the team flips between
congested/idle states; and with unequal links, reordering grows) falls
out of the model.
"""

from __future__ import annotations

from typing import Sequence

from repro.net.network import Network
from repro.net.node import Host
from repro.net.packet import Segment
from repro.net.path import FORWARD, REVERSE, Path


class BondRoute:
    """A route that round-robins segments over member paths
    (``per-packet``) or hashes each flow onto one (``per-flow``)."""

    def __init__(
        self,
        paths: Sequence[tuple[Path, int]],
        name: str = "bond",
        mode: str = "per-packet",
    ):
        if not paths:
            raise ValueError("a bond needs at least one member path")
        if mode not in ("per-packet", "per-flow"):
            raise ValueError("mode must be 'per-packet' or 'per-flow'")
        self.members = list(paths)  # (path, direction-when-forward)
        self.name = name
        self.mode = mode
        self._cursor_fwd = 0
        self._flow_assignment: dict[tuple, int] = {}
        self.segments_fwd = 0
        self.segments_rev = 0

    def _member_for_flow(self, segment: Segment) -> int:
        """Per-flow assignment: connections hash onto links and stick
        there (802.3ad-style).  Hashing — not round-robin — is what
        makes whole flows collide on one link while the other idles,
        the large-file pathology of §5.3."""
        key = (segment.src, segment.dst)
        index = self._flow_assignment.get(key)
        if index is None:
            reverse_key = (segment.dst, segment.src)
            index = self._flow_assignment.get(reverse_key)
            if index is None:
                import zlib

                digest = zlib.crc32(f"{segment.src}|{segment.dst}".encode())
                index = digest % len(self.members)
            self._flow_assignment[key] = index
        return index

    def send(self, segment: Segment, direction: int) -> None:
        if direction == FORWARD:
            if self.mode == "per-flow":
                member = self._member_for_flow(segment)
            else:
                member = self._cursor_fwd
                self._cursor_fwd = (self._cursor_fwd + 1) % len(self.members)
            path, member_direction = self.members[member]
            self.segments_fwd += 1
            path.send(segment, member_direction)
        else:
            member = self._member_for_flow(segment) if self.mode == "per-flow" else 0
            path, member_direction = self.members[member]
            self.segments_rev += 1
            path.send(segment, -member_direction)


def bond_interfaces(
    net: Network,
    host_a: Host,
    ip_a: str,
    host_b: Host,
    ip_b: str,
    links: Sequence[dict],
    mode: str = "per-packet",
) -> BondRoute:
    """Create N parallel paths ``bond[i]`` between one interface pair and
    install a bond as the route between them.

    ``links`` is a list of Link keyword-argument dicts (rate_bps, delay,
    queue_bytes, ...), one per member.
    """
    try:
        iface_a = host_a.interface(ip_a)
    except KeyError:
        iface_a = host_a.add_interface(ip_a)
    try:
        iface_b = host_b.interface(ip_b)
    except KeyError:
        iface_b = host_b.add_interface(ip_b)
    members: list[tuple[Path, int]] = []
    for index, kwargs in enumerate(links):
        path = net.connect(iface_a, iface_b, name=f"bond[{index}]", **kwargs)
        members.append((path, FORWARD))
    bond = BondRoute(members, mode=mode)
    # Override the single-path routes the connects installed.
    iface_a.routes[ip_b] = (bond, FORWARD)  # type: ignore[assignment]
    iface_b.routes[ip_a] = (bond, REVERSE)  # type: ignore[assignment]
    return bond
