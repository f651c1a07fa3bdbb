"""Option-stripping middleboxes (§3.1).

The study: 6% of paths remove unknown options from SYNs (14% on port
80), and every path that stripped options from data packets also
stripped them from the SYN — which is what makes SYN-based negotiation
a valid capability probe.  Both behaviours are modelled:

* ``syn_only=True``  — MPTCP is simply never negotiated (clean fallback
  at the handshake).
* ``syn_only=False`` — options vanish from data segments too; with
  ``skip_syn=True`` the SYN's options *pass* while data options are
  removed, the nastier case where the handshake succeeds and the
  endpoints must detect the stripping afterwards (§3.1's "first data
  segment without the option" rule, or mid-connection via the fallback
  ladder).
"""

from __future__ import annotations

from typing import Iterable

from repro.net.options import KIND_MPTCP
from repro.net.packet import Segment
from repro.net.path import PathElement


class OptionStripper(PathElement):
    def __init__(
        self,
        kinds: Iterable[int] = (KIND_MPTCP,),
        syn_only: bool = True,
        skip_syn: bool = False,
        direction: int | None = None,
        active_after: float = 0.0,
        name: str = "OptionStripper",
    ):
        super().__init__(name)
        self.kinds = frozenset(kinds)
        self.syn_only = syn_only
        self.skip_syn = skip_syn
        self.direction = direction  # None = both directions
        # A route change mid-connection can move the flow onto a
        # stripping path: options pass until this (simulated) time.
        self.active_after = active_after
        self.stripped = 0

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        if self.direction is not None and direction != self.direction:
            return [(segment, direction)]
        if self.active_after and self.sim.now < self.active_after:
            return [(segment, direction)]
        if self.syn_only and not segment.syn:
            return [(segment, direction)]
        if self.skip_syn and segment.syn:
            return [(segment, direction)]
        kept = [option for option in segment.options if option.kind not in self.kinds]
        removed = len(segment.options) - len(kept)
        if removed:
            segment.options = kept
            self.stripped += removed
        return [(segment, direction)]


class AddAddrFilter(PathElement):
    """Strips ADD_ADDR / REMOVE_ADDR announcements while passing every
    other MPTCP option.

    The adoption studies a decade after the paper (Aschenbrenner et al.
    2021; Shreedhar et al. 2022) found this selective behaviour in the
    wild: stateful firewalls that tolerate MP_CAPABLE/DSS on an
    established flow but drop address advertisements (an unsolicited
    claim that traffic will appear from elsewhere looks like an
    injection attempt).  The connection stays MPTCP but never learns the
    peer's other addresses — multipath silently degrades to one subflow
    whenever the *server* is the multihomed side (§3.2: a NATted client
    cannot be SYNed at, so ADD_ADDR is the only way to use the server's
    second address)."""

    def __init__(self, name: str = "AddAddrFilter"):
        super().__init__(name)
        self.filtered = 0

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        from repro.mptcp.options import AddAddr, RemoveAddr

        kept = [
            option
            for option in segment.options
            if not isinstance(option, (AddAddr, RemoveAddr))
        ]
        removed = len(segment.options) - len(kept)
        if removed:
            segment.options = kept
            self.filtered += removed
        return [(segment, direction)]
