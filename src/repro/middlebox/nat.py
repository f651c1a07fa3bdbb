"""Network address (and port) translation.

The NAT sits with the "inside" on the path's A side: forward-direction
segments have their source rewritten to the NAT's external address with
a per-flow allocated port; reverse-direction segments are translated
back.  State is created by outbound SYNs only — an unsolicited inbound
SYN finds no mapping and is dropped, which is why the paper's §3.2 needs
ADD_ADDR: a multihomed *server* cannot SYN toward a NATted client.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Endpoint, Segment
from repro.net.path import FORWARD, PathElement


class NAT(PathElement):
    rewrites_addresses = True
    FIRST_PORT = 20000  # external ports are handed out upward from here

    def __init__(self, external_ip: str, name: str = "NAT"):
        super().__init__(name)
        self.external_ip = external_ip
        self._next_port = self.FIRST_PORT
        # Per outbound flow, its translated source (built once per flow).
        self._out: dict[tuple[Endpoint, Endpoint], Endpoint] = {}
        self._back: dict[int, tuple[Endpoint, Endpoint]] = {}
        self.dropped_unsolicited = 0
        self.translations = 0

    def advertised_addresses(self) -> list[str]:
        """Addresses the outside world must route back to this path."""
        return [self.external_ip]

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        if direction == FORWARD:
            key = (segment.src, segment.dst)
            translated = self._out.get(key)
            if translated is None:
                if not segment.syn:
                    # Data without prior SYN: NATs rarely pass these
                    # (the strawman "no handshake on new paths" fails
                    # here, §3.2).
                    self.dropped_unsolicited += 1
                    return []
                port = self._next_port
                self._next_port += 1
                translated = self._out[key] = Endpoint(self.external_ip, port)
                self._back[port] = key
            segment.src = translated
            self.translations += 1
            return [(segment, direction)]
        mapping = self._back.get(segment.dst.port)
        if mapping is None or segment.dst.ip != self.external_ip:
            self.dropped_unsolicited += 1
            return []
        inside_src, _outside = mapping
        segment.dst = inside_src
        self.translations += 1
        return [(segment, direction)]
