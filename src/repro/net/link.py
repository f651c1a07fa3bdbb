"""Unidirectional link: serialization rate + propagation delay + drop-tail
queue + optional random loss.

Every path the paper emulates is characterised this way, e.g. the "3G"
path of §4.2 is 2 Mb/s, 150 ms base RTT and a 2 s (deep) buffer, and the
"WiFi" path is 8 Mb/s, 20 ms, 80 ms buffer.  Queue sizes given in seconds
are converted with :func:`buffer_bytes_for`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.packet import Segment
from repro.sim import Simulator
from repro.sim.rng import SeededRNG


def buffer_bytes_for(rate_bps: float, seconds: float) -> int:
    """Queue capacity in bytes for a buffer of the given drain time."""
    return max(1, int(rate_bps * seconds / 8))


@dataclass
class LinkStats:
    """Counters a link keeps; tests and experiments read these."""

    packets_sent: int = 0
    bytes_sent: int = 0
    payload_bytes_sent: int = 0
    packets_dropped_queue: int = 0
    packets_dropped_loss: int = 0
    busy_time: float = 0.0

    def utilization(self, elapsed: float) -> float:
        return self.busy_time / elapsed if elapsed > 0 else 0.0


class Link:
    """A serialising FIFO pipe, kept as a virtual clock.

    ``deliver`` is set by the :class:`~repro.net.network.Network` that
    builds the link (the receiving ``Host.deliver``).  One packet
    serialises at a time at ``rate_bps``; a packet may be lost with
    probability ``loss`` (the radio-loss model used for the lossy-3G
    experiment of Fig. 6a) and otherwise arrives ``delay`` seconds after
    its serialisation ends.  Both are fixed the moment the link accepts
    the packet -- it leaves at ``max(now, free_at) + size * 8 / rate`` --
    so the delivery is the only event a packet costs.  Accepted packets
    whose serialisation has not been *settled* wait in ``_pending``;
    :meth:`send` settles the ones that ended before it, and :attr:`stats`
    the ones that ended by ``sim.now``.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay: float,
        queue_bytes: Optional[int] = None,
        loss: float = 0.0,
        rng: Optional[SeededRNG] = None,
        name: str = "link",
    ):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay = delay
        # Default queue: one bandwidth-delay product, at least a few MTUs.
        if queue_bytes is None:
            queue_bytes = max(8 * 1500, buffer_bytes_for(rate_bps, max(delay, 0.01)))
        self.queue_bytes = queue_bytes
        self.loss = loss
        self.rng = rng or SeededRNG(0, name)
        self.name = name
        self.deliver: Callable[[Segment], None] = lambda seg: None
        self._stats = LinkStats()
        # (finish, size, payload_len, lost, tx_time) per accepted segment
        # not yet settled, oldest first; the head is the one on the wire.
        # The segment itself rides only on its delivery event.
        self._pending: deque[tuple[float, int, int, bool, float]] = deque()
        self._pending_bytes = 0
        self._free_at = 0.0  # when the last accepted segment finishes

    # ------------------------------------------------------------------
    def send(self, segment: Segment) -> None:
        """Offer a segment to the link; drop-tail if the queue is full."""
        now = self.sim.now
        pending = self._pending
        if pending and pending[0][0] < now:
            self._settle(now)
        size = segment.size_bytes
        tx_time = size * 8 / self.rate_bps
        if pending:
            # Busy: the bytes waiting exclude the segment on the wire.
            if self._pending_bytes - pending[0][1] + size > self.queue_bytes:
                self._stats.packets_dropped_queue += 1
                return
            finish = self._free_at + tx_time
        else:
            self._stats.busy_time += tx_time  # its serialisation starts now
            finish = now + tx_time
        lost = self.loss > 0.0 and self.rng.chance(self.loss)
        pending.append((finish, size, segment.payload_len, lost, tx_time))
        self._pending_bytes += size
        self._free_at = finish
        if not lost:
            self.sim._push(finish + self.delay, self.deliver, segment)

    def _settle(self, before: float) -> None:
        """Count every pending segment whose serialisation ended strictly
        before ``before``; each one settled starts the next."""
        pending = self._pending
        stats = self._stats
        while pending and pending[0][0] < before:
            _, size, payload_len, lost, _ = pending.popleft()
            self._pending_bytes -= size
            stats.packets_sent += 1
            stats.bytes_sent += size
            stats.payload_bytes_sent += payload_len
            if lost:
                stats.packets_dropped_loss += 1
            if pending:
                stats.busy_time += pending[0][4]

    @property
    def stats(self) -> LinkStats:
        """The counters as of ``sim.now`` inclusive: ``run(until)`` runs
        the events at ``until``, so a serialisation ending then is done."""
        self._settle(math.nextafter(self.sim.now, math.inf))
        return self._stats

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} {self.rate_bps/1e6:.1f}Mbps {self.delay*1000:.0f}ms>"
