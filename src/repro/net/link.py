"""Unidirectional link: serialization rate + propagation delay + drop-tail
queue + optional random loss.

Every path the paper emulates is characterised this way, e.g. the "3G"
path of §4.2 is 2 Mb/s, 150 ms base RTT and a 2 s (deep) buffer, and the
"WiFi" path is 8 Mb/s, 20 ms, 80 ms buffer.  Queue sizes given in seconds
are converted with :func:`buffer_bytes_for`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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
    """A serialising FIFO pipe.

    ``deliver`` is set by the owning :class:`~repro.net.path.Path`.  The
    transmitter is modelled explicitly: one packet serialises at a time at
    ``rate_bps``; completed packets propagate for ``delay`` seconds and may
    be lost with probability ``loss`` (the radio-loss model used for the
    lossy-3G experiment of Fig. 6a).
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
        self.stats = LinkStats()
        # Queue entries carry (segment, size): the wire size is computed
        # once at enqueue and threaded through transmit/tx-done so the
        # per-hop hot path never re-derives it from the option list.
        self._queue: deque[tuple[Segment, int]] = deque()
        self._queued_bytes = 0
        self._busy = False

    # ------------------------------------------------------------------
    def send(self, segment: Segment) -> None:
        """Offer a segment to the link; drop-tail if the queue is full."""
        size = segment.size_bytes
        if self._queued_bytes + size > self.queue_bytes and self._busy:
            self.stats.packets_dropped_queue += 1
            return
        if self._busy:
            self._queue.append((segment, size))
            self._queued_bytes += size
        else:
            # Inline of _transmit(): one call per segment offered to an
            # idle link (the overwhelmingly common case).
            self._busy = True
            tx_time = size * 8 / self.rate_bps
            self.stats.busy_time += tx_time
            self.sim.post(tx_time, self._tx_done, segment, size)

    # ------------------------------------------------------------------
    def _tx_done(self, segment: Segment, size: int) -> None:
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += size
        stats.payload_bytes_sent += segment.payload_len
        if self.loss > 0.0 and self.rng.chance(self.loss):
            stats.packets_dropped_loss += 1
        else:
            self.sim.post(self.delay, self.deliver, segment)
        if self._queue:
            next_segment, next_size = self._queue.popleft()
            self._queued_bytes -= next_size
            tx_time = next_size * 8 / self.rate_bps
            self.stats.busy_time += tx_time
            # post(): in-flight serialisation is never cancelled, so it
            # needs no Timer.  (_busy is already True on this path.)
            self.sim.post(tx_time, self._tx_done, next_segment, next_size)
        else:
            self._busy = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} {self.rate_bps/1e6:.1f}Mbps {self.delay*1000:.0f}ms>"
