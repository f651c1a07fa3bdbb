"""Experiment metrics.

All experiments report through these helpers so that "goodput" and
"throughput" mean the same thing everywhere:

* **goodput** — application bytes delivered in order (duplicates and
  protocol overhead excluded);
* **throughput** — bytes put on the wire, including retransmissions
  (the gap between the two is what Fig. 4(b) plots for M1's wasteful
  reinjection over 3G).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.sim import Simulator, Timer


class GoodputMeter:
    """Windowed and cumulative rate accounting."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.total_bytes = 0

    def start(self) -> None:
        if self.started_at is None:
            self.started_at = self.sim.now

    def add(self, nbytes: int) -> None:
        self.start()
        self.total_bytes += nbytes

    def finish(self) -> None:
        if self.finished_at is None:
            self.finished_at = self.sim.now

    @property
    def elapsed(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else self.sim.now
        return max(0.0, end - self.started_at)

    def rate_bps(self) -> float:
        elapsed = self.elapsed
        return self.total_bytes * 8 / elapsed if elapsed > 0 else 0.0


class MemorySampler:
    """Time-weighted average (and peak) of a sampled quantity.

    Fig. 5's "Memory Used" is the time-average of the connection's
    buffer occupancy; sampling every ``interval`` with trapezoid-free
    step weighting matches how the paper's htsim reports it.
    """

    def __init__(self, sim: Simulator, probe: Callable[[], int], interval: float = 0.01):
        self.sim = sim
        self.probe = probe
        self.interval = interval
        self._weighted_sum = 0.0
        self._elapsed = 0.0
        self._last_time: Optional[float] = None
        self._last_value = 0
        self.peak = 0
        self.samples = 0
        self._timer = Timer(sim, self._tick)
        self._timer.start(0.0)

    def _tick(self) -> None:
        value = self.probe()
        now = self.sim.now
        if self._last_time is not None:
            dt = now - self._last_time
            self._weighted_sum += self._last_value * dt
            self._elapsed += dt
        self._last_time = now
        self._last_value = value
        self.peak = max(self.peak, value)
        self.samples += 1
        self._timer.start(self.interval)

    def stop(self) -> None:
        self._timer.stop()

    def average(self) -> float:
        if self._elapsed <= 0:
            return float(self._last_value)
        return self._weighted_sum / self._elapsed


class Histogram:
    """Fixed-bin histogram; renders the PDFs of Figs. 7 and 10."""

    def __init__(self, bin_width: float):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = bin_width  # bin i holds [i * bin_width, (i + 1) * bin_width)
        self.counts: dict[int, int] = {}
        self.total = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def add(self, value: float) -> None:
        index = int(math.floor(value / self.bin_width))
        self.counts[index] = self.counts.get(index, 0) + 1
        self.total += 1
        self._sum += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)

    def pdf(self) -> list[tuple[float, float]]:
        """(bin_center, percentage) pairs, sorted."""
        if not self.total:
            return []
        return [
            ((index + 0.5) * self.bin_width, 100.0 * count / self.total)
            for index, count in sorted(self.counts.items())
        ]

    def mean(self) -> float:
        return self._sum / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (0..100) from the binned counts."""
        if not self.total:
            return 0.0
        target = self.total * q / 100.0
        running = 0
        for index, count in sorted(self.counts.items()):
            running += count
            if running >= target:
                return (index + 0.5) * self.bin_width
        return (max(self.counts) + 0.5) * self.bin_width

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max


def pdf_from_samples(samples: list[float], bin_width: float) -> list[tuple[float, float]]:
    histogram = Histogram(bin_width)
    for sample in samples:
        histogram.add(sample)
    return histogram.pdf()

