"""Send/receive buffer autotuning (mechanism M3 of §4.2).

Modern stacks do not allocate the configured maximum buffer up front;
they grow the effective buffer as the connection demonstrates it needs
one.  The paper's MPTCP formula is::

    buffer = 2 * sum_i(throughput_i) * RTT_max

For single-path TCP this degenerates to ``2 * bandwidth * RTT`` — the
classic rule.  :class:`BufferAutotuner` measures delivered throughput
over sliding windows of ``RTT_max`` and ratchets the effective buffer up
(never down) toward the configured maximum.  The MPTCP connection feeds
it per-subflow throughputs and the maximum subflow RTT; a plain TCP
socket feeds its own.

The interaction the paper highlights: with a deep-buffered 3G subflow,
``RTT_max`` inflates as the sender fills the network buffer, so
autotuning alone ramps the buffer far beyond what is useful — the
motivation for mechanism M4 (cwnd capping), which keeps the measured RTT
(and hence this formula) honest.
"""

from __future__ import annotations

from typing import Callable, Optional

# Where an autotuned buffer starts, capped by the configured maximum.
AUTOTUNE_INITIAL = 64 * 1024


class BufferAutotuner:
    """Grow an effective buffer toward a configured maximum.

    ``measure`` is called once per tuning interval and must return
    ``(total_throughput_bytes_per_s, rtt_max_seconds)`` for the live
    window, or None when there is no sample yet.
    """

    def __init__(
        self,
        initial: int,
        maximum: int,
        measure: Callable[[], Optional[tuple[float, float]]],
        apply: Callable[[int], None],
    ):
        if initial <= 0 or maximum < initial:
            raise ValueError("need 0 < initial <= maximum")
        self.effective = initial
        self.maximum = maximum
        self.measure = measure
        self.apply = apply
        self.grow_events = 0
        apply(initial)

    def tick(self) -> int:
        """Run one tuning step; returns the (possibly grown) buffer."""
        sample = self.measure()
        if sample is None:
            return self.effective
        throughput, rtt_max = sample
        if throughput <= 0 or rtt_max <= 0:
            return self.effective
        needed = int(2 * throughput * rtt_max)  # the paper's 2 · Σ throughput · RTT_max
        if needed > self.effective:
            self.effective = min(self.maximum, needed)
            self.grow_events += 1
            self.apply(self.effective)
        return self.effective


class ThroughputMeter:
    """Windowed throughput estimate from (time, cumulative_bytes) marks."""

    def __init__(self):
        self._last_time: Optional[float] = None
        self._last_bytes = 0
        self._rate = 0.0

    def update(self, now: float, cumulative_bytes: int) -> float:
        """Fold in a new observation; returns the current rate estimate."""
        if self._last_time is None:
            self._last_time = now
            self._last_bytes = cumulative_bytes
            return 0.0
        elapsed = now - self._last_time
        if elapsed <= 0:
            return self._rate
        instant = (cumulative_bytes - self._last_bytes) / elapsed
        # EWMA with a half-life of roughly two windows.
        self._rate = instant if self._rate == 0.0 else 0.7 * self._rate + 0.3 * instant
        self._last_time = now
        self._last_bytes = cumulative_bytes
        return self._rate

    @property
    def rate(self) -> float:
        return self._rate
