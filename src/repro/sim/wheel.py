"""Restartable timers that ride the simulator's one event heap.

The file keeps its historical name: it held a hierarchical timer wheel
until timers moved onto the event heap, and the perf harness maps
``sim/wheel.py`` to its ``sim.wheel`` layer, which now measures exactly
timer arm / restart / stop.

The anchor rule
---------------
* A timer's key is ``(_time, _seq)``: its deadline plus a fresh seq from
  the simulator's one counter, taken on every arm, so timers and plain
  events interleave in exact ``(time, seq)`` order.  ``_seq is None``
  means disarmed, so ``stop()`` is one store.
* A timer keeps at most one heap entry, its *anchor*
  ``(time, seq, _TIMER, timer, None)``, at or before its deadline.
  Arming pushes a new anchor only when there is none or the current one
  is later than the new deadline, so the per-ACK RTO restart to a later
  deadline pushes nothing.
* An entry fires iff its seq equals the timer's.  Any other entry is
  *stale* and is not an event: it is not counted, gets no
  ``post_event``, does not advance ``now`` and is not charged to
  ``max_events``.  A stale anchor of a still-armed timer is re-queued at
  the timer's real ``(time, seq)``; an orphan (left by a restart to an
  earlier deadline) or a stopped timer's anchor is dropped.  A stopped
  timer's anchor thus keeps the timer, and its owner, alive until then.
* A restart to the deadline already pending is a no-op that keeps its
  seq, so the timer stays ahead of work armed for that instant since.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.sim.engine import Simulator

# Marks a timer anchor in an event tuple's callable slot.
_TIMER: Any = object()


class Timer:
    """A restartable one-shot timer on the simulator's event heap.

    TCP-style usage: ``restart()`` on every ACK that advances the window,
    ``stop()`` when the retransmission queue drains, and the callback fires
    only if neither happened within the timeout.
    """

    __slots__ = ("_sim", "_callback", "_time", "_seq", "_anchor")

    def __init__(self, sim: "Simulator", callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._time = 0.0
        self._seq: Optional[int] = None  # None means not armed
        self._anchor: Optional[tuple] = None  # this timer's heap entry

    def _arm(self, time: float) -> None:
        sim = self._sim
        seq = sim._seq
        sim._seq = seq + 1
        self._time = time
        self._seq = seq
        anchor = self._anchor
        if anchor is None or anchor[0] > time:
            anchor = self._anchor = (time, seq, _TIMER, self, None)
            heapq.heappush(sim._queue, anchor)

    def start(self, delay: float) -> None:
        """Arm the timer; raises if it is already running."""
        if self._seq is not None:
            raise RuntimeError("timer already running")
        if not delay >= 0:  # also refuses NaN
            raise ValueError(f"timer delay must be >= 0, got {delay!r}")
        self._arm(self._sim.now + delay)

    def restart(self, delay: float) -> None:
        """(Re)arm the timer, dropping any pending expiry.  A restart to
        the deadline already pending is a no-op."""
        if not delay >= 0:  # also refuses NaN
            raise ValueError(f"timer delay must be >= 0, got {delay!r}")
        time = self._sim.now + delay
        if self._seq is not None and time == self._time:
            return  # same deadline: keep the seq, and with it the order
        self._arm(time)

    def stop(self) -> None:
        self._seq = None

    @property
    def running(self) -> bool:
        return self._seq is not None

    @property
    def expires_at(self) -> Optional[float]:
        return self._time if self._seq is not None else None
