"""Event loop: a deterministic scheduler with one way onto the clock.

Design notes
------------
* All work is ordered by ``(time, sequence_number)``.  The monotonically
  increasing sequence number makes simultaneous events run in the order
  they were scheduled, which keeps runs reproducible.  Timers share the
  same counter, so wheel-managed timers and heap events interleave in
  exactly the order a single heap would produce.
* The heap holds one entry shape: the fire-and-forget tuple
  ``(time, seq, fn, a0, a1)``.  Seqs are unique, so comparisons are
  decided at C speed by the first two elements.  ``schedule``,
  ``schedule_at``, ``call_soon``, ``post`` and ``post_at`` are five
  spellings of one private push (:meth:`Simulator._push`), which is
  also the one place a scheduling time is validated.  Up to two
  positional arguments are inlined into the tuple; the rare 3+-argument
  call rides behind a spreading trampoline in the same two slots.
  Nothing pushed onto the heap can be cancelled and nothing is handed
  back to the caller.
* :class:`Timer` is the only cancellable thing -- the restartable
  one-shot behind TCP retransmission, delayed ACKs, the coalescer's
  hold and the memory sampler.  Timers never touch the heap: they are
  intrusive entries on a hierarchical timer wheel
  (:mod:`repro.sim.wheel`), so ``start``/``restart``/``stop`` are O(1)
  pointer relinks, a restart to the identical deadline is a no-op, and
  a stopped timer leaves nothing behind for the loop to skip.
* :meth:`Simulator.run` is the single dispatch body.  Each iteration
  merges the wheel's cached minimum with the heap head by exact
  ``(time, seq)`` and fires one of two arms: timer or tuple.
* ``post_event`` is a hook called after every executed event (the
  invariant oracle).  It is handed the callable that just ran -- never
  its arguments -- so it can tell *whose* event it was without ever
  holding the segments an event carries.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable, Optional

from repro.sim.gcscope import paused
from repro.sim.wheel import TimerWheel

# Process-wide count of events executed by every Simulator instance.
# The sweep runner samples it around each experiment point to report
# simulator throughput (events/sec); it is monotonic and never reset.
_EVENTS_RUN_TOTAL = 0


def events_run_total() -> int:
    """Events executed by all simulators in this process so far."""
    return _EVENTS_RUN_TOTAL


# Sentinel marking an unused inline-argument slot (None is a valid
# argument value, so absence needs its own marker).
_NOARG: Any = object()


def _spread(fn: Callable[..., Any], args: tuple) -> None:
    """Trampoline carrying a 3+-argument call in the two heap slots."""
    fn(*args)


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(1.0, hits.append, "a")
    >>> sim.schedule(0.5, hits.append, "b")
    >>> sim.run()
    2
    >>> hits
    ['b', 'a']
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple] = []
        self._seq: int = 0
        self._events_run: int = 0
        self._wheel = TimerWheel()
        # Called after every executed event with the callable that ran,
        # never its arguments (the invariant oracle hooks in here).  The
        # None check is the only cost when detached.
        self.post_event: Optional[Callable[[Callable[..., Any]], Any]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _push(
        self, time: float, fn: Callable[..., Any], a0: Any = _NOARG, a1: Any = _NOARG
    ) -> None:
        """The one way onto the heap.  ``not time >= now`` (rather than
        ``time < now``) also refuses NaN, which would otherwise fire and
        poison the clock for the rest of the run."""
        if not time >= self.now:
            raise ValueError(f"cannot schedule at {time!r}: not at or after now={self.now!r}")
        seq = self._seq
        self._seq = seq + 1  # analyze: ok(SEQ01): event counter, never wraps
        heapq.heappush(self._queue, (time, seq, fn, a0, a1))

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if len(args) > 2:
            self._push(time, _spread, fn, args)
        else:
            self._push(time, fn, *args)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        self.schedule_at(self.now + delay, fn, *args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current time, after pending events."""
        self.schedule_at(self.now, fn, *args)

    def post_at(self, time: float, fn: Callable[..., Any], a0: Any = _NOARG, a1: Any = _NOARG) -> None:
        """The datapath's spelling: at most two positional arguments,
        named rather than starred so the call builds no argument tuple."""
        self._push(time, fn, a0, a1)

    def post(self, delay: float, fn: Callable[..., Any], a0: Any = _NOARG, a1: Any = _NOARG) -> None:
        """Relative-time variant of :meth:`post_at` (link transmit/deliver)."""
        self._push(self.now + delay, fn, a0, a1)

    def timer(self, callback: Callable[[], Any]) -> "Timer":
        """A :class:`Timer` on this simulator.  Code handed a
        ``Network.sim`` (which may be a ``ShardedClock``) builds its
        timers here so they land on a real simulator either way."""
        return Timer(self, callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        exclusive: bool = False,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` events have executed.  Returns the number of
        events executed.  Draining or reaching ``until`` advances the
        clock to ``until`` (never backwards); spending ``max_events``
        leaves it at the last event.

        ``exclusive=True`` makes ``until`` a strict bound: events *at*
        ``until`` stay queued (the sharded drivers use this to execute a
        half-open time window ``[now, until)`` and leave the boundary
        instant for a later, globally ordered pass).
        """
        global _EVENTS_RUN_TOTAL
        if exclusive and until is None:
            raise ValueError("exclusive run requires an explicit until bound")
        executed = 0
        queue = self._queue
        wheel = self._wheel
        pop = heapq.heappop
        with paused():
            try:
                while True:
                    # Merge the wheel's cached minimum with the heap head by
                    # exact (time, seq) -- identical order to a single heap.
                    timer = wheel._min
                    if timer is None and wheel._count:
                        timer = wheel.find_min(self.now)
                    entry: Optional[tuple] = None
                    if queue:
                        entry = queue[0]
                        if timer is not None and (
                            timer._time < entry[0]
                            or (
                                timer._time == entry[0]
                                and timer._seq < entry[1]  # analyze: ok(SEQ01): event counter, never wraps
                            )
                        ):
                            entry = None  # the timer fires first
                    if entry is not None:
                        time = entry[0]
                    elif timer is not None:
                        time = timer._time
                    else:
                        break  # drained
                    if until is not None and (
                        time > until or (exclusive and time == until)
                    ):
                        break
                    self.now = time
                    if entry is None:
                        wheel.remove(timer)
                        timer._callback()
                    else:
                        pop(queue)
                        a1 = entry[4]
                        if a1 is _NOARG:
                            a0 = entry[3]
                            if a0 is _NOARG:
                                entry[2]()
                            else:
                                entry[2](a0)
                        else:
                            entry[2](entry[3], a1)
                    if self.post_event is not None:
                        self.post_event(timer._callback if entry is None else entry[2])
                    executed += 1
                    if max_events is not None and executed >= max_events:
                        return executed
                if until is not None and until > self.now:
                    self.now = until
            finally:
                self._events_run += executed
                # Per-process throughput counter: workers meter their own
                # events and report them through _execute_point's return
                # value, so a worker-side copy is the intended behaviour.
                _EVENTS_RUN_TOTAL += executed  # analyze: ok(MUT01): per-process counter, returned by workers
        return executed

    def next_event_time(self) -> float:
        """Time of the earliest event (heap or wheel), or ``math.inf``
        when nothing is queued.  Does not advance the clock.  The
        sharded drivers poll this to compute safe execution windows.
        """
        head = self._queue[0][0] if self._queue else inf
        wheel = self._wheel
        timer = wheel._min
        if timer is None and wheel._count:
            timer = wheel.find_min(self.now)
        if timer is not None and timer._time < head:
            return timer._time
        return head

    @property
    def pending(self) -> int:
        """Number of queued events (armed timers included).  O(1)."""
        return len(self._queue) + self._wheel._count

    @property
    def events_run(self) -> int:
        return self._events_run


class Timer:
    """A restartable one-shot timer, held on the simulator's timer wheel.

    TCP-style usage: ``restart()`` on every ACK that advances the window,
    ``stop()`` when the retransmission queue drains, and the callback fires
    only if neither happened within the timeout.  Every operation is an
    O(1) wheel relink; a ``restart`` to the deadline already pending is a
    no-op.  ``_time``/``_seq``/``_w*`` are the wheel's intrusive fields.
    """

    __slots__ = (
        "_sim",
        "_callback",
        "_time",
        "_seq",
        "_wtick",
        "_wlevel",
        "_wslot",
        "_wprev",
        "_wnext",
    )

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._time = 0.0
        self._seq = 0
        self._wtick = 0
        self._wlevel = -1  # < 0 means not armed
        self._wslot = 0
        self._wprev: Optional["Timer"] = None
        self._wnext: Optional["Timer"] = None

    def start(self, delay: float) -> None:
        """Arm the timer; raises if it is already running."""
        if self._wlevel >= 0:
            raise RuntimeError("timer already running")
        if not delay >= 0:  # also refuses NaN
            raise ValueError(f"timer delay must be >= 0, got {delay!r}")
        sim = self._sim
        self._time = sim.now + delay
        self._seq = sim._seq
        sim._seq += 1  # analyze: ok(SEQ01): event counter, never wraps
        sim._wheel.insert(self)

    def restart(self, delay: float) -> None:
        """(Re)arm the timer, dropping any pending expiry.  A restart to
        the deadline already pending is a no-op relink-free return."""
        if not delay >= 0:  # also refuses NaN
            raise ValueError(f"timer delay must be >= 0, got {delay!r}")
        sim = self._sim
        time = sim.now + delay
        if self._wlevel >= 0:
            if time == self._time:
                return  # same deadline: nothing to move
            sim._wheel.remove(self)
        self._time = time
        self._seq = sim._seq
        sim._seq += 1  # analyze: ok(SEQ01): event counter, never wraps
        sim._wheel.insert(self)

    def stop(self) -> None:
        if self._wlevel >= 0:
            self._sim._wheel.remove(self)

    @property
    def running(self) -> bool:
        return self._wlevel >= 0

    @property
    def expires_at(self) -> Optional[float]:
        return self._time if self._wlevel >= 0 else None
