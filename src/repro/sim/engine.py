"""Event loop: a deterministic scheduler with one way onto the clock.

Design notes
------------
* All work is ordered by ``(time, sequence_number)`` on one binary heap,
  and :meth:`Simulator.run` pops it once per iteration.  The increasing
  sequence number makes simultaneous events run in the order they were
  scheduled, which keeps runs reproducible.
* A plain event is the fire-and-forget tuple ``(time, seq, fn, a0, a1)``.
  Seqs are unique, so comparisons are decided at C speed by the first
  two elements.  ``schedule``, ``schedule_at``, ``call_soon`` and
  ``post`` are four spellings of one private push
  (:meth:`Simulator._push`), which is also the one place a scheduling
  time is validated.  Up to two positional arguments are inlined into
  the tuple; the rare 3+-argument call rides behind a spreading
  trampoline in the same two slots.  Nothing pushed this way can be
  cancelled and nothing is handed back to the caller.
* :class:`~repro.sim.wheel.Timer` is the only cancellable thing -- the
  restartable one-shot behind TCP retransmission, delayed ACKs, the
  coalescer's hold and the memory sampler.  A timer keeps at most one
  entry on the same heap, its *anchor*, at or before its deadline; an
  anchor whose seq no longer matches its timer is *stale* and is never
  counted as an event (the rule is spelled out in :mod:`repro.sim.wheel`).
* ``post_event`` is a hook called after every executed event (the
  invariant oracle).  It is handed the callable that just ran -- never
  its arguments -- so it can tell *whose* event it was without ever
  holding the segments an event carries.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.gcscope import paused
from repro.sim.wheel import _TIMER, Timer

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
        self._seq = seq + 1
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

    def post(self, delay: float, fn: Callable[..., Any], a0: Any = _NOARG, a1: Any = _NOARG) -> None:
        """The datapath's spelling (link transmit/deliver): at most two
        positional arguments, named rather than starred so the call
        builds no argument tuple."""
        self._push(self.now + delay, fn, a0, a1)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` events have executed.  Returns the number of
        events executed.  Draining or reaching ``until`` advances the
        clock to ``until`` (never backwards); spending ``max_events``
        leaves it at the last event, and ``max_events=0`` runs nothing.
        """
        global _EVENTS_RUN_TOTAL
        if max_events is not None and max_events <= 0:
            if max_events < 0:
                raise ValueError("max_events must be >= 0, got %r" % max_events)
            return 0
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        with paused():
            try:
                while queue:
                    entry = queue[0]
                    time = entry[0]
                    if until is not None and time > until:
                        break
                    pop(queue)
                    fn = entry[2]
                    if fn is _TIMER:
                        timer = entry[3]
                        if entry[1] != timer._seq:
                            self._settle(entry)
                            continue  # stale: not an event
                        timer._seq = None
                        timer._anchor = None
                        self.now = time
                        fn = timer._callback
                        fn()
                    else:
                        self.now = time
                        a1 = entry[4]
                        if a1 is _NOARG:
                            a0 = entry[3]
                            if a0 is _NOARG:
                                fn()
                            else:
                                fn(a0)
                        else:
                            fn(entry[3], a1)
                    if self.post_event is not None:
                        self.post_event(fn)
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
                _EVENTS_RUN_TOTAL += executed
        return executed

    def _settle(self, entry: tuple) -> None:
        """Re-queue a popped stale anchor of a still-armed timer at the
        timer's real ``(time, seq)``; drop any other stale entry."""
        timer = entry[3]
        if entry is timer._anchor:
            if timer._seq is None:
                timer._anchor = None
            else:
                anchor = timer._anchor = (timer._time, timer._seq, _TIMER, timer, None)
                heapq.heappush(self._queue, anchor)

    @property
    def pending(self) -> int:
        """Queued events: plain entries plus armed timers' anchors (a heap
        walk for tests)."""
        return sum(
            1
            for entry in self._queue
            if entry[2] is not _TIMER or (entry is entry[3]._anchor and entry[3]._seq is not None)
        )

    @property
    def events_run(self) -> int:
        return self._events_run
