"""Event loop: a deterministic flyweight scheduler.

Design notes
------------
* Events are ordered by ``(time, sequence_number)``.  The monotonically
  increasing sequence number makes simultaneous events run in the order
  they were scheduled, which keeps runs reproducible.  Timers share the
  same counter, so wheel-managed timers and heap events interleave in
  exactly the order a single heap would produce.
* The heap stores plain tuples, never objects with ``__lt__``:
  ``(time, seq, event)`` for cancellable :meth:`Simulator.schedule`
  events and ``(time, seq, fn, a0, a1)`` for the internal
  :meth:`Simulator.post` fast path.  Seqs are unique, so comparisons
  are decided at C speed by the first two elements and the mixed tuple
  widths are never compared against each other.
* :meth:`Simulator.post` is the datapath's scheduling call: no Event
  allocation, no cancellation support, arguments inlined into the heap
  tuple.  Use it for fire-and-forget work (link transmit/deliver);
  anything that may need ``cancel()`` goes through ``schedule``.
* :class:`Event` instances are pooled: when an executed (or popped
  cancelled) event has no outside references -- checked with
  ``sys.getrefcount`` -- it is reset and recycled for a later
  ``schedule`` call, so steady-state scheduling allocates nothing.
  Holding a reference (as ``Timer`` clients and tests do) is always
  safe: an escaped event is simply never recycled.  Recycling is also
  skipped while a ``post_event`` hook (the invariant oracle) is
  attached, so the hook never observes a reset event.  Arguments are
  inlined into two slots (``a0``/``a1``); the rare 3+-argument call
  falls back to a tuple.
* Cancellation is lazy: :meth:`Event.cancel` marks the event and the
  main loop skips it when popped.  A live counter makes
  :attr:`Simulator.pending` O(1), and when cancelled corpses dominate a
  large queue it is compacted in one O(n) pass.
* :class:`Timer` -- the restartable one-shot used by TCP
  retransmission and delayed-ACK logic -- no longer touches the heap at
  all.  Timers are intrusive entries on a hierarchical timer wheel
  (:mod:`repro.sim.wheel`): ``start``/``restart``/``stop`` are O(1)
  pointer relinks, a restart to the identical deadline is a no-op, and
  the per-ACK restart churn leaves no corpses behind.  The run loop
  merges the wheel's cached minimum with the heap head by
  ``(time, seq)``.
"""

from __future__ import annotations

import heapq
import sys
import warnings
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

# CPython-only: an event popped for execution is referenced exactly by
# the heap tuple, the loop's local, and getrefcount's argument.  More
# references mean someone outside the engine still holds the event, so
# it must not be recycled.  On runtimes without getrefcount the pool
# never recycles -- correct, just not flyweight.
_getrefcount: Optional[Callable[[Any], int]] = getattr(sys, "getrefcount", None)
_RECYCLE_REFS = 3

# Retention contract: the free list never holds more than this many
# Event shells, so a burst of scheduling cannot pin memory afterwards.
_POOL_MAX = 256

# One-time latch for warn_pooling_disabled(): the hint is useful exactly
# once per process, after which it is noise.
_POOLING_DISABLED_WARNED = False


def warn_pooling_disabled(reason: str) -> None:
    """Warn (once per process) that Event recycling is bypassed.

    Attaching a ``post_event`` hook — the invariant oracle is the one
    shipping client — keeps every executed event alive for the hook, so
    the pool can never prove exclusive ownership and recycling stops.
    That is correct but easy to miss in a benchmark; this makes it loud.
    """
    global _POOLING_DISABLED_WARNED
    if _POOLING_DISABLED_WARNED:
        return
    _POOLING_DISABLED_WARNED = True  # analyze: ok(MUT01): once-per-process warning latch; a forked worker's copy is fine
    warnings.warn(
        f"Event recycling disabled: {reason}. Executed events are handed "
        "to the post_event hook instead of the pool, so hot-path "
        "allocation rates rise while the hook stays attached "
        "(Simulator.pooling_active is now False).",
        RuntimeWarning,
        stacklevel=3,
    )


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`."""

    __slots__ = ("time", "seq", "fn", "a0", "a1", "nargs", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Optional[Callable[..., Any]]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.a0: Any = None
        self.a1: Any = None
        self.nargs = 0
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    @property
    def args(self) -> tuple:
        """The scheduled positional arguments (inlined internally)."""
        n = self.nargs
        if n == 0:
            return ()
        if n == 1:
            return (self.a0,)
        if n == 2:
            return (self.a0, self.a1)
        return self.a0  # 3+ args kept as an actual tuple

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._on_cancel()
            self._sim = None

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        # Scheduling tiebreaker: a monotonically increasing Python int,
        # not a wrapping 32-bit wire sequence number.
        return self.seq < other.seq  # analyze: ok(SEQ01): event counter, never wraps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} fn={getattr(self.fn, '__name__', self.fn)}{state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule(1.0, hits.append, "a")
    >>> _ = sim.schedule(0.5, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    """

    # Compaction: rebuild the heap once cancelled events outnumber live
    # ones and the queue is big enough for the O(n) pass to pay off.
    _COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple] = []
        self._seq: int = 0
        self._events_run: int = 0
        self._live: int = 0  # queued events that are not cancelled
        self._running: bool = False
        self._wheel = TimerWheel()
        self._pool: list[Event] = []
        # Called after every executed event (the invariant oracle hooks
        # in here).  The None check is the only cost when detached.
        self.post_event: Optional[Callable[[Any], Any]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq
        self._seq = seq + 1  # analyze: ok(SEQ01): event counter, never wraps
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.fn = fn
            event.cancelled = False
        else:
            event = Event(time, seq, fn)
        n = len(args)
        if n == 0:
            event.nargs = 0
        elif n == 1:
            event.nargs = 1
            event.a0 = args[0]
        elif n == 2:
            event.nargs = 2
            event.a0 = args[0]
            event.a1 = args[1]
        else:
            event.nargs = -1
            event.a0 = args
        event._sim = self
        self._live += 1
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def post(self, delay: float, fn: Callable[..., Any], a0: Any = _NOARG, a1: Any = _NOARG) -> None:
        """Fire-and-forget fast path: schedule ``fn`` with up to two
        positional arguments, with no :class:`Event` and therefore no
        way to cancel.  The datapath (link transmit/deliver) lives on
        this; it allocates nothing beyond the heap tuple itself."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        seq = self._seq
        self._seq = seq + 1  # analyze: ok(SEQ01): event counter, never wraps
        self._live += 1
        heapq.heappush(self._queue, (self.now + delay, seq, fn, a0, a1))

    def post_at(self, time: float, fn: Callable[..., Any], a0: Any = _NOARG, a1: Any = _NOARG) -> None:
        """Absolute-time variant of :meth:`post`."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq
        self._seq = seq + 1  # analyze: ok(SEQ01): event counter, never wraps
        self._live += 1
        heapq.heappush(self._queue, (time, seq, fn, a0, a1))

    def _on_cancel(self) -> None:
        """Bookkeeping for :meth:`Event.cancel`; compacts the heap when
        cancelled corpses make up more than half of a large queue."""
        self._live -= 1
        queue = self._queue
        if len(queue) >= self._COMPACT_MIN_SIZE and self._live * 2 < len(queue):
            # In place: the run loop holds a local reference to the list.
            queue[:] = [e for e in queue if len(e) != 3 or not e[2].cancelled]
            heapq.heapify(queue)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time, after pending events."""
        return self.schedule_at(self.now, fn, *args)

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
        events executed.

        ``exclusive=True`` makes ``until`` a strict bound: events *at*
        ``until`` stay queued (the sharded drivers use this to execute a
        half-open time window ``[now, until)`` and leave the boundary
        instant for a later, globally ordered pass).
        """
        global _EVENTS_RUN_TOTAL
        if exclusive and until is None:
            raise ValueError("exclusive run requires an explicit until bound")
        self._running = True
        executed = 0
        queue = self._queue
        wheel = self._wheel
        pool = self._pool
        pop = heapq.heappop
        getrefcount = _getrefcount
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
                        if len(entry) == 3 and entry[2].cancelled:
                            pop(queue)
                            ev = entry[2]
                            if (
                                getrefcount is not None
                                and len(pool) < _POOL_MAX
                                and getrefcount(ev) == _RECYCLE_REFS
                            ):
                                ev.fn = None
                                ev.a0 = None
                                ev.a1 = None
                                pool.append(ev)
                            continue
                        if timer is not None and (
                            timer._time < entry[0]
                            or (
                                timer._time == entry[0]
                                and timer._seq < entry[1]  # analyze: ok(SEQ01): event counter, never wraps
                            )
                        ):
                            entry = None  # the timer fires first
                    if entry is None:
                        if timer is None:
                            if until is not None:
                                self.now = until
                            break
                        if until is not None and (
                            timer._time > until or (exclusive and timer._time == until)
                        ):
                            self.now = until
                            break
                        wheel.remove(timer)
                        self.now = timer._time
                        timer._callback()
                        if self.post_event is not None:
                            self.post_event(timer)
                    else:
                        if until is not None and (
                            entry[0] > until or (exclusive and entry[0] == until)
                        ):
                            self.now = until
                            break
                        pop(queue)
                        self._live -= 1
                        self.now = entry[0]
                        if len(entry) == 5:
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
                                self.post_event(entry)
                        else:
                            ev = entry[2]
                            ev._sim = None
                            n = ev.nargs
                            if n == 1:
                                ev.fn(ev.a0)
                            elif n == 0:
                                ev.fn()
                            elif n == 2:
                                ev.fn(ev.a0, ev.a1)
                            else:
                                ev.fn(*ev.a0)
                            if self.post_event is not None:
                                self.post_event(ev)
                            elif (
                                getrefcount is not None
                                and len(pool) < _POOL_MAX
                                and getrefcount(ev) == _RECYCLE_REFS
                            ):
                                ev.fn = None
                                ev.a0 = None
                                ev.a1 = None
                                pool.append(ev)
                    self._events_run += 1
                    executed += 1
                    if max_events is not None and executed >= max_events:
                        break
            finally:
                self._running = False
                # Per-process throughput counter: workers meter their own
                # events and report them through _execute_point's return
                # value, so a worker-side copy is the intended behaviour.
                _EVENTS_RUN_TOTAL += executed  # analyze: ok(MUT01): per-process counter, returned by workers
        return executed

    def next_event_time(self) -> float:
        """Time of the earliest runnable event (heap or wheel), or
        ``math.inf`` when nothing is queued.  Pops cancelled corpses off
        the heap head so the answer is exact; does not advance the clock.
        The sharded drivers poll this to compute safe execution windows.
        """
        queue = self._queue
        head = inf
        while queue:
            entry = queue[0]
            if len(entry) == 3 and entry[2].cancelled:
                heapq.heappop(queue)
                continue
            head = entry[0]
            break
        wheel = self._wheel
        timer = wheel._min
        if timer is None and wheel._count:
            timer = wheel.find_min(self.now)
        if timer is not None and timer._time < head:
            return timer._time
        return head

    def step(self) -> bool:
        """Run a single event.  Returns False when the queue is empty."""
        global _EVENTS_RUN_TOTAL
        queue = self._queue
        wheel = self._wheel
        while True:
            timer = wheel._min
            if timer is None and wheel._count:
                timer = wheel.find_min(self.now)
            entry: Optional[tuple] = None
            if queue:
                entry = queue[0]
                if len(entry) == 3 and entry[2].cancelled:
                    heapq.heappop(queue)
                    continue
                if timer is not None and (
                    timer._time < entry[0]
                    or (
                        timer._time == entry[0]
                        and timer._seq < entry[1]  # analyze: ok(SEQ01): event counter, never wraps
                    )
                ):
                    entry = None
            if entry is None:
                if timer is None:
                    return False
                wheel.remove(timer)
                self.now = timer._time
                timer._callback()
                if self.post_event is not None:
                    self.post_event(timer)
            else:
                heapq.heappop(queue)
                self._live -= 1
                self.now = entry[0]
                if len(entry) == 5:
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
                        self.post_event(entry)
                else:
                    ev = entry[2]
                    ev._sim = None
                    n = ev.nargs
                    if n == 1:
                        ev.fn(ev.a0)
                    elif n == 0:
                        ev.fn()
                    elif n == 2:
                        ev.fn(ev.a0, ev.a1)
                    else:
                        ev.fn(*ev.a0)
                    if self.post_event is not None:
                        self.post_event(ev)
            self._events_run += 1
            _EVENTS_RUN_TOTAL += 1
            return True

    @property
    def pending(self) -> int:
        """Number of queued, non-cancelled events (timers included).  O(1)."""
        return self._live + self._wheel._count

    @property
    def pooling_active(self) -> bool:
        """True when executed events are eligible for pool recycling.

        False while a ``post_event`` hook (the invariant oracle) is
        attached, or on runtimes without ``sys.getrefcount``.
        Benchmarks assert this so a stray hook cannot silently turn a
        flyweight measurement into an allocation benchmark.
        """
        return self.post_event is None and _getrefcount is not None

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
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        sim = self._sim
        self._time = sim.now + delay
        self._seq = sim._seq
        sim._seq += 1  # analyze: ok(SEQ01): event counter, never wraps
        sim._wheel.insert(self)

    def restart(self, delay: float) -> None:
        """(Re)arm the timer, dropping any pending expiry.  A restart to
        the deadline already pending is a no-op relink-free return."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
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
