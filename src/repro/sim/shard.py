"""Conservative parallel discrete-event sharding.

A sharded run partitions a topology into *shards* — an endpoint cluster
plus its local links — each owning a private :class:`Simulator`.  Links
whose ends live on different shards are *cut links*: their propagation
delay is the **lookahead** that makes conservative synchronisation
possible.  An event executing at time ``t`` on one shard can affect a
neighbour no earlier than ``t + delay``, so every shard may safely run
ahead of its neighbours by the smallest cut-link delay.

Two drivers share the machinery here, one per purpose:

* :meth:`ShardGroup.run_merged` — the in-process driver behind a
  transparent ``Network(shards=N)`` (or ``REPRO_SHARDS=N``).  It always
  executes the globally earliest shard and bounds it by
  ``min(other shards' next event, own next + lookahead)``, so events
  execute in one global time order, exactly as a serial run would.
  Cross-shard probes (goodput meters, memory samplers) and middlebox
  elements on a cut path see exactly the state a serial run would —
  this is the mode the fig3–fig11 conformance bar runs under.  Cut
  deliveries round-trip through the :meth:`Segment.to_wire` codec, so
  the serialisation path is exercised even without processes.
* :meth:`ShardGroup.run_worker_window` — one shard's side of one window
  of the time-window barrier protocol that
  :class:`repro.sim.federation.Federation` drives across forked
  workers.  All shards execute the same half-open window ``[M, M + L)``
  (``M`` = global minimum next-event time, ``L`` = global minimum cut
  delay), captured boundary messages are exchanged at the barrier
  sorted by ``(arrival, source shard, message seq)``, and the final
  window at the horizon runs inclusively (messages born there arrive
  strictly later, so nothing is lost).

Determinism contract: with a fixed seed, shard count and shard
assignment, both drivers are reproducible.  Within a shard, events order
by ``(time, seq)`` exactly as in a serial simulator; across shards,
simultaneous events order by ``(time, shard id, per-shard seq)`` —
boundary messages carry their origin ``(shard, seq)`` so every shard
inserts concurrent arrivals identically.  Cut links must have strictly
positive delay (zero lookahead would deadlock the window protocol);
:class:`ShardingError` reports violations at build time, not mid-run.
"""

from __future__ import annotations

import os
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.engine import Simulator, Timer
from repro.sim.gcscope import paused

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Segment


class ShardingError(RuntimeError):
    """A topology or run request that the sharding layer cannot honour."""


def shard_count_from_env(default: int = 1) -> int:
    """Resolve the ``REPRO_SHARDS`` environment knob.

    Unset or empty means ``default``; anything else must be an integer
    >= 1 — ``0``, ``-1`` or garbage raise :class:`ShardingError` naming
    the value rather than quietly running unsharded.
    """
    raw = os.environ.get("REPRO_SHARDS", "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ShardingError(f"REPRO_SHARDS must be an integer >= 1, got {raw!r}")
    return value


class ShardBoundary:
    """One direction of a cut link: forwards segments to the peer shard.

    Installed as :attr:`Link.remote`.  Where the segment goes depends on
    the driver: merged mode posts it straight onto the target shard's
    queue (after a wire round-trip); a federation worker appends it to
    the capture buffer for exchange at the next barrier.
    """

    __slots__ = ("group", "index", "source", "target", "deliver", "delay", "name")

    def __init__(
        self,
        group: "ShardGroup",
        index: int,
        source: int,
        target: int,
        deliver: Callable[["Segment"], None],
        delay: float,
        name: str,
    ):
        self.group = group
        self.index = index
        self.source = source
        self.target = target
        self.deliver = deliver
        self.delay = delay
        self.name = name

    def __call__(self, arrival: float, segment: "Segment") -> None:
        group = self.group
        capture = group._capture
        wire = segment.to_wire()
        if capture is not None:
            counters = group._msg_seq
            ordinal = counters[self.source]
            counters[self.source] = ordinal + 1
            capture.append((arrival, self.source, ordinal, self.index, wire))
        else:
            from repro.net.packet import segment_from_wire

            group.sims[self.target].post_at(arrival, self.deliver, segment_from_wire(wire))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ShardBoundary {self.name} {self.source}->{self.target} +{self.delay}s>"


# A captured boundary message: (arrival time, source shard, per-shard
# message seq, boundary index, wire bytes).  Tuple-sorted, the first
# three fields are exactly the cross-shard tie-break contract.
Message = tuple[float, int, int, int, bytes]


class ShardGroup:
    """N shard simulators, their cut-link boundaries, and the drivers."""

    def __init__(self, count: int):
        if count < 1:
            raise ShardingError(f"shard count must be >= 1, got {count}")
        self.count = count
        self.sims = [Simulator() for _ in range(count)]
        self.boundaries: list[ShardBoundary] = []
        # Per-shard minimum outbound cut delay (merged-mode lookahead)
        # and the global minimum (the federation's window width).
        self._lookahead = [inf] * count
        self.lookahead = inf
        # True once a cut path carries middlebox elements.  Both
        # directions of such an element must touch one instance in
        # global time order, so the federation runs the merged driver
        # in-process instead of forking divergent copies.
        self.has_cut_elements = False
        # Shard currently executing under a driver (-1 when idle); the
        # clock proxy reads it so ``network.sim.now`` is the running
        # shard's clock, exactly as in a serial run.
        self._active = -1
        # Capture buffer for boundary messages (None = merged mode's
        # direct delivery; a list inside a federation worker).
        self._capture: Optional[list[Message]] = None
        self._msg_seq = [0] * count
        # Set inside a forked federation worker: the one shard this
        # process executes.
        self._worker_shard = -1

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_cut(
        self,
        source: int,
        target: int,
        deliver: Callable[["Segment"], None],
        delay: float,
        name: str = "link",
    ) -> ShardBoundary:
        """Register one direction of a cut link and return its boundary."""
        if not (0 <= source < self.count and 0 <= target < self.count):
            raise ShardingError(f"cut {name}: shard out of range ({source}->{target})")
        if source == target:
            raise ShardingError(f"cut {name}: both ends on shard {source}")
        if delay <= 0.0:
            raise ShardingError(
                f"cut link {name} has zero propagation delay: a cross-shard "
                "link needs positive delay to provide lookahead"
            )
        boundary = ShardBoundary(self, len(self.boundaries), source, target, deliver, delay, name)
        self.boundaries.append(boundary)
        if delay < self._lookahead[source]:
            self._lookahead[source] = delay
        if delay < self.lookahead:
            self.lookahead = delay
        return boundary

    # ------------------------------------------------------------------
    # Merged driver (transparent in-process mode)
    # ------------------------------------------------------------------
    def run_merged(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Run all shards in global time order until ``until``.

        Repeatedly picks the shard with the earliest next event
        (tie-break: lowest shard id) and runs it up to the earliest of
        any other shard's next event, its own horizon of
        ``next + lookahead``, and ``until``.  Cut deliveries are posted
        directly onto the target shard as they are captured; every
        arrival is strictly later than the sending event, so the target
        — whose clock can never be ahead of the running shard — accepts
        it without time travel.  Returns events executed.
        """
        sims = self.sims
        lookahead = self._lookahead
        executed = 0
        finished = False
        with paused():
            while True:
                best = -1
                best_t = inf
                second_t = inf
                for index, sim in enumerate(sims):
                    t = sim.next_event_time()
                    if t < best_t:
                        second_t = best_t
                        best_t = t
                        best = index
                    elif t < second_t:
                        second_t = t
                if best < 0 or best_t == inf or (until is not None and best_t > until):
                    finished = True
                    break
                bound = second_t
                cap = best_t + lookahead[best]
                if cap < bound:
                    bound = cap
                if until is not None and until < bound:
                    bound = until
                budget = None if max_events is None else max_events - executed
                sim = sims[best]
                self._active = best
                try:
                    if bound <= best_t:
                        # The window is exhausted at the shard's own next
                        # event (a tie with a neighbour or the horizon):
                        # run exactly the events at that instant.
                        ran = sim.run(until=best_t, max_events=budget)
                    else:
                        ran = sim.run(until=bound, max_events=budget, exclusive=True)
                finally:
                    self._active = -1
                executed += ran
                if max_events is not None and executed >= max_events:
                    break
        if finished and until is not None:
            for sim in sims:
                if sim.now < until:
                    sim.now = until
        return executed

    # ------------------------------------------------------------------
    # Worker-side protocol (one shard per forked process)
    # ------------------------------------------------------------------
    def enter_worker(self, shard: int) -> None:
        """Pin this process to one shard and enable message capture."""
        if not (0 <= shard < self.count):
            raise ShardingError(f"worker shard {shard} out of range")
        self._worker_shard = shard
        self._active = shard
        self._capture = []

    def run_worker_window(
        self, horizon: float, inclusive: bool, messages: list[Message]
    ) -> tuple[float, int, list[Message]]:
        """Execute one window of the pinned shard.

        Injects the barrier's inbound ``messages``, runs to ``horizon``
        (inclusively on the final window), and returns
        ``(next event time, events executed, outbound messages)``.
        """
        shard = self._worker_shard
        if shard < 0:
            raise ShardingError("run_worker_window outside enter_worker")
        sim = self.sims[shard]
        if messages:
            from repro.net.packet import segment_from_wire

            boundaries = self.boundaries
            messages.sort()
            for arrival, _source, _seq, index, wire in messages:
                boundary = boundaries[index]
                sim.post_at(arrival, boundary.deliver, segment_from_wire(wire))
        executed = sim.run(until=horizon, exclusive=not inclusive)
        capture = self._capture
        assert capture is not None
        outbound = capture[:]
        capture.clear()
        return sim.next_event_time(), executed, outbound


class ShardedClock:
    """Duck-typed ``Simulator`` stand-in for a sharded ``Network.sim``.

    Reads (``now``, ``pending``) and writes (``schedule``, ``post``,
    ``post_event``) are routed so that code written against a single
    simulator — goodput meters, memory samplers, the invariant oracle —
    works unchanged on a sharded network:

    * ``now`` is the running shard's clock while a driver executes
      (i.e. the current event's time, exactly as serial), and the
      maximum shard clock when idle.
    * scheduling targets the running shard (callbacks rescheduling
      themselves stay home); from outside a run it targets shard 0, or
      the pinned shard in a federation worker.
      ``timer()`` binds the new timer to that same simulator for life.
    * assigning ``post_event`` broadcasts the hook to every shard.
    """

    def __init__(self, group: ShardGroup):
        self._group = group

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        group = self._group
        active = group._active
        if active >= 0:
            return group.sims[active].now
        return max(sim.now for sim in group.sims)

    def _target(self) -> Simulator:
        group = self._group
        active = group._active
        if active >= 0:
            return group.sims[active]
        return group.sims[0]

    # -- scheduling ----------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        self._target().schedule(delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        self._target().schedule_at(time, fn, *args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        self._target().call_soon(fn, *args)  # analyze: ok(FED01): intra-shard only — _target() is the running shard's own simulator, never a cut crossing

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        self._target().post(delay, fn, *args)

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        self._target().post_at(time, fn, *args)

    def timer(self, callback: Callable[[], Any]) -> Timer:
        return Timer(self._target(), callback)

    # -- execution -----------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        return self._group.run_merged(until=until, max_events=max_events)

    def next_event_time(self) -> float:
        return min(sim.next_event_time() for sim in self._group.sims)  # analyze: ok(CPX01): one term per shard, bounded by --shards not workload

    # -- introspection -------------------------------------------------
    @property
    def pending(self) -> int:
        return sum(sim.pending for sim in self._group.sims)

    @property
    def events_run(self) -> int:
        return sum(sim.events_run for sim in self._group.sims)

    @property
    def post_event(self) -> Optional[Callable[[Callable[..., Any]], Any]]:
        return self._group.sims[0].post_event

    @post_event.setter
    def post_event(self, hook: Optional[Callable[[Callable[..., Any]], Any]]) -> None:
        for sim in self._group.sims:
            sim.post_event = hook

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ShardedClock over {self._group.count} shards now={self.now:.6f}>"
