"""Timers on the event heap: differential order tests.

The engine orders all work by ``(time, seq)`` on one heap.  A timer
keeps at most one entry there, its *anchor*, at or before its deadline;
an anchor that surfaces early is re-queued at the timer's real key, and
a stale entry is never an event.  The tests here drive timers and plain
events from seeded random operation scripts and compare the observed
firing order against a reference scheduler implemented with nothing but
a flat list — any divergence in ordering, anchor handling or restart
semantics shows up as a sequence mismatch.
"""

import math
import random

import pytest

from repro.sim.engine import Simulator, Timer

# Far-future deadlines (in seconds): beyond anything the datapath arms.
OVERFLOW_S = 16384.0


class ReferenceScheduler:
    """Executable model of the engine's ordering contract.

    Keeps every armed item in one flat list and always fires the
    smallest ``(time, seq)`` — the semantics the anchored heap must be
    indistinguishable from.
    """

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._items = []  # [time, seq, label, alive]
        self._timers = {}  # label -> item (the single armed entry)

    def schedule(self, delay, label):
        self._items.append([self.now + delay, self._seq, label, True])
        self._seq += 1

    def timer_start(self, label, delay):
        assert label not in self._timers, "timer already running"
        item = [self.now + delay, self._seq, label, True]
        self._seq += 1
        self._items.append(item)
        self._timers[label] = item

    def timer_restart(self, label, delay):
        time = self.now + delay
        item = self._timers.get(label)
        if item is not None:
            if time == item[0]:
                return  # same deadline: the engine keeps the old seq
            item[3] = False
            del self._timers[label]
        self.timer_start(label, delay)

    def timer_stop(self, label):
        item = self._timers.pop(label, None)
        if item is not None:
            item[3] = False

    def timer_running(self, label):
        return label in self._timers

    def run(self, reactions):
        # Reactions are one-shot (popped on first firing) so cyclic
        # restart chains terminate; the real interpreter does the same.
        reactions = dict(reactions)
        fired = []
        while True:
            live = [i for i in self._items if i[3]]
            if not live:
                return fired
            item = min(live, key=lambda i: (i[0], i[1]))
            item[3] = False
            # Only an armed *timer* unlinks on firing; a plain event
            # that happens to share a timer's label must not untrack it.
            if self._timers.get(item[2]) is item:
                del self._timers[item[2]]
            self.now = item[0]
            fired.append((item[2], self.now))
            for op in reactions.pop(item[2], ()):
                self._apply(op)

    def _apply(self, op):
        kind = op[0]
        if kind == "start":
            if not self.timer_running(op[1]):
                self.timer_start(op[1], op[2])
        elif kind == "restart":
            self.timer_restart(op[1], op[2])
        elif kind == "stop":
            self.timer_stop(op[1])
        elif kind == "schedule":
            self.schedule(op[2], op[1])


def _run_real(initial, reactions):
    """Interpret the same operation script against the real engine."""
    reactions = dict(reactions)  # one-shot, mirroring the reference
    sim = Simulator()
    fired = []
    timers = {}

    def make_timer(label):
        def callback():
            timers[label].stop()  # fired: already disarmed; stop is a no-op
            fired.append((label, sim.now))
            for op in reactions.pop(label, ()):
                apply_op(op)

        return Timer(sim, callback)

    def event_callback(label):
        fired.append((label, sim.now))
        for op in reactions.pop(label, ()):
            apply_op(op)

    def apply_op(op):
        kind = op[0]
        if kind == "start":
            timer = timers.get(op[1])
            if timer is None:
                timer = timers[op[1]] = make_timer(op[1])
            if not timer.running:
                timer.start(op[2])
        elif kind == "restart":
            timer = timers.get(op[1])
            if timer is None:
                timer = timers[op[1]] = make_timer(op[1])
            timer.restart(op[2])
        elif kind == "stop":
            timer = timers.get(op[1])
            if timer is not None:
                timer.stop()
        elif kind == "schedule":
            sim.schedule(op[2], event_callback, op[1])

    for op in initial:
        apply_op(op)
    sim.run()
    return fired


def _run_reference(initial, reactions):
    ref = ReferenceScheduler()
    for op in initial:
        ref._apply(op)
    return ref.run(reactions)


def _random_script(rng):
    """A mixed schedule/start/restart/stop script with delays spanning
    six orders of magnitude plus exact-tie times."""
    delays = [
        0.0,
        0.00005,
        rng.uniform(0.0001, 0.2),
        rng.uniform(0.3, 5.0),
        rng.uniform(10.0, 200.0),
        rng.uniform(300.0, 2000.0),
        1.0,  # deliberate exact ties
        1.0,
    ]
    initial = []
    reactions = {}
    labels = []
    for i in range(40):
        label = f"op{i}"
        labels.append(label)
        delay = rng.choice(delays)
        if rng.random() < 0.5:
            initial.append(("schedule", label, delay))
        else:
            initial.append(("start", label, delay))
    # Wire reactions: a firing item may restart/stop/arm other items,
    # which exercises mid-run re-queued anchors, orphans and re-arms.
    for label in rng.sample(labels, 25):
        ops = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["start", "restart", "stop", "schedule"])
            target = rng.choice(labels) + rng.choice(["", "-r1", "-r2"])
            if kind == "stop":
                ops.append(("stop", target))
            else:
                ops.append((kind, target, rng.choice(delays)))
        reactions[label] = ops
    return initial, reactions


@pytest.mark.parametrize("seed", [1, 7, 42, 1234, 99991])
def test_timers_match_reference_scheduler(seed):
    rng = random.Random(seed)
    initial, reactions = _random_script(rng)
    real = _run_real(initial, reactions)
    reference = _run_reference(initial, reactions)
    assert real == reference


def test_ties_fire_in_arming_order_across_structures():
    # Timers and events armed for the same instant interleave strictly
    # by arming order, regardless of which structure holds them.
    sim = Simulator()
    fired = []
    t1 = Timer(sim, lambda: fired.append("t1"))
    t2 = Timer(sim, lambda: fired.append("t2"))
    sim.schedule(0.5, fired.append, "e1")
    t1.start(0.5)
    sim.schedule(0.5, fired.append, "e2")
    t2.start(0.5)
    sim.run()
    assert fired == ["e1", "t1", "e2", "t2"]


def test_restart_to_same_deadline_keeps_original_order():
    # A no-op restart must not re-sequence the timer behind later work
    # armed for the same instant.
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append("timer"))
    timer.start(1.0)
    sim.schedule(1.0, fired.append, "event")
    timer.restart(1.0)  # same deadline: must keep its pre-event seq
    sim.run()
    assert fired == ["timer", "event"]


# ----------------------------------------------------------------------
# Timer reuse: one Timer object is stopped and re-armed for life
# ----------------------------------------------------------------------


def test_recycled_event_never_fires_stale_callback():
    # A stopped-then-re-armed timer fires once, at the new deadline:
    # the stale expiry it was recycled from never fires.
    sim = Simulator()
    hits = []
    timer = Timer(sim, lambda: hits.append(sim.now))
    timer.start(0.1)
    timer.stop()
    assert sim.run() == 0
    assert hits == []
    timer.start(0.2)
    sim.run()
    assert hits == [0.2]


def test_cancel_of_fired_event_does_not_poison_reuse():
    # Stopping a timer late, after it already fired, must not disarm
    # or duplicate whatever it is armed for next.
    sim = Simulator()
    hits = []
    timer = Timer(sim, lambda: hits.append(sim.now))
    timer.start(0.1)
    sim.run()
    assert hits == [0.1]
    timer.stop()  # late stop of an already-fired timer
    timer.start(0.1)
    assert timer.running and sim.pending == 1
    sim.run()
    assert hits == [0.1, 0.2]


# ----------------------------------------------------------------------
# Far-future deadlines (16,384 s and up)
# ----------------------------------------------------------------------


def test_far_future_timer_lands_on_overflow_and_fires():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(("timer", sim.now)))
    timer.start(OVERFLOW_S + 4000.0)
    # An event armed later for the same instant must fire after the
    # timer (arming order).
    sim.schedule(OVERFLOW_S + 4000.0, lambda: fired.append(("event", sim.now)))
    sim.run()
    assert fired == [
        ("timer", OVERFLOW_S + 4000.0),
        ("event", OVERFLOW_S + 4000.0),
    ]
    assert not timer.running


def test_cancel_while_overflowed():
    sim = Simulator()
    fired = []
    near = Timer(sim, lambda: fired.append("near"))
    doomed = Timer(sim, lambda: fired.append("doomed"))
    survivor = Timer(sim, lambda: fired.append("survivor"))
    near.start(1.0)
    doomed.start(OVERFLOW_S + 1000.0)
    survivor.start(OVERFLOW_S + 2000.0)
    assert sim.pending == 3
    doomed.stop()
    assert not doomed.running
    assert sim.pending == 2
    sim.run()
    assert fired == ["near", "survivor"]
    assert sim.now == OVERFLOW_S + 2000.0


def test_overflow_cascades_down_as_time_advances():
    # A far-future timer must survive intermediate work and a bounded
    # run, and still fire at the exact deadline.
    sim = Simulator()
    fired = []
    deadline = OVERFLOW_S + 5000.0
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(deadline)
    sim.schedule(6000.0, lambda: None)
    sim.run(until=7000.0)
    assert sim.next_event_time() == deadline
    assert timer.running
    sim.run()
    assert fired == [deadline]


def test_restart_across_the_overflow_boundary():
    # far -> near: the pending far expiry is dropped and the timer
    # fires at the new near deadline.
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(OVERFLOW_S + 9000.0)
    timer.restart(0.5)
    sim.run()
    assert fired == [0.5]

    # near -> far: and back out again.
    fired.clear()
    timer2 = Timer(sim, lambda: fired.append(sim.now))
    timer2.start(0.25)
    timer2.restart(OVERFLOW_S + 9000.0)
    sim.run()
    assert fired == [sim.now]
    assert fired[0] == pytest.approx(0.5 + OVERFLOW_S + 9000.0)


def _overflow_script(rng):
    """Like _random_script but with deadlines straddling 16,384 s, so
    far-future anchors and restarts across that span happen mid-run."""
    delays = [
        0.0,
        rng.uniform(0.001, 1.0),
        rng.uniform(100.0, 4000.0),
        OVERFLOW_S - rng.uniform(1.0, 50.0),  # just below 16,384 s
        OVERFLOW_S + rng.uniform(1.0, 50.0),  # just above
        rng.uniform(OVERFLOW_S * 2, OVERFLOW_S * 6),  # far beyond
        OVERFLOW_S + 100.0,  # deliberate exact ties far out
        OVERFLOW_S + 100.0,
    ]
    initial = []
    reactions = {}
    labels = []
    for i in range(30):
        label = f"op{i}"
        labels.append(label)
        delay = rng.choice(delays)
        if rng.random() < 0.4:
            initial.append(("schedule", label, delay))
        else:
            initial.append(("start", label, delay))
    for label in rng.sample(labels, 18):
        ops = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["start", "restart", "stop", "schedule"])
            target = rng.choice(labels) + rng.choice(["", "-r1"])
            if kind == "stop":
                ops.append(("stop", target))
            else:
                ops.append((kind, target, rng.choice(delays)))
        reactions[label] = ops
    return initial, reactions


@pytest.mark.parametrize("seed", [3, 17, 256, 4096, 65537])
def test_overflow_matches_reference_scheduler(seed):
    rng = random.Random(seed)
    initial, reactions = _overflow_script(rng)
    real = _run_real(initial, reactions)
    reference = _run_reference(initial, reactions)
    assert real == reference


# ----------------------------------------------------------------------
# Anchors: a timer's one heap entry sits at or before its deadline
# ----------------------------------------------------------------------


def test_stale_anchor_is_not_an_event():
    # An anchor that surfaces before its deadline (restart to later), and
    # a stopped timer's anchor, are popped without counting as events:
    # no events_run, no post_event, no clock advance, no max_events charge.
    sim = Simulator()
    hooked = []
    sim.post_event = hooked.append
    fired = []
    moved = Timer(sim, lambda: fired.append(("moved", sim.now)))
    moved.start(1.0)
    moved.restart(3.0)  # anchor stays at 1.0
    stopped = Timer(sim, lambda: fired.append(("stopped", sim.now)))
    stopped.start(1.5)
    stopped.stop()  # anchor stays at 1.5
    event = lambda: fired.append(("event", sim.now))
    sim.schedule(2.0, event)
    assert sim.run(max_events=1) == 1
    assert fired == [("event", 2.0)]
    assert hooked == [event]
    assert sim.now == 2.0
    assert sim.events_run == 1
    assert sim.pending == 1  # the moved timer, counted once

    # Only stale entries left before the horizon: nothing runs.
    only = Simulator()
    idle = Timer(only, lambda: None)
    idle.start(1.0)
    idle.stop()
    assert only.run(max_events=1) == 0
    assert only.now == 0.0
    assert only.events_run == 0
    assert only.pending == 0


def test_orphan_left_by_restart_to_earlier_deadline_never_fires():
    # start(5) anchors at 5; restart(1) anchors anew at 1 and orphans the
    # 5.0 entry; restart(5) keeps the 1.0 anchor.  The timer must fire
    # exactly once, at 5.0, with the orphan's identical deadline dropped.
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(5.0)
    timer.restart(1.0)
    timer.restart(5.0)
    assert sim.pending == 1
    assert sim.run() == 1
    assert fired == [5.0]

    # Fired at the earlier deadline, then re-armed to the orphan's time
    # from its own callback: still one firing per arm.
    sim = Simulator()
    fired = []

    def callback():
        fired.append(sim.now)
        if len(fired) == 1:
            timer.start(4.0)

    timer = Timer(sim, callback)
    timer.start(5.0)
    timer.restart(1.0)
    assert sim.run() == 2
    assert fired == [1.0, 5.0]
    assert sim.pending == 0


def test_run_until_between_anchor_and_deadline_resumes():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(("timer", sim.now)))
    timer.start(1.0)
    timer.restart(3.0)  # anchor at 1.0, deadline 3.0
    assert sim.run(until=2.0) == 0
    assert sim.now == 2.0
    assert timer.running and timer.expires_at == 3.0
    assert sim.pending == 1
    sim.schedule(0.5, lambda: fired.append(("event", sim.now)))
    timer.restart(1.0)  # same deadline from the new now: a no-op
    assert sim.run() == 2
    assert fired == [("event", 2.5), ("timer", 3.0)]


def test_exclusive_window_ends_at_the_deadline():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.restart(3.0)
    assert sim.run(until=3.0, exclusive=True) == 0
    assert fired == []
    assert sim.now == 3.0
    assert timer.running
    assert sim.run(until=3.0) == 1
    assert fired == [3.0]


def test_next_event_time_reports_the_requeued_deadline():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    timer.restart(4.0)
    sim.schedule(5.0, lambda: None)
    assert sim.next_event_time() == 4.0
    assert sim.now == 0.0
    assert sim.pending == 2
    timer.stop()
    assert sim.next_event_time() == 5.0
    assert sim.pending == 1
    assert sim.run() == 1
    assert sim.next_event_time() == math.inf
