"""Hierarchical timer wheel vs. the heap: differential order tests.

The engine orders all work by ``(time, seq)``; timers live on the wheel
while plain events live on the heap, and ``run()`` merges the two.  The
tests here drive both structures from seeded random operation scripts
and compare the observed firing order against a reference scheduler
implemented with nothing but a sorted list — any divergence in merge
order, cascade handling or restart semantics shows up as a sequence
mismatch.
"""

import random

import pytest

from repro.sim.engine import Simulator, Timer
from repro.sim.wheel import _OVERFLOW, _SPAN2, TICKS_PER_SEC

# Deadlines this far out (in seconds) exceed the top wheel level's span
# and land on the unsorted overflow list.
OVERFLOW_S = _SPAN2 / TICKS_PER_SEC  # 16384 s with the default geometry


class ReferenceScheduler:
    """Executable model of the engine's ordering contract.

    Keeps every armed item in one flat list and always fires the
    smallest ``(time, seq)`` — the semantics the wheel + heap merge must
    be indistinguishable from.
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
            timers[label].stop()  # fired: wheel already unlinked; stop is a no-op
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
    every wheel level (sub-tick to overflow) plus exact-tie times."""
    delays = [
        0.0,
        0.00005,  # below one wheel tick
        rng.uniform(0.0001, 0.2),  # level 0
        rng.uniform(0.3, 5.0),  # level 1
        rng.uniform(10.0, 200.0),  # level 2
        rng.uniform(300.0, 2000.0),  # overflow
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
    # which exercises mid-run cascades and re-inserts behind ``now``.
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
def test_wheel_matches_reference_scheduler(seed):
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
    # the stale expiry it was recycled from is gone from the wheel.
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
# Overflow list (deadlines beyond the top wheel level)
# ----------------------------------------------------------------------


def test_far_future_timer_lands_on_overflow_and_fires():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(("timer", sim.now)))
    timer.start(OVERFLOW_S + 4000.0)
    assert timer._wlevel == _OVERFLOW
    assert sim._wheel._overflow is timer
    # An event armed later for the same instant must fire after the
    # timer (arming order), even though the timer sat in overflow.
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
    assert doomed._wlevel == _OVERFLOW and survivor._wlevel == _OVERFLOW
    assert len(sim._wheel) == 3
    doomed.stop()  # unlink from the middle/head of the overflow chain
    assert not doomed.running
    assert len(sim._wheel) == 2
    sim.run()
    assert fired == ["near", "survivor"]
    assert sim.now == OVERFLOW_S + 2000.0


def test_overflow_cascades_down_as_time_advances():
    # A far-future timer must migrate off the overflow list once the
    # cursor gets close enough, and still fire at the exact deadline.
    sim = Simulator()
    fired = []
    deadline = OVERFLOW_S + 5000.0
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(deadline)
    assert timer._wlevel == _OVERFLOW
    # Intermediate work drags the cursor forward past the point where
    # (deadline - now) fits in the top wheel level.
    sim.schedule(6000.0, lambda: None)
    sim.run(until=7000.0)
    # earliest() may serve the cached minimum; find_min() recomputes,
    # which is where the overflow cascade runs.
    assert sim._wheel.find_min(sim.now) is timer
    assert timer.running
    assert timer._wlevel != _OVERFLOW  # relocated onto a wheel level
    assert sim._wheel._overflow is None
    sim.run()
    assert fired == [deadline]


def test_restart_across_the_overflow_boundary():
    # far -> near: the pending overflow entry is dropped and the timer
    # fires at the new near deadline.
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(OVERFLOW_S + 9000.0)
    assert timer._wlevel == _OVERFLOW
    timer.restart(0.5)
    assert timer._wlevel != _OVERFLOW
    sim.run()
    assert fired == [0.5]

    # near -> far: and back out to the overflow list.
    fired.clear()
    timer2 = Timer(sim, lambda: fired.append(sim.now))
    timer2.start(0.25)
    timer2.restart(OVERFLOW_S + 9000.0)
    assert timer2._wlevel == _OVERFLOW
    sim.run()
    assert fired == [sim.now]
    assert fired[0] == pytest.approx(0.5 + OVERFLOW_S + 9000.0)


def _overflow_script(rng):
    """Like _random_script but with deadlines straddling the overflow
    boundary, so cascades off the far-future list happen mid-run."""
    delays = [
        0.0,
        rng.uniform(0.001, 1.0),  # level 0
        rng.uniform(100.0, 4000.0),  # levels 1-2
        OVERFLOW_S - rng.uniform(1.0, 50.0),  # just inside the top level
        OVERFLOW_S + rng.uniform(1.0, 50.0),  # just past the boundary
        rng.uniform(OVERFLOW_S * 2, OVERFLOW_S * 6),  # deep overflow
        OVERFLOW_S + 100.0,  # deliberate exact ties in overflow
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
