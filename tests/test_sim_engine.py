"""The discrete-event engine: ordering, cancellation, timers, RNG.

Heap events are fire-and-forget (every scheduling name returns None);
the only cancellable thing is a :class:`Timer`, so the cancellation
tests below arm and stop timers.
"""

import math

import pytest

from repro.sim import Simulator, Timer
from repro.sim.rng import SeededRNG


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(3.0, order.append, "latest")
        sim.run()
        assert order == ["early", "late", "latest"]

    def test_simultaneous_events_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_run_until_resumable(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_nested_scheduling(self):
        sim = Simulator()
        hits = []

        def outer():
            hits.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            hits.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert hits == [("outer", 1.0), ("inner", 2.0)]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, fired.append, "before")
        doomed = Timer(sim, lambda: fired.append("no"))
        doomed.start(1.0)
        sim.schedule(2.0, fired.append, "after")
        doomed.stop()
        assert sim.run() == 2  # a stopped timer is not an executed event
        assert fired == ["before", "after"]

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        timer.stop()
        timer.stop()
        assert sim.run() == 0
        assert sim.now == 0.0  # nothing fired, so the clock never moved

    def test_scheduling_names_hand_nothing_back(self):
        sim = Simulator()
        noop = lambda: None
        assert sim.schedule(1.0, noop) is None
        assert sim.schedule_at(1.0, noop) is None
        assert sim.call_soon(noop) is None
        assert sim.post(1.0, noop) is None

    def test_any_argument_count_is_delivered(self):
        sim = Simulator()
        got = []
        for n in range(6):
            sim.schedule(1.0, lambda *a: got.append(a), *range(n))
        sim.call_soon(lambda *a: got.append(a), "x", "y", "z")
        sim.post(2.0, lambda *a: got.append(a), None, None)  # None is a value
        assert sim.run() == 8  # a 3+-argument call is still one event
        assert got == [("x", "y", "z")] + [tuple(range(n)) for n in range(6)] + [(None, None)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("bad", [math.nan, -0.1, -math.inf])
    @pytest.mark.parametrize(
        "arm",
        [
            lambda sim, bad: sim.schedule(bad, lambda: None),
            lambda sim, bad: sim.schedule_at(sim.now + bad, lambda: None),
            lambda sim, bad: sim.post(bad, lambda: None),
            lambda sim, bad: sim.schedule(bad, lambda *a: None, 1, 2, 3),
            lambda sim, bad: Timer(sim, lambda: None).start(bad),
            lambda sim, bad: Timer(sim, lambda: None).restart(bad),
        ],
        ids=["schedule", "schedule_at", "post", "schedule-3args",
             "Timer.start", "Timer.restart"],
    )
    def test_every_way_onto_the_clock_refuses_nan_and_the_past(self, arm, bad):
        # Regression: post(nan, fn) passed `delay < 0`, fired, and left
        # sim.now == nan for the rest of the run.
        sim = Simulator()
        sim.run(until=3.0)
        with pytest.raises(ValueError):
            arm(sim, bad)
        assert sim.pending == 0  # nothing was queued, no seq consumed
        assert sim._seq == 0
        sim.run()
        assert sim.now == 3.0

    def test_call_soon_runs_after_pending_same_time(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: (order.append("first"), sim.call_soon(order.append, "soon")))
        sim.schedule(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "soon"]

    def test_step_runs_one_event(self):
        # Single-stepping is run(max_events=1): one event, and the clock
        # stays at that event rather than jumping to a horizon.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.run(max_events=1) == 1
        assert fired == [1]
        assert sim.now == 1.0
        assert sim.run(until=9.0, max_events=1) == 1
        assert sim.now == 2.0  # budget spent before the horizon was reached
        assert sim.run(max_events=1) == 0

    def test_pending_counts_live_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        drop = Timer(sim, lambda: None)
        drop.start(2.0)
        assert sim.pending == 2
        drop.stop()
        assert sim.pending == 1

    def test_run_until_never_moves_the_clock_backwards(self):
        # Regression: every `self.now = until` exit lacked the
        # `until > now` guard, so run(until=5) after run(until=10)
        # rewound the clock -- on a drained queue, with a later heap
        # event pending, and with a later timer pending.
        sim = Simulator()
        sim.run(until=10.0)
        sim.run(until=5.0)
        assert sim.now == 10.0
        sim.schedule(20.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 10.0
        sim.run()
        timer = Timer(sim, lambda: None)
        timer.start(20.0)
        sim.run(until=5.0)
        assert sim.now == 30.0

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_zero_max_events_runs_nothing(self):
        # Regression: the budget was checked only after an event ran, so
        # max_events=0 fired the first event and returned 1.
        sim = Simulator()
        fired = []
        for i in range(3):
            sim.schedule(float(i + 1), fired.append, i)
        assert sim.run(max_events=0) == 0
        assert sim.run(until=5.0, max_events=0) == 0
        assert fired == []
        assert sim.now == 0.0
        assert sim.events_run == 0
        assert sim.pending == 3

    def test_negative_max_events_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="max_events"):
            sim.run(max_events=-1)
        assert sim.now == 0.0 and sim.pending == 1

    def test_events_run_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_run == 4


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_stop_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(True))
        timer.start(2.0)
        timer.stop()
        sim.run()
        assert fired == []

    def test_restart_replaces_expiry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run(until=1.0)
        timer.restart(2.0)
        sim.run()
        assert fired == [3.0]

    def test_double_start_raises(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        with pytest.raises(RuntimeError):
            timer.start(1.0)

    def test_running_and_expiry_introspection(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.running
        timer.start(3.0)
        assert timer.running
        assert timer.expires_at == 3.0
        sim.run()
        assert not timer.running

    def test_timer_can_restart_itself_from_callback(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(sim.now)
            if len(count) < 3:
                timer.restart(1.0)

        timer = Timer(sim, tick)
        timer.start(1.0)
        sim.run()
        assert count == [1.0, 2.0, 3.0]


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a = SeededRNG(7, "x")
        b = SeededRNG(7, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_different_streams(self):
        a = SeededRNG(7, "x")
        b = SeededRNG(7, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = SeededRNG(7, "root").fork("child")
        b = SeededRNG(7, "root").fork("child")
        assert a.getrandbits(64) == b.getrandbits(64)

    def test_fork_independent_of_parent_consumption(self):
        parent1 = SeededRNG(7, "root")
        parent1.random()  # consume some
        child1 = parent1.fork("child")
        child2 = SeededRNG(7, "root").fork("child")
        assert child1.getrandbits(32) == child2.getrandbits(32)

    def test_chance_extremes(self):
        rng = SeededRNG(1, "c")
        assert rng.chance(1.0) is True
        assert rng.chance(0.0) is False

    def test_chance_rate_roughly_correct(self):
        rng = SeededRNG(1, "rate")
        hits = sum(rng.chance(0.3) for _ in range(10_000))
        assert 2700 < hits < 3300
