"""GC scopes (``repro.sim.gcscope``): the one owner of collector state.

``paused()`` and ``batch()`` are re-entrant — only the outermost scope
acts — and put back exactly what they found whatever unwinds through
them.  The session fixture in ``conftest.py`` keeps the heap frozen for
the whole run, so tests that need to *be* the outermost ``batch()`` take
the ``thawed`` fixture.
"""

import gc

import pytest

from repro.experiments.runner import Point, run_parallel
from repro.sim import gcscope
from repro.sim.engine import Simulator
from repro.study.scale import counter_digest, run_scale_study

PAUSE = ["disable", "enable", "collect"]
BATCH = ["collect", "freeze", "unfreeze"]


class GcSpy:
    """The real ``gc`` module with its state-changing calls logged."""

    LOGGED = ("disable", "enable", "collect", "freeze", "unfreeze")

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        real = getattr(gc, name)
        if name not in self.LOGGED:
            return real

        def logged(*args):
            self.calls.append(name)
            return real(*args)

        return logged


@pytest.fixture
def spy(monkeypatch):
    assert gc.isenabled()
    spy = GcSpy()
    monkeypatch.setattr(gcscope, "gc", spy)
    return spy


@pytest.fixture
def thawed():
    """Undo the session's freeze for one test, then restore it."""
    assert gc.get_freeze_count() > 0  # conftest's session-wide batch()
    gc.unfreeze()
    yield
    assert gc.get_freeze_count() == 0
    gc.collect()
    gc.freeze()


def _gc_state():
    return gc.isenabled(), gc.get_freeze_count()


def _raise(error):
    raise error("unwinding")


class TestNesting:
    def test_paused_inside_paused(self, spy):
        with gcscope.paused():
            assert not gc.isenabled()
            with gcscope.paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            assert spy.calls == ["disable"]
        assert gc.isenabled()
        assert spy.calls == PAUSE

    def test_batch_inside_batch(self, spy, thawed):
        with gcscope.batch():
            assert gc.get_freeze_count() > 0
            with gcscope.batch():
                assert gc.get_freeze_count() > 0
            assert gc.get_freeze_count() > 0
            assert spy.calls == ["collect", "freeze"]
        assert gc.get_freeze_count() == 0
        assert spy.calls == BATCH

    def test_runner_batch_is_a_noop_inside_the_session_batch(self, spy):
        before = gc.get_freeze_count()
        assert before > 0
        out = run_parallel("gc", [Point(_gc_state)], workers=1)
        assert out.values == [(True, before)]
        assert spy.calls == []
        assert gc.get_freeze_count() == before


class TestRestore:
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_exception_in_a_callback(self, spy, error):
        sim = Simulator()
        sim.schedule(0.1, _raise, error)
        with pytest.raises(error):
            sim.run()
        assert gc.isenabled()
        assert spy.calls == PAUSE

    def test_max_events_early_exit(self, spy):
        sim = Simulator()
        for k in range(5):
            sim.schedule(0.1 * k, lambda: None)
        assert sim.run(max_events=2) == 2
        assert gc.isenabled()
        assert spy.calls == PAUSE

    def test_collector_disabled_by_the_caller_stays_disabled_and_unswept(self, spy):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        gc.disable()
        try:
            assert sim.run() == 1
            assert not gc.isenabled()
            assert spy.calls == []
        finally:
            gc.enable()

    def test_exception_inside_batch(self, spy, thawed):
        with pytest.raises(KeyboardInterrupt):
            with gcscope.batch():
                _raise(KeyboardInterrupt)
        assert gc.get_freeze_count() == 0
        assert spy.calls == BATCH

    def test_heap_frozen_by_the_caller_stays_frozen(self, spy):
        before = gc.get_freeze_count()
        with pytest.raises(RuntimeError):
            with gcscope.batch():
                _raise(RuntimeError)
        assert gc.get_freeze_count() == before > 0
        assert spy.calls == []

    def test_runtime_without_freeze_degrades_to_a_noop(self, monkeypatch):
        class NoFreeze:
            collect = staticmethod(gc.collect)

        monkeypatch.setattr(gcscope, "gc", NoFreeze)
        with gcscope.batch():
            pass


class TestRunner:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_points_see_a_frozen_heap(self, thawed, workers):
        points = [Point(_gc_state)] * 4
        out = run_parallel("gc", points, workers=workers)
        assert out.perf.workers == workers
        for enabled, frozen in out.values:
            assert enabled and frozen > 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_point_unfreezes(self, spy, thawed, workers):
        points = [Point(_raise, {"error": RuntimeError}) for _ in range(4)]
        with pytest.raises(RuntimeError, match="unwinding"):
            run_parallel("gc", points, workers=workers)
        assert gc.get_freeze_count() == 0
        assert spy.calls == BATCH


def test_scale_study_digest_identical_across_drivers(monkeypatch):
    """Freezing moves no simulated output: serial in-process and the
    fork pool agree."""
    digests = {}
    for mode, env in (
        ("serial", {"REPRO_WORKERS": "1"}),
        ("pool", {"REPRO_WORKERS": "2"}),
    ):
        with monkeypatch.context() as patch:
            for key, value in env.items():
                patch.setenv(key, value)
            report, _ = run_scale_study("internet2021", paths=250)
        digests[mode] = counter_digest(report)
    assert digests["serial"] == digests["pool"]
