"""The parallel sweep engine: ordering, fan-out, determinism.

The hard guarantees the figure reproductions rely on:

* a parallel sweep's merged output is byte-identical to the serial run
  (same seeds, same point order);
* every call executes every point — a green run means the simulator
  ran, never that an earlier result was replayed.
"""

import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import fig3, fig4, fig9
from repro.experiments import runner as sweep_runner
from repro.experiments.runner import Point, run_parallel
from repro.sim.engine import Simulator

FIG3_KWARGS = dict(mss_sweep=(1448, 8500), transfer_bytes=128 * 1024)
FIG4_KWARGS = dict(buffers_kb=(100,), duration=4.0)
FIG9_KWARGS = dict(buffers_kb=(200,), duration=6.0)


def _double(x):
    return 2 * x


def _record_pid(x):
    return (x, os.getpid())


CALLS: list = []


def _counted_sim(x):
    """Records that it ran and simulates a few events."""
    CALLS.append(x)
    sim = Simulator()
    for delay in range(x + 1):
        sim.schedule(float(delay), lambda: None)
    sim.run()
    return x


def _answer():
    return 42


TEST_PID = os.getpid()


def _killed_in_worker(x):
    """Point 1 SIGKILLs the pool worker running it (never this process)."""
    if x == 1 and os.getpid() != TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


class TestOrderingAndParallelism:
    def test_values_in_point_order(self):
        out = run_parallel("t", [Point(_double, {"x": i}) for i in range(20)], workers=4)
        assert out.values == [2 * i for i in range(20)]

    def test_empty_sweep_returns_nothing(self):
        out = run_parallel("t", [], workers=4)
        assert out.values == []
        assert out.perf.points == 0 and out.perf.sim_events == 0

    def test_workers_capped_at_point_count(self):
        out = run_parallel("t", [Point(_record_pid, {"x": i}) for i in range(2)], workers=8)
        assert out.perf.workers == 2
        assert [x for x, _ in out.values] == [0, 1]

    def test_point_without_kwargs(self):
        out = run_parallel("t", [Point(_answer), Point(_answer)], workers=2)
        assert out.values == [42, 42]

    def test_no_pool_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(sweep_runner, "_make_pool", lambda workers: None)
        out = run_parallel("t", [Point(_record_pid, {"x": i}) for i in range(4)], workers=4)
        assert out.values == [(x, os.getpid()) for x in range(4)]
        assert out.perf.workers == 1

    def test_work_really_fans_out_to_processes(self):
        out = run_parallel("t", [Point(_record_pid, {"x": i}) for i in range(8)], workers=4)
        pids = {pid for _, pid in out.values}
        assert os.getpid() not in pids  # ran in workers, not in-process
        assert [x for x, _ in out.values] == list(range(8))

    def test_negative_workers_is_an_error_not_serial(self):
        # The rule REPRO_WORKERS follows: a negative count names itself.
        with pytest.raises(ValueError, match="workers must be >= 0, got -2"):
            run_parallel("t", [Point(_double, {"x": 1})], workers=-2)

    def test_workers_one_is_in_process(self):
        out = run_parallel("t", [Point(_record_pid, {"x": 0})], workers=1)
        assert out.values[0][1] == os.getpid()
        assert out.perf.workers == 1


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize(
        "run, kwargs",
        [
            (fig3.run_fig3, FIG3_KWARGS),
            (fig4.run_fig4, FIG4_KWARGS),
            # Fig. 9's MPTCP point crosses a NAT: its translation table and
            # port allocator must start from the same state in a worker.
            (fig9.run_fig9, FIG9_KWARGS),
        ],
        ids=["fig3", "fig4", "fig9"],
    )
    def test_rows_identical(self, run, kwargs, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = run(**kwargs)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        parallel = run(**kwargs)
        assert parallel.notes["sweep"]["workers"] > 1
        # repr is byte-exact on every value (incl. float bit patterns).
        assert repr(serial.rows) == repr(parallel.rows)


class TestEveryPointRuns:
    def test_rerun_executes_every_point_again(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        del CALLS[:]
        points = [Point(_counted_sim, {"x": x}) for x in range(3)]
        first = run_parallel("rerun", points)
        second = run_parallel("rerun", points)
        assert CALLS == [0, 1, 2, 0, 1, 2]
        assert first.values == second.values == [0, 1, 2]
        assert first.perf.sim_events == second.perf.sim_events == 1 + 2 + 3

    def test_duplicate_points_each_execute(self):
        del CALLS[:]
        out = run_parallel("dup", [Point(_counted_sim, {"x": 2})] * 3, workers=1)
        assert CALLS == [2, 2, 2]
        assert out.values == [2, 2, 2]
        assert out.perf.sim_events == 3 * 3

    def test_pool_rerun_counts_worker_events_both_times(self):
        points = [Point(_counted_sim, {"x": x}) for x in range(4)]
        runs = [run_parallel("rerun", points, workers=2) for _ in range(2)]
        for out in runs:
            assert out.perf.workers == 2
            assert out.values == [0, 1, 2, 3]
            assert out.perf.sim_events == 1 + 2 + 3 + 4

    def test_fig3_rerun_resimulates_identically(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        first = fig3.run_fig3(**FIG3_KWARGS)
        second = fig3.run_fig3(**FIG3_KWARGS)
        assert first.notes["sweep"]["sim_events"] > 0
        assert second.notes["sweep"]["sim_events"] == first.notes["sweep"]["sim_events"]
        assert repr(second.rows) == repr(first.rows)
        assert second.name == first.name


class TestKilledWorker:
    def test_sigkilled_worker_fails_the_sweep_in_bounded_time(self):
        """A pool worker killed mid-sweep ends the sweep in
        ``BrokenProcessPool`` at once, never a hang, and the next sweep
        gets a fresh pool."""

        def hung(signum, frame):
            raise TimeoutError("run_parallel hung after a worker was SIGKILLed")

        points = [Point(_killed_in_worker, {"x": x}) for x in range(4)]
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            started = time.monotonic()
            with pytest.raises(BrokenProcessPool):
                run_parallel("killed", points, workers=2)
            elapsed = time.monotonic() - started
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 10
        after = run_parallel("after", [Point(_double, {"x": x}) for x in range(4)], workers=2)
        assert after.values == [0, 2, 4, 6] and after.perf.workers == 2


class TestSweepAPI:
    def test_perf_notes_attach(self):
        from repro.experiments.common import ExperimentResult

        out = run_parallel("t", [Point(_double, {"x": 1})], workers=1)
        result = ExperimentResult("demo")
        out.attach(result)
        assert result.notes["sweep"]["points"] == 1
        assert "events_per_sec" in result.notes["sweep"]

    def test_attached_notes_carry_no_cache_fields(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult("demo")
        run_parallel("t", [Point(_double, {"x": 1})], workers=1).attach(result)
        assert set(result.notes["sweep"]) == {
            "name", "points", "workers", "wall_clock_s", "sim_events", "events_per_sec",
        }

    def test_perf_line_reports_points_and_workers_only(self):
        from repro.experiments.common import ExperimentResult
        from repro.experiments.run_all import _perf_line

        result = ExperimentResult("demo")
        run_parallel("t", [Point(_double, {"x": i}) for i in range(3)], workers=1).attach(result)
        line = _perf_line(result)
        assert "3 points, 1 worker(s)" in line
        assert "cached" not in line

    def test_env_workers_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert sweep_runner.default_workers() == 7
        monkeypatch.setenv("REPRO_WORKERS", "bogus")
        with pytest.raises(ValueError):
            sweep_runner.default_workers()

    @pytest.mark.parametrize(
        "raw, expected",
        [("3", 3), ("0", os.cpu_count() or 1), ("-2", ValueError), ("bogus", ValueError)],
    )
    def test_sweeps_read_workers_env(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        if expected is ValueError:
            with pytest.raises(ValueError, match="REPRO_WORKERS"):
                sweep_runner.default_workers()
        else:
            assert sweep_runner.default_workers() == expected

    def test_unset_workers_means_one_per_cpu(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        cpus = os.cpu_count() or 1
        assert sweep_runner.default_workers() == cpus
