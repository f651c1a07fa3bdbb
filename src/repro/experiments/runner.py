"""Parallel sweep engine for the figure reproductions.

Every figure is an embarrassingly parallel sweep of independent
deterministic simulations: `fig3` loops `mss x checksum`, the mobile
figures sweep buffer sizes and variants, the study runs 142 path
profiles.  This module fans those `(fn, kwargs)` points across a
``ProcessPoolExecutor`` and returns the results **in point order**,
so the produced rows are byte-identical to a serial run (each point is
a pure function of its arguments and seed; worker processes are forked,
so hashing and imports match the parent exactly).  Every point runs on
every call: nothing is stored between sweeps.

Environment knob:

* ``REPRO_WORKERS`` — number of worker processes; ``1`` forces the
  in-process serial path (the debugging fallback), ``0``/unset means
  one per CPU, and a negative or non-integer value is an error.  It is
  the only way to size a figure sweep: the ``run_fig*`` entry points
  take no worker count.  An explicit ``run_parallel(..., workers=)``
  (the scale study's ``--workers``) follows the same rule.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.sim.engine import events_run_total
from repro.sim.gcscope import batch
from repro.stats.wallclock import wall_clock


# ----------------------------------------------------------------------
# Points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Point:
    """One independent unit of a sweep.

    ``fn`` must be a module-level (picklable) function and ``kwargs``
    must be picklable, so the point can cross into a forked worker.
    """

    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)


@dataclass
class SweepPerf:
    """What a sweep cost; attached to ``ExperimentResult.notes['sweep']``."""

    name: str = ""
    points: int = 0
    workers: int = 1
    wall_clock_s: float = 0.0
    sim_events: int = 0

    @property
    def events_per_sec(self) -> float:
        return self.sim_events / self.wall_clock_s if self.wall_clock_s > 0 else 0.0

    def as_notes(self) -> dict:
        return {
            "name": self.name,
            "points": self.points,
            "workers": self.workers,
            "wall_clock_s": round(self.wall_clock_s, 4),
            "sim_events": self.sim_events,
            "events_per_sec": round(self.events_per_sec, 1),
        }


def require_count(value: int, name: str, minimum: int = 1) -> int:
    """``value``, if it is at least ``minimum``; else a ValueError that
    names ``name``.  The one rule for worker, batch and replicate
    counts: an absurd count is an error, never clamped to a sane one."""
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def worker_count(value: int, name: str = "workers") -> int:
    """A worker count: ``0`` means one per CPU, a negative one is an
    error naming ``name``."""
    return require_count(value, name, minimum=0) or os.cpu_count() or 1


def default_workers() -> int:
    """``REPRO_WORKERS`` env override, else one worker per CPU.

    The one parser of the knob; unset counts as ``0``, and the value
    follows :func:`worker_count`'s rule, as an explicit count does.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    try:
        value = int(raw) if raw else 0
    except ValueError:
        raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from None
    return worker_count(value, "REPRO_WORKERS")


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute_point(point: Point) -> tuple[Any, int]:
    """Worker-side wrapper: run the point, metering simulator events."""
    events_before = events_run_total()
    value = point.fn(**point.kwargs)
    return value, events_run_total() - events_before


def _make_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """A fork-based pool (workers inherit the parent's hash seed, so
    results match the serial path bit-for-bit); None if the platform
    cannot provide one (no fork, sandboxed semaphores, ...)."""
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = None
    try:
        if context is not None:
            return ProcessPoolExecutor(max_workers=workers, mp_context=context)
        return ProcessPoolExecutor(max_workers=workers)
    except (OSError, PermissionError, NotImplementedError):
        return None


@dataclass
class SweepOutcome:
    """Per-point results in the order the points were given, plus perf."""

    values: list
    perf: SweepPerf

    def attach(self, result) -> None:
        """Record the perf report on an ``ExperimentResult``."""
        result.notes["sweep"] = self.perf.as_notes()


def run_parallel(
    name: str, points: Sequence[Point], workers: Optional[int] = None
) -> SweepOutcome:
    """Run every point, in parallel where possible; deterministic order.

    Results come back as ``outcome.values[i]`` for ``points[i]``
    regardless of which worker finished first.  ``workers=None`` reads
    ``REPRO_WORKERS``; an explicit count follows the same rule.
    """
    started = wall_clock()
    workers = min(default_workers() if workers is None else worker_count(workers), len(points))
    perf = SweepPerf(name=name, points=len(points))
    # Every simulation a point runs ends in a full sweep; inside the
    # batch that sweep walks the point's own garbage, not the whole
    # process, and pool workers fork a heap no sweep will dirty.
    with batch():
        pool = _make_pool(workers) if workers > 1 else None
        if pool is None:
            results = [_execute_point(point) for point in points]
        else:
            try:
                results = list(pool.map(_execute_point, points))
            finally:
                pool.shutdown(wait=True)
            perf.workers = workers
    perf.sim_events = sum(events for _, events in results)
    perf.wall_clock_s = wall_clock() - started
    return SweepOutcome(values=[value for value, _ in results], perf=perf)
