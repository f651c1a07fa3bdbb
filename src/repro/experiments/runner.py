"""Parallel sweep engine for the figure reproductions.

Every figure is an embarrassingly parallel sweep of independent
deterministic simulations: `fig3` loops `mss x checksum`, the mobile
figures sweep buffer sizes and variants, the study runs 142 path
profiles.  This module fans those `(fn, kwargs)` points across a
``ProcessPoolExecutor`` and merges the results back **in point order**,
so the produced rows are byte-identical to a serial run (each point is
a pure function of its arguments and seed; worker processes are forked,
so hashing and imports match the parent exactly).

On top of that sits a keyed on-disk result cache: a point's key is the
sweep name, the point function's qualified name, a canonical rendering
of its kwargs, and a fingerprint of the ``repro`` package source.  An
unchanged point is served from disk instantly on re-run; editing any
file under ``src/repro/`` changes the fingerprint and invalidates every
entry at once.

Environment knobs (CLI users; the API takes explicit arguments too):

* ``REPRO_WORKERS`` — number of worker processes; ``1`` forces the
  in-process serial path (the debugging fallback), ``0``/unset means
  one per CPU.
* ``REPRO_CACHE=0`` — disable the result cache entirely.
* ``REPRO_CACHE_DIR`` — cache location (default ``~/.cache/repro-mptcp``).
* ``REPRO_SHARDS`` — shard count for every Network a point builds (the
  transparent in-process sharded mode).  Part of the cache key: serial
  and sharded runs of the same point are distinct entries, so a row
  mismatch between them can never be masked by a cache hit.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.sim.engine import events_run_total
from repro.sim.gcscope import batch
from repro.sim.shard import shard_count_from_env

DEFAULT_CACHE_DIR = "~/.cache/repro-mptcp"
_CACHE_VERSION = 1  # bump to orphan every existing entry

_fingerprint_cache: dict[str, str] = {}


# ----------------------------------------------------------------------
# Points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Point:
    """One independent unit of a sweep.

    ``fn`` must be a module-level (picklable) function; ``kwargs`` must
    be picklable and have a deterministic ``repr`` (primitives, tuples,
    dataclasses of primitives) since it feeds the cache key.
    """

    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)
    label: str = ""


@dataclass
class SweepPerf:
    """What a sweep cost; attached to ``ExperimentResult.notes['sweep']``."""

    name: str = ""
    points: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1
    wall_clock_s: float = 0.0
    sim_events: int = 0  # executed this run (cache hits contribute 0)
    # Cache entries that existed but could not be loaded (corrupt pickle,
    # stale class layout, ...).  Each is re-run as a miss, but silently
    # eating the error would hide cache corruption — surface it here.
    cache_errors: list[str] = field(default_factory=list)

    @property
    def events_per_sec(self) -> float:
        return self.sim_events / self.wall_clock_s if self.wall_clock_s > 0 else 0.0

    def as_notes(self) -> dict:
        notes = {
            "name": self.name,
            "points": self.points,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "workers": self.workers,
            "wall_clock_s": round(self.wall_clock_s, 4),
            "sim_events": self.sim_events,
            "events_per_sec": round(self.events_per_sec, 1),
        }
        if self.cache_errors:
            notes["cache_errors"] = list(self.cache_errors)
        return notes

    def summary(self) -> str:
        corrupt = (
            f", {len(self.cache_errors)} corrupt cache entr"
            f"{'y' if len(self.cache_errors) == 1 else 'ies'} re-run"
            if self.cache_errors
            else ""
        )
        return (
            f"[sweep {self.name}] {self.points} points "
            f"({self.cache_hits} cached, {self.cache_misses} run{corrupt}) "
            f"in {self.wall_clock_s:.2f}s on {self.workers} worker(s); "
            f"{self.sim_events} events, {self.events_per_sec:,.0f} events/s"
        )


# ----------------------------------------------------------------------
# Configuration resolution
# ----------------------------------------------------------------------
def default_workers() -> int:
    """``REPRO_WORKERS`` env override, else one worker per CPU."""
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from None
        if value > 0:
            return value
    return os.cpu_count() or 1


def cache_enabled_default() -> bool:
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in ("0", "no", "off", "false")


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR).expanduser()


# ----------------------------------------------------------------------
# Cache keying
# ----------------------------------------------------------------------
def code_fingerprint(root: Optional[Path] = None) -> str:
    """Hash of every ``.py`` file in the repro package (or ``root``).

    Any source edit changes the fingerprint, which keys — and therefore
    invalidates — every cache entry.  Computed once per process per root.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root)
    key = str(root)
    cached = _fingerprint_cache.get(key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    # Per-process memo of a value that is identical in every process
    # (pure function of the source tree), so worker-side copies are fine.
    _fingerprint_cache[key] = fingerprint  # analyze: ok(MUT01): per-process memo of a pure value
    return fingerprint


def _canonical_kwargs(kwargs: dict) -> str:
    return repr(sorted(kwargs.items()))


def point_key(sweep_name: str, point: Point, fingerprint: str) -> str:
    digest = hashlib.sha256()
    for part in (
        f"v{_CACHE_VERSION}",
        sweep_name,
        f"{point.fn.__module__}.{point.fn.__qualname__}",
        _canonical_kwargs(point.kwargs),
        # Execution mode is part of a point's identity: a sharded run
        # (REPRO_SHARDS) must never be served a serial run's cached
        # rows, or a conformance diff would silently compare a cache
        # entry against itself.
        f"shards={shard_count_from_env(default=1)}",
        fingerprint,
    ):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / key[:2] / f"{key}.pkl"


def _cache_load(path: Path, errors: Optional[list[str]] = None) -> Optional[dict]:
    try:
        with path.open("rb") as fh:
            entry = pickle.load(fh)
    except OSError:
        return None  # no entry: an ordinary cold miss
    except Exception as error:
        # Unpickling corrupt bytes can raise nearly anything
        # (UnpicklingError, ValueError, EOFError, ImportError, ...).
        # The point is re-run either way, but the corruption is recorded
        # on the sweep result instead of vanishing.
        if errors is not None:
            errors.append(f"{path.name}: {type(error).__name__}: {error}")
        return None
    if not isinstance(entry, dict) or "value" not in entry:
        if errors is not None:
            errors.append(f"{path.name}: malformed entry (not a value dict)")
        return None
    return entry


def _cache_store(path: Path, entry: dict) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except OSError:
        pass  # a cold cache is always safe


def clear_cache(cache_dir: Optional[Path] = None) -> int:
    """Delete every cached entry; returns how many were removed."""
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    removed = 0
    if cache_dir.is_dir():
        for path in cache_dir.rglob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute_point(fn: Callable[..., Any], kwargs: dict) -> tuple[Any, int, float]:
    """Worker-side wrapper: run the point, metering simulator events."""
    events_before = events_run_total()
    started = time.perf_counter()  # analyze: ok(DET02): wall-clock perf metering only
    value = fn(**kwargs)
    return value, events_run_total() - events_before, time.perf_counter() - started  # analyze: ok(DET02): wall-clock perf metering only


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


class Sweep:
    """An ordered collection of independent points.

    >>> sweep = Sweep("demo", workers=1, cache=False)
    >>> sweep.add(pow, base=2, exp=10)
    >>> sweep.run().values
    [1024]
    """

    def __init__(
        self,
        name: str,
        workers: Optional[int] = None,
        cache: Optional[bool] = None,
        cache_dir: Optional[Path] = None,
    ):
        self.name = name
        self.workers = workers
        self.cache = cache
        self.cache_dir = cache_dir
        self.points: list[Point] = []

    def add(self, fn: Callable[..., Any], label: str = "", **kwargs: Any) -> None:
        self.points.append(Point(fn=fn, kwargs=kwargs, label=label))

    def run(self) -> "SweepOutcome":
        return run_parallel(
            self.name,
            self.points,
            workers=self.workers,
            cache=self.cache,
            cache_dir=self.cache_dir,
        )


@dataclass
class SweepOutcome:
    """Per-point results in the order the points were added, plus perf."""

    values: list
    perf: SweepPerf

    def attach(self, result) -> None:
        """Record the perf report on an ``ExperimentResult``."""
        result.notes["sweep"] = self.perf.as_notes()


def run_parallel(
    name: str,
    points: Sequence[Point],
    workers: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[Path] = None,
) -> SweepOutcome:
    """Run every point, in parallel where possible; deterministic order.

    Results come back as ``outcome.values[i]`` for ``points[i]``
    regardless of which worker finished first.  Cached points are not
    dispatched at all.
    """
    started = time.perf_counter()  # analyze: ok(DET02): wall-clock perf metering only
    workers = workers if workers is not None else default_workers()
    if workers < 1:
        workers = 1
    use_cache = cache if cache is not None else cache_enabled_default()
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()

    values: list[Any] = [None] * len(points)
    perf = SweepPerf(name=name, points=len(points))

    keys: list[Optional[str]] = [None] * len(points)
    misses: list[int] = []
    if use_cache:
        fingerprint = code_fingerprint()
        for index, pt in enumerate(points):
            key = point_key(name, pt, fingerprint)
            keys[index] = key
            entry = _cache_load(_cache_path(directory, key), perf.cache_errors)
            if entry is not None:
                values[index] = entry["value"]
                perf.cache_hits += 1
            else:
                misses.append(index)
    else:
        misses = list(range(len(points)))
    perf.cache_misses = len(misses)

    executed: dict[int, tuple[Any, int, float]] = {}
    if misses:
        # Every simulation a point runs ends in a full sweep; inside the
        # batch that sweep walks the point's own garbage, not the whole
        # process, and pool workers fork a heap no sweep will dirty.
        with batch():
            pool = _make_pool(min(workers, len(misses))) if workers > 1 and len(misses) > 1 else None
            if pool is not None:
                try:
                    futures = {
                        index: pool.submit(_execute_point, points[index].fn, points[index].kwargs)
                        for index in misses
                    }
                    # Insertion-ordered (built from `misses` above); the merge is
                    # index-keyed, so iteration order cannot reorder results.
                    for index, future in futures.items():  # analyze: ok(DET03): index-keyed merge
                        executed[index] = future.result()
                finally:
                    pool.shutdown(wait=True)
                perf.workers = min(workers, len(misses))
            else:
                for index in misses:
                    executed[index] = _execute_point(points[index].fn, points[index].kwargs)
                perf.workers = 1

    for index, (value, events, elapsed) in executed.items():  # analyze: ok(DET03): index-keyed merge
        values[index] = value
        perf.sim_events += events
        if use_cache and keys[index] is not None:
            _cache_store(
                _cache_path(directory, keys[index]),
                {"value": value, "events": events, "elapsed": elapsed, "label": points[index].label},
            )

    perf.wall_clock_s = time.perf_counter() - started  # analyze: ok(DET02): wall-clock perf metering only
    return SweepOutcome(values=values, perf=perf)


# ----------------------------------------------------------------------
# Federated (process-per-shard) execution
# ----------------------------------------------------------------------
def _resolve_spec(spec: Any) -> Callable[..., Any]:
    """Resolve a ``"module:qualname"`` string to the object it names.

    Callables pass through.  Sweep points that parameterise a federated
    run use the string form so their kwargs keep a deterministic repr
    (a function object's repr embeds a memory address, which would make
    the cache key differ on every run).
    """
    if callable(spec):
        return spec
    module_name, _, qualname = str(spec).partition(":")
    if not module_name or not qualname:
        raise ValueError(f"expected 'module:qualname' spec, got {spec!r}")
    import importlib

    target: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def run_federated(
    build: Any,
    until: float,
    collect: Any = None,
    shards: Optional[int] = None,
    seed: int = 1,
    serial: bool = False,
) -> dict:
    """Sweep-engine entry for a process-per-shard federated scenario.

    ``build`` / ``collect`` are callables or ``"module:qualname"``
    strings (use strings when this function is itself a sweep
    :class:`Point`, so the kwargs stay cache-keyable and picklable).
    Returns a plain dict — collected values in shard order plus run
    metadata — which is what lands in the sweep's rows.
    """
    from repro.sim.federation import Federation

    federation = Federation(
        _resolve_spec(build),
        shards=shards,
        seed=seed,
        collect=None if collect is None else _resolve_spec(collect),
        serial=serial,
    )
    outcome = federation.run(until=until)
    return {
        "values": outcome.shard_values,
        "mode": outcome.mode,
        "shards": outcome.shards,
        "events": outcome.events,
        "windows": outcome.windows,
        "wall_seconds": outcome.wall_seconds,
    }
