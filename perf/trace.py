"""Tracing from the benchmark's own process: no edits under ``src/``.

Two instruments, both kept in memory until the run ends:

* :class:`Spans` — explicit wall-clock spans recorded *around* the calls
  into the program (``workload -> repetition -> phase.build|run|collect``
  and one per simulation).  Always on; a handful of ``perf_counter``
  reads per repetition.
* :func:`profile_layers` — a ``cProfile`` hook around one whole
  repetition, folded by source file into per-layer self time, Python
  call counts and caller-layer -> callee-layer edge counts.  Only the
  traced repetition pays for it; end-to-end metrics never come from it.

C builtins are not profiled as frames (``builtins=False``): the time of
``heapq.heappush``, ``hashlib.sha1`` or ``int.from_bytes`` stays in the
self time of the layer whose code called it, which is the layer that can
stop calling it.  The one exception is the collector: the time
:class:`GcWatch` sees inside ``Network.run`` is moved from ``sim.engine``
to ``host.other`` and reported separately as ``sim.engine.gc_s``.
"""

from __future__ import annotations

import cProfile
import gc
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import layers


class Spans:
    """An in-memory span log.  Times are seconds since ``origin``."""

    def __init__(self, origin: float):
        self.origin = origin
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rep: Optional[int] = None) -> Iterator[dict]:
        record = {
            "id": len(self.records),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "rep": rep,
            "t0": time.perf_counter() - self.origin,
            "t1": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["t1"] = time.perf_counter() - self.origin

    def add(self, name: str, rep: Optional[int], t0: float, t1: float, parent: Optional[int]) -> None:
        """A span whose bounds (``perf_counter`` readings) were observed
        elsewhere, e.g. one per simulation by :class:`RunWatch`."""
        self.records.append(
            {
                "id": len(self.records),
                "parent": parent,
                "name": name,
                "rep": rep,
                "t0": t0 - self.origin,
                "t1": t1 - self.origin,
            }
        )


class RunWatch:
    """Times every ``Network.run`` call (the public entry every workload
    and every study microsimulation goes through)."""

    def __init__(self, network_cls) -> None:
        self.network_cls = network_cls
        self.calls: list[tuple[float, float]] = []
        self.active = False
        self._original = None

    def __enter__(self) -> "RunWatch":
        original = self._original = self.network_cls.run

        def run(net, *args, **kwargs):
            started = time.perf_counter()
            self.active = True
            try:
                return original(net, *args, **kwargs)
            finally:
                self.active = False
                self.calls.append((started, time.perf_counter()))

        self.network_cls.run = run
        return self

    def __exit__(self, *exc) -> None:
        self.network_cls.run = self._original


class GcWatch:
    """Counts the collector's runs *inside* ``Network.run`` and their
    wall time, via ``gc.callbacks``.  The engine pauses automatic
    collection while it runs, so these are its own run-exit
    ``gc.collect()`` calls — the cost ``sim.engine.gc_s`` names."""

    def __init__(self, run_watch: RunWatch) -> None:
        self.run_watch = run_watch
        self.collections = 0
        self.seconds = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter() if self.run_watch.active else None
        elif self._started is not None:
            self.collections += 1
            self.seconds += time.perf_counter() - self._started

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def profile_layers(fn: Callable[[], object], repro_root: str) -> dict:
    """Run ``fn`` under cProfile and fold the result by layer.

    Returns ``{"total_s", "layers": {layer: {"self_s", "py_calls"}},
    "edges": {"caller->callee": calls}}`` with every layer present.
    """
    cache: dict[str, str] = {}

    def layer(code) -> str:
        filename = code.co_filename
        found = cache.get(filename)
        if found is None:
            found = cache[filename] = layers.layer_of(filename, repro_root)
        return found

    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()

    table = {name: {"self_s": 0.0, "py_calls": 0} for name in layers.LAYERS}
    edges: dict[str, int] = {}
    total = 0.0
    for entry in profile.getstats():
        caller = layer(entry.code)
        row = table[caller]
        row["self_s"] += entry.inlinetime
        row["py_calls"] += entry.callcount
        total += entry.inlinetime
        for sub in entry.calls or ():
            callee = layer(sub.code)
            if callee != caller:
                key = f"{caller}->{callee}"
                edges[key] = edges.get(key, 0) + sub.callcount
    return {"total_s": total, "layers": table, "edges": dict(sorted(edges.items()))}
