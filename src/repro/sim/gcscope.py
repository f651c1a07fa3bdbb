"""The one owner of process-global garbage-collector state.

Two re-entrant scopes; nothing else under ``src/repro/`` touches
``gc.disable/enable/collect/freeze/unfreeze``.  Each puts back exactly
what it found, whatever unwinds through it.

A full sweep walks every tracked object alive in the process — modules,
code objects, harness baggage — so a run-exit sweep costs milliseconds
however few objects the run left behind.  ``batch()`` moves what was
alive on entry out of the collector's sight, so each sweep inside it is
proportional to what was allocated since.  Any loop of short runs (a
sweep, a test session, a notebook) should sit inside one.

Plain classes, not ``contextlib.contextmanager``: ``Simulator.run``
enters ``paused()`` once per call, and two slot methods are the whole
cost.
"""

from __future__ import annotations

import gc


class paused:
    """Cyclic collector off for the block; on exit back on, then one
    full sweep.  The run loop allocates segments, event tuples and
    payload views at a high rate but links none of them into cycles, so
    young-generation sweeps only add pauses while refcounting frees
    them immediately.
    A scope that finds the collector already off (an outer ``paused()``,
    or a caller's own ``gc.disable()``) does nothing."""

    __slots__ = ("_owner",)

    def __enter__(self) -> None:
        self._owner = gc.isenabled()
        if self._owner:
            gc.disable()

    def __exit__(self, *exc: object) -> None:
        if self._owner:
            gc.enable()
            gc.collect()


class batch:
    """Heap frozen for the block: sweep, then ``gc.freeze()`` on entry,
    ``gc.unfreeze()`` on exit.  Only the outermost scope acts (an
    already-frozen heap belongs to whoever froze it); forked workers
    inherit the frozen, copy-on-write-friendly heap.  A no-op on
    runtimes without ``gc.freeze``."""

    __slots__ = ("_owner",)

    def __enter__(self) -> None:
        self._owner = hasattr(gc, "freeze") and gc.get_freeze_count() == 0
        if self._owner:
            gc.collect()
            gc.freeze()

    def __exit__(self, *exc: object) -> None:
        if self._owner:
            gc.unfreeze()
