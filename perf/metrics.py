"""The metric catalogue: names, units, directions and bounds.

``BENCHMARK.json`` at the repository root lists exactly these (a
self-test keeps the two in step).  End-to-end metrics are host-side
costs a user of the simulator waits for or pays; per-layer metrics have
no bound and exist to say *where* an end-to-end change came from.
"""

from __future__ import annotations

import statistics

import layers
import probes
import workloads

# How long one driver run measures (``--seconds``); see README.md for
# the budget this is cut from.
RUN_SECONDS = 12

# name -> (unit, better, bound).  ``bound`` is the share of the parent's
# median by which the metric may worsen before it counts as a
# regression.  The two timings are in calibrated seconds (README.md) and
# still carry the widest bound the contract allows: this shared 2-vCPU
# box changes speed by up to 1.7x with its neighbours' load, calibration
# removes about two thirds of that, and a bound inside the remaining
# noise would reject unchanged code.  Memory repeats to within half a
# percent.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
}

# The ledger prints a fourth metric beside these, ``fail_share`` (ratio,
# bound 0: any failed operation is a regression).  It is not in
# BENCHMARK.json, whose end-to-end metrics must never read 0; the
# driver's result line carries ``attempted``/``failed`` instead.

ENGINE_COUNTS = ("sim.engine.events", "sim.engine.run_calls", "sim.engine.gc_collections")

# Exact counts: identical across processes for a given seed, so two
# commits compare for equality, not within a noise bound.
EXACT = (
    *(f"{layer}.py_calls" for layer in layers.LAYERS),
    *ENGINE_COUNTS,
    *workloads.COUNT_NAMES,
)

_HIGHER = {
    "mptcp.connection.useful_share",
    "sim.engine.events_per_s",
    "host.payload_mb_per_s",
    "study.paths_per_s",
}

_TIMED = {
    "sim.engine.gc_s": "s",
    "sim.engine.events_per_s": "1/s",
    "host.cpu_s": "s",
    "host.payload_mb_per_s": "MB/s",
    "phase.build_s": "s",
    "phase.run_s": "s",
    "study.sample_s": "s",
    "study.microsim_ms_p50": "ms",
    "study.microsim_ms_p95": "ms",
    "study.paths_per_s": "1/s",
    "check.oracle_slowdown": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _per_layer() -> dict:
    table: dict[str, tuple[str, str]] = {}
    for layer in layers.LAYERS:
        table[f"{layer}.self_share"] = ("ratio", "lower")
        table[f"{layer}.py_calls"] = ("count", "lower")
    for name in (*ENGINE_COUNTS, *workloads.COUNT_NAMES):
        unit = "ratio" if name.endswith("_share") else "count"
        table[name] = (unit, "higher" if name in _HIGHER else "lower")
    for name, unit in _TIMED.items():
        table[name] = (unit, "higher" if name in _HIGHER else "lower")
    for name in probes.PROBES:
        table[name] = (probes.UNITS[name], "lower")
    return table


# name -> (unit, better)
PER_LAYER = _per_layer()


def quartiles(values: list[float]) -> tuple[float, float]:
    """``(q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def benchmark_manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": cls.name, "why": cls.why} for cls in workloads.WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
