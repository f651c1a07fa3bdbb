"""One workload, measured inside its own pinned single-threaded process.

``run.py`` starts this file once per measurement with the environment
already fixed (``PYTHONHASHSEED``, ``REPRO_*``, ``PYTHONPATH``) and reads
one JSON object from the last line of stdout.  Order of work:

1. pin to one CPU, start the speed sampler, import ``repro.*``, build the
   inputs and run one scaled-down warm-up repetition (fills the
   Event/Segment pools, the pattern buffers and every lazy import) —
   ``setup_s`` ends here;
2. timed repetitions with the profile hook **off** (end-to-end metrics);
3. with ``--trace 1`` one more repetition under the profile hook, then
   the layer probes.

Timings are reported twice: raw, and *calibrated* — divided by the
slowdown the speed sampler saw over the very same interval.  The box
this runs on is a shared 2-vCPU VM whose speed moves by up to 1.7x in
spells of seconds to minutes with the neighbours' load; see
``SpeedSampler``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
import warnings

# Fraction of a full repetition the warm-up simulates.
WARMUP_SCALE = 0.1

_CAL_BUFFER = bytes(range(256)) * 4096  # 1 MiB


class SpeedSampler:
    """Measures how fast this CPU runs Python *right now*, all the time.

    A 50 Hz ``SIGALRM`` runs a fixed pure-Python probe (integer and dict
    work plus a few 9 KB ``int.from_bytes`` conversions; nothing from
    ``repro``) in the main thread and records how long it took.  The
    mean probe time over an interval, relative to ``REFERENCE_S``, is the
    slowdown that interval suffered; dividing it out turns a wall time
    into *calibrated seconds* — what the interval would have taken with
    the probe running at reference speed.  Sampling inside the interval
    is what makes this work: a calibration run before or after a
    repetition does not track spells shorter than the repetition.

    The probe costs about 0.2 ms per tick (1 % of the interval); its own
    time is subtracted before scaling.
    """

    HZ = 50.0
    # The probe's duration on this box when nothing else disturbs it.
    REFERENCE_S = 180e-6
    # Below this many samples an interval is reported uncalibrated.
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._state = 1

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        index = self._state
        total = 0
        table: dict[int, int] = {}
        for i in range(1200):
            total += i & 7
            table[i & 63] = total
            if not i & 127:
                index = (index * 1103515245 + 12345) & 0xFFFF
                offset = (index << 4) & 0xFBFFF
                total += int.from_bytes(_CAL_BUFFER[offset : offset + 8960], "big") & 1
        self._state = index
        self._samples.append(time.perf_counter() - started)

    def start(self) -> None:
        # Let the interpreter specialise the probe's bytecode first, or
        # the earliest samples read slow on any machine.
        for _ in range(16):
            self._tick(None, None)
        self._samples.clear()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1 / self.HZ, 1 / self.HZ)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        return len(self._samples)

    def since(self, mark: int) -> list[float]:
        return self._samples[mark:]

    @classmethod
    def calibrate(cls, raw_s: float, samples: list[float]) -> dict:
        """``raw_s`` of wall time during which ``samples`` were taken ->
        calibrated seconds, with the evidence."""
        if len(samples) < cls.MIN_SAMPLES:
            return {"calibrated_s": raw_s, "probe_samples": len(samples), "slowdown": None}
        # Each tick stands for 1/HZ of wall time during which work ran
        # at REFERENCE_S / sample of reference speed; the calibrated time
        # is their sum, i.e. raw time over the *harmonic* mean slowdown.
        # (A preempted tick, however long, then counts as one slow slice
        # instead of dragging an arithmetic mean.)
        speed = statistics.fmean(cls.REFERENCE_S / sample for sample in samples)
        return {
            "calibrated_s": (raw_s - sum(samples)) * speed,
            "probe_samples": len(samples),
            "slowdown": 1 / speed,
        }


def _pin() -> list[int]:
    """Pin to the highest-numbered allowed CPU (CPU 0 takes most of the
    box's interrupts); returns the resulting affinity."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        return sorted(os.sched_getaffinity(0))
    except OSError:
        return []


def _run_rep(cls, seed: int, scale: float, rep: int, spans, sampler, profile_root=None) -> dict:
    """One repetition: build, run, collect — timed as a whole and by
    phase.  With ``profile_root`` the three phases run under the profile
    hook (and without the speed sampler) and the layer table is
    attached."""
    import trace as tracing
    from repro.net.network import Network
    from repro.sim.engine import events_run_total

    gc.collect()
    state: dict = {}

    def phases() -> None:
        with spans.span("phase.build", rep) as build:
            scenario = cls(seed, scale)
        with spans.span("phase.run", rep) as run:
            scenario.run()
        with spans.span("phase.collect", rep) as collect:
            state["outcome"] = scenario.collect()
        state["phases"] = (build, run, collect)

    record: dict = {"rep": rep, "traced": profile_root is not None}
    events_before = events_run_total()
    cpu_before = time.process_time()
    run_watch = tracing.RunWatch(Network)
    gc_watch = tracing.GcWatch(run_watch)
    mark = sampler.mark()
    try:
        with gc_watch, run_watch, spans.span("repetition", rep) as whole:
            if profile_root is None:
                phases()
            else:
                profile = record["profile"] = tracing.profile_layers(phases, profile_root)
                # The engine's run-exit gc.collect() is the collector's
                # cost, not dispatch: see trace.py.
                profile["layers"]["sim.engine"]["self_s"] -= gc_watch.seconds
                profile["layers"]["host.other"]["self_s"] += gc_watch.seconds
    except Exception:  # the boundary that must keep running: a failed op, not a failed harness
        record.update(error=traceback.format_exc(), ops=1, failed=1, digest=None)
        return record
    samples = sampler.since(mark)
    outcome = state["outcome"]
    build, run, collect = state["phases"]
    wall = SpeedSampler.calibrate(whole["t1"] - whole["t0"], samples)
    record.update(
        wall_s=wall["calibrated_s"],
        wall_raw_s=whole["t1"] - whole["t0"],
        slowdown=wall["slowdown"],
        probe_samples=wall["probe_samples"],
        cpu_s=time.process_time() - cpu_before,
        build_s=build["t1"] - build["t0"],
        run_s=run["t1"] - run["t0"],
        collect_s=collect["t1"] - collect["t0"],
        events=events_run_total() - events_before,
        run_calls=len(run_watch.calls),
        gc_collections=gc_watch.collections,
        gc_s=gc_watch.seconds,
        ops=outcome.ops,
        failed=outcome.failed,
        payload_bytes=outcome.payload_bytes,
        digest=outcome.digest(),
        counts=outcome.counts,
        extras=outcome.extras,
    )
    # One span per microsimulation: a microsim is `per` consecutive
    # simulations (its TCP and MPTCP cases), each bounded by the public
    # Network.run the study drives them through.
    calls = run_watch.calls
    if len(calls) > 1 and outcome.ops and len(calls) % outcome.ops == 0:
        per = len(calls) // outcome.ops
        previous = spans.origin + run["t0"]
        durations = []
        for index in range(per - 1, len(calls), per):
            end = calls[index][1]
            spans.add("microsim", rep, previous, end, parent=run["id"])
            durations.append((end - previous) * 1e3)
            previous = end
        record["microsim_ms"] = durations
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-reps", type=int, default=2)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    affinity = _pin()
    sampler = SpeedSampler()
    sampler.start()
    # Attaching the oracle turns pooling off by design; the program says
    # so once per process, which is noise in a benchmark log.
    warnings.filterwarnings("ignore", message="Event recycling disabled")

    import repro
    import trace as tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    spans = tracing.Spans(time.perf_counter())
    result: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "affinity": affinity,
    }
    with spans.span("workload") as top:
        top["workload"] = args.workload
        with spans.span("warmup"):
            warm = _run_rep(cls, args.seed, args.scale * WARMUP_SCALE, -1, spans, sampler)
        setup_raw = time.time() - args.spawned_at
        setup = SpeedSampler.calibrate(setup_raw, sampler.since(0))
        result["setup_s"] = setup["calibrated_s"]
        result["setup_raw_s"] = setup_raw
        result["setup_slowdown"] = setup["slowdown"]
        result["warmup_error"] = warm.get("error")
        if not args.setup_only:
            reps = result["reps"] = []
            started = time.perf_counter()
            while True:
                reps.append(_run_rep(cls, args.seed, args.scale, len(reps), spans, sampler))
                if len(reps) == 1:
                    # After exactly one full repetition, so the figure
                    # does not depend on how many fitted in --seconds.
                    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                elapsed = time.perf_counter() - started
                slowest = max(r.get("wall_raw_s", 0.0) for r in reps)
                if len(reps) >= args.min_reps and elapsed + slowest > args.seconds:
                    break
            if args.trace:
                # The profile hook would time the sampler's probe too.
                sampler.stop()
                repro_root = os.path.dirname(os.path.abspath(repro.__file__))
                result["traced"] = _run_rep(
                    cls, args.seed, args.scale, len(reps), spans, sampler, repro_root
                )
                if cls.baseline:
                    base = _run_rep(
                        workloads.WORKLOADS[cls.baseline], args.seed, args.scale, -2, spans, sampler
                    )
                    result["baseline_wall_s"] = base.get("wall_raw_s")
                import probes

                result["probes"], result["probes_unavailable"] = probes.run_all()
    sampler.stop()
    result["spans"] = spans.records
    sys.stdout.flush()
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
