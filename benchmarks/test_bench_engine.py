"""Engine throughput benchmark — events/sec on a canonical transfer.

The canonical workload is a 2-subflow MPTCP bulk transfer over the
WiFi + 3G scenario (the Fig. 4 topology): it exercises the scheduler,
both congestion controllers, the reassembly queues and the
retransmission / delayed-ACK timers — i.e. every hot path the fast-path
work targets.

Besides the printed summary, the run appends a machine-readable record
to ``BENCH_engine.json`` at the repo root so successive runs can be
compared (the CI smoke job reads it back as a sanity check).
"""

import json
import os
import platform
import time
from pathlib import Path

from repro.experiments.common import THREEG, WIFI, mptcp_variant_config, run_bulk
from repro.sim.engine import events_run_total

from conftest import run_median_of_3

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

DURATION = 20.0  # simulated seconds
BUFFER_BYTES = 500 * 1024
SEED = 4


def _canonical_transfer():
    config = mptcp_variant_config("m12", BUFFER_BYTES)
    before = events_run_total()
    started = time.perf_counter()
    outcome = run_bulk([WIFI, THREEG], config, DURATION, seed=SEED)
    elapsed = time.perf_counter() - started
    events = events_run_total() - before
    return {
        "events": events,
        "wall_clock_s": elapsed,
        "events_per_sec": events / elapsed if elapsed > 0 else 0.0,
        "sim_duration_s": DURATION,
        "goodput_mbps": outcome.goodput_bps / 1e6,
    }


def test_engine_events_per_sec(benchmark):
    # Median of three runs: the CI perf ratchet reads this record, and a
    # single scheduling hiccup must not be able to fail the floor.
    record = run_median_of_3(benchmark, _canonical_transfer, "events_per_sec")
    record["label"] = os.environ.get("REPRO_BENCH_LABEL", "current")
    record["python"] = platform.python_version()
    record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    print()
    print("canonical 2-subflow bulk transfer (WiFi + 3G, m12, 500 KB buffers)")
    print(f"  simulated {record['sim_duration_s']:.0f}s in {record['wall_clock_s']:.2f}s wall")
    print(f"  {record['events']:,} events -> {record['events_per_sec']:,.0f} events/s")
    print(f"  (median of {record['runs_measured']}: {record['events_per_sec_spread']})")
    print(f"  goodput {record['goodput_mbps']:.2f} Mb/s")

    history = []
    if BENCH_JSON.exists():
        try:
            history = json.loads(BENCH_JSON.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    BENCH_JSON.write_text(json.dumps(history, indent=2) + "\n")
    print(f"  appended to {BENCH_JSON.name} ({len(history)} record(s))")

    # Sanity floor, far below any plausible machine: the transfer must
    # actually run and the engine must process real event volume.
    assert record["events"] > 50_000
    assert record["events_per_sec"] > 1_000
