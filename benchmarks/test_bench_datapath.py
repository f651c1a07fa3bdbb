"""Datapath throughput benchmark — simulated payload bytes/sec.

The engine benchmark (``test_bench_engine.py``) measures event dispatch;
this one measures *byte shuffling*: how many simulated payload bytes the
full datapath (app pattern generation -> ByteStream -> scheduler peek ->
segments -> links -> mapping match -> DSS checksum -> reassembly ->
app read) moves per wall-clock second on a Fig-4-style bulk run over
WiFi + 3G.  It is run twice, with DSS checksums off and on, because the
checksum fold is itself a per-byte cost the zero-copy work targets.

Each run appends a machine-readable record to ``BENCH_datapath.json``
at the repo root, so the copy-elimination work is measured across PRs
rather than asserted.  Records carry a ``label`` (override with the
``REPRO_BENCH_LABEL`` environment variable) so a pre-change baseline
and a post-change run can sit side by side in the same file.
"""

import json
import os
import platform
import time
from pathlib import Path

from repro.experiments.common import THREEG, WIFI, mptcp_variant_config, run_bulk

from conftest import run_median_of_3

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_datapath.json"

DURATION = 20.0  # simulated seconds
BUFFER_BYTES = 500 * 1024
SEED = 4


def _bulk_run(checksum: bool) -> dict:
    config = mptcp_variant_config("m12", BUFFER_BYTES, checksum=checksum)
    started = time.perf_counter()
    outcome = run_bulk([WIFI, THREEG], config, DURATION, seed=SEED)
    elapsed = time.perf_counter() - started
    received = outcome.received
    return {
        "checksum": checksum,
        "received_bytes": received,
        "wall_clock_s": elapsed,
        "payload_bytes_per_sec": received / elapsed if elapsed > 0 else 0.0,
        "goodput_mbps": outcome.goodput_bps / 1e6,
    }


def _datapath() -> dict:
    plain = _bulk_run(checksum=False)
    checksummed = _bulk_run(checksum=True)
    return {
        "sim_duration_s": DURATION,
        "runs": [plain, checksummed],
        "payload_bytes_per_sec": min(
            plain["payload_bytes_per_sec"], checksummed["payload_bytes_per_sec"]
        ),
    }


def test_datapath_payload_bytes_per_sec(benchmark):
    # Median of three runs — see test_bench_engine.py; the CI ratchet
    # must not be failable by one noisy run.
    record = run_median_of_3(benchmark, _datapath, "payload_bytes_per_sec")
    record["label"] = os.environ.get("REPRO_BENCH_LABEL", "current")
    record["python"] = platform.python_version()
    record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    print()
    print("Fig-4-style bulk datapath (WiFi + 3G, m12, 500 KB buffers)")
    for run in record["runs"]:
        mode = "dss-checksum" if run["checksum"] else "no-checksum"
        print(
            f"  [{mode:>12}] {run['received_bytes']:,} payload B in "
            f"{run['wall_clock_s']:.2f}s wall -> "
            f"{run['payload_bytes_per_sec'] / 1e6:.2f} MB/s simulated, "
            f"goodput {run['goodput_mbps']:.2f} Mb/s"
        )

    print(
        f"  (median of {record['runs_measured']}: "
        f"{[round(v / 1e6, 2) for v in record['payload_bytes_per_sec_spread']]} MB/s)"
    )
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

    # Sanity floors only — the trajectory lives in the JSON history.
    for run in record["runs"]:
        assert run["received_bytes"] > 1_000_000
        assert run["payload_bytes_per_sec"] > 100_000
