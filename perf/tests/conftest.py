"""Self-tests of the benchmark harness: ``pytest perf/tests``.

Not part of tier-1 (``pyproject.toml`` points pytest at ``tests/``); they
drive ``perf/run.py`` in ``--tiny`` mode, where every workload is scaled
to well under a second.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
sys.path[:0] = [str(PERF), str(ROOT / "src")]


def run_driver(*args: str) -> tuple[int, dict]:
    """``perf/run.py`` in driver mode -> (exit status, last-line JSON)."""
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="session")
def traced_twice():
    """Two independent traced tiny runs of two workloads."""
    runs = {}
    for name in ("bulk_2path", "many_flows_tcp"):
        runs[name] = [
            run_driver("--workload", name, "--seed", "3", "--tiny", "--trace", "1")
            for _ in range(2)
        ]
    return runs
