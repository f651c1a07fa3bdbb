"""DET02 fixture: wall-clock reads."""

import time
from time import perf_counter  # line 4: DET02 (import from)
from datetime import datetime


def bad_time() -> float:
    return time.time()  # line 9: DET02


def bad_datetime():
    return datetime.now()  # line 13: DET02


def commented() -> float:
    return time.monotonic()  # analyze: ok(DET02): a comment cannot waive — line 17: DET02


def fine(sim) -> float:
    return sim.now
