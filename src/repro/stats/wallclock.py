"""Wall-clock metering, kept apart from everything simulated.

Simulated time is ``Simulator.now``; a reading of the host's clock
differs between runs and machines, so none may feed a result that
replay compares.  This module holds the one clock the code base reads,
and only to meter how long the host took: the sweep engine's
``wall_clock_s``, the study's paths/s, ``run_all``'s total and Fig. 10's
SYN-processing latency — the one experiment whose measured quantity is
wall-clock time by design.  It is the only module outside the linter
that DET02 lets read a clock.
"""

import time

# Monotonic, high-resolution seconds; only differences are meaningful.
wall_clock = time.perf_counter
