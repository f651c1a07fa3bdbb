"""Measurement utilities: goodput/throughput meters, time-weighted
memory sampling, histogram/PDF helpers, and the CPU cost parameters for
the Fig. 3 (checksum overhead) and Fig. 8 (receive-algorithm load)
reproductions."""

from repro.stats.metrics import (
    GoodputMeter,
    Histogram,
    MemorySampler,
    pdf_from_samples,
)
from repro.stats.cpu import CPUModelParams
from repro.stats.bootstrap import (
    bootstrap_histogram_mean_ci,
    bootstrap_proportion_ci,
    histogram_mean,
    wilson_interval,
)

__all__ = [
    "bootstrap_histogram_mean_ci",
    "bootstrap_proportion_ci",
    "histogram_mean",
    "wilson_interval",
    "GoodputMeter",
    "MemorySampler",
    "Histogram",
    "pdf_from_samples",
    "CPUModelParams",
]
