"""Seeded interval estimation for the population-scale study.

The scale study (``repro.study.scale``) streams 10^5–10^6 per-path
outcomes into counters, so interval estimates must work from counts, not
sample vectors.  Two flavours:

* :func:`wilson_interval` — closed-form binomial score interval; what
  the statistical regression tests use to check that sampled behaviour
  rates land where the :class:`~repro.study.generative.PopulationSpec`
  says they should.
* ``bootstrap_*`` — seeded percentile-bootstrap intervals.  Resampling a
  million Bernoulli draws a thousand times in pure Python is off the
  table, so resampled counts are drawn from the normal approximation to
  the binomial (exact Bernoulli resampling below ``_EXACT_N``); with a
  :class:`~repro.sim.rng.SeededRNG` stream the intervals are a pure
  function of the counts and the seed, which keeps STUDY_scale.json
  byte-identical across runs and drivers.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.sim.rng import SeededRNG

# z-scores for the usual two-sided confidence levels.
Z_SCORES = {0.90: 1.6448536269514722, 0.95: 1.959963984540054, 0.99: 2.5758293035489004}

# Below this many trials the bootstrap resamples exact Bernoulli draws;
# above, the normal approximation to the binomial (np(1-p) is plenty
# large for every rate the study reports at that scale).
_EXACT_N = 512

# Every bootstrap interval is a 95% one from 800 resamples.
_CONFIDENCE = 0.95
_RESAMPLES = 800


def z_score(confidence: float) -> float:
    z = Z_SCORES.get(round(confidence, 4))
    if z is None:
        raise ValueError(
            f"confidence must be one of {sorted(Z_SCORES)}, got {confidence!r}"
        )
    return z


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.99
) -> tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    z = z_score(confidence)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def _resample_count(rng: SeededRNG, successes: int, trials: int) -> int:
    """One bootstrap resample of a count out of ``trials``."""
    p = successes / trials
    if trials <= _EXACT_N:
        return sum(1 for _ in range(trials) if rng.random() < p)
    sigma = math.sqrt(trials * p * (1.0 - p))
    value = int(round(trials * p + sigma * rng.gauss()))
    return min(trials, max(0, value))


def _percentiles(values: list[float], alpha: float) -> tuple[float, float]:
    ordered = sorted(values)
    n = len(ordered)

    def at(q: float) -> float:
        position = q * (n - 1)
        lo = int(math.floor(position))
        hi = min(n - 1, lo + 1)
        frac = position - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    return (at(alpha / 2), at(1 - alpha / 2))


def bootstrap_proportion_ci(
    successes: int, trials: int, seed: int = 0, name: str = "proportion"
) -> tuple[float, float]:
    """Seeded percentile-bootstrap interval for ``successes/trials``."""
    if trials <= 0:
        return (0.0, 1.0)
    if successes in (0, trials):
        # Degenerate resampling distribution; fall back to the score
        # interval, which handles the boundary correctly.
        return wilson_interval(successes, trials, confidence=_CONFIDENCE)
    rng = SeededRNG(seed, f"bootstrap-{name}")
    draws = [
        _resample_count(rng, successes, trials) / trials for _ in range(_RESAMPLES)
    ]
    return _percentiles(draws, 1.0 - _CONFIDENCE)


def bootstrap_histogram_mean_ci(
    counts: Mapping[float, int], seed: int = 0, name: str = "histogram"
) -> Optional[tuple[float, float]]:
    """Bootstrap interval for the mean of a binned distribution.

    ``counts`` maps a bin's representative value to its occupancy (the
    streaming counters never keep raw samples).  Each resample redraws
    every bin count from its marginal binomial and re-normalises — the
    standard multinomial bootstrap, bin by bin.
    """
    total = sum(counts.values())
    if total <= 0:
        return None
    rng = SeededRNG(seed, f"bootstrap-{name}")
    bins = sorted(counts.items())
    means = []
    for _ in range(_RESAMPLES):
        weighted = 0.0
        drawn = 0
        for value, count in bins:
            resampled = _resample_count(rng, count, total)
            weighted += value * resampled
            drawn += resampled
        means.append(weighted / drawn if drawn else 0.0)
    return _percentiles(means, 1.0 - _CONFIDENCE)


def histogram_mean(counts: Mapping[float, int]) -> Optional[float]:
    total = sum(counts.values())
    if total <= 0:
        return None
    return sum(value * count for value, count in counts.items()) / total
