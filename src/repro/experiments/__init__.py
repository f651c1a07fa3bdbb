"""Experiment harnesses: one module per table/figure of the paper.

Every figure module exposes ``run(smoke=False)`` returning a list of
:class:`~repro.experiments.common.ExperimentResult` (rows of named
values; ``smoke=True`` is the reduced tier-1 scale) and
``check_claims(results)``, the paper's claims as named booleans.
``run_all`` holds the registry, prints every table and claim, and exits 1
if a claim fails::

    python -m repro.experiments.run_all fig4
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]
