"""Static analysis enforcing the determinism & protocol-safety contract.

The simulator's headline property — a run is a pure function of its seed
— and the single writer of each protocol state machine are both
*conventions* unless something checks them.  This package is that
something: an AST-based rule engine (stdlib :mod:`ast` only, no
third-party dependencies) that scans ``src/`` and ``examples/`` for the
patterns which historically break deterministic replay or bypass a
checked state transition.

Run it as a module::

    PYTHONPATH=src python -m repro.analyze src/ examples/
    PYTHONPATH=src python -m repro.analyze --rule DET01 --format json src/

There are no inline waivers: a comment excuses nothing.  The one
exemption is a rule's ``allow`` tuple of path suffixes, naming the
modules whose job is to own the exception (``repro/sim/rng.py`` for
DET01, ``repro/stats/wallclock.py`` for DET02).  Anything else is
fixed, not excused.

The rules are documented in :mod:`repro.analyze.rules` and in
``ARCHITECTURE.md`` ("Static analysis & the determinism contract").
"""

from repro.analyze.core import Finding, Report, run_analysis
from repro.analyze.rules import ALL_RULES, rule_by_code

__all__ = ["ALL_RULES", "Finding", "Report", "rule_by_code", "run_analysis"]
