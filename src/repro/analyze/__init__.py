"""Static analysis enforcing the determinism & protocol-safety contract.

The simulator's headline property — a run is a pure function of its seed
— and the separation of the subflow (SSN) and data (DSN) sequence spaces
are both *conventions* unless something checks them.  This package is
that something: an AST-based rule engine (stdlib :mod:`ast` only, no
third-party dependencies) that scans ``src/`` and ``examples/`` for the
patterns which historically break deterministic replay or mix the two
sequence spaces, with per-rule allowlists for the few modules whose job
is to own the exception, and inline waivers for intentional sites.

Run it as a module::

    PYTHONPATH=src python -m repro.analyze src/ examples/
    PYTHONPATH=src python -m repro.analyze --rule DET01 --format json src/

Waive an intentional finding on its own line::

    total = dsn_part + ssn_part  # analyze: ok(DOM01): the checksum folds both spaces

or waive a rule for a whole file (near the top, with a reason)::

    # analyze: file-ok(DOM01): this module converts between the two spaces

The rules are documented in :mod:`repro.analyze.rules` and in
``ARCHITECTURE.md`` ("Static analysis & the determinism contract").
"""

from repro.analyze.core import Finding, Report, run_analysis
from repro.analyze.rules import ALL_RULES, rule_by_code

__all__ = ["ALL_RULES", "Finding", "Report", "rule_by_code", "run_analysis"]
