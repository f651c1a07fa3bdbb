"""Capture deterministic experiment rows for before/after comparison.

Runs every figure of ``repro.experiments.run_all.FIGURES`` at its smoke
scale (``run(smoke=True)``, the tier-1 scale) and dumps the rows as
canonical JSON, keyed by figure name (``fig6a``/``fig6b``/``fig6c`` for
a multi-panel figure).  Fig. 10's timed columns are left out: only its
counted ones are deterministic.  Two captures taken before and after a
performance change must be byte-identical — this is the conformance gate
for hot-path work (the rows are pure functions of the seed, so any drift
means the change altered simulation behaviour).

Usage::

    REPRO_WORKERS=1 PYTHONPATH=src python -m repro.check.rows out.json
    cmp before.json after.json
"""

from __future__ import annotations

import json
import string
import sys

# Fig. 10 times the accept path in real seconds: these columns are not
# deterministic, its other columns are.
WALL_CLOCK = {"fig10": ("mean_us", "p50_us", "p90_us")}


def capture() -> dict:
    from repro.experiments.run_all import FIGURES

    out: dict[str, object] = {}
    for name, module in FIGURES.items():
        timed = WALL_CLOCK.get(name, ())
        results = module.run(smoke=True)
        for panel, result in zip(string.ascii_lowercase, results):
            rows = [{k: row[k] for k in sorted(row) if k not in timed} for row in result.rows]
            out[name if len(results) == 1 else name + panel] = rows
    return out


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "rows.json"
    rows = capture()
    with open(out_path, "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True, default=repr)
        fh.write("\n")
    total = sum(len(v) for v in rows.values())
    print(f"captured {total} rows from {len(rows)} experiments -> {out_path}")


if __name__ == "__main__":
    main()
