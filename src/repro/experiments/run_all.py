"""Run the paper's figures at full scale, report every claim, and gate.

Usage::

    python -m repro.experiments.run_all [NAME ...] [--out report.md]

``NAME`` is any key of :data:`FIGURES` (all of them by default).  Each
figure's tables, scalar notes, sweep line and claims are printed as the
figure finishes, and also written to ``--out`` as one Markdown report.
Exits 1 if any claim is ``FAIL``.

Every module in :data:`FIGURES` exposes ``run(smoke=False)`` (a list of
``ExperimentResult``; ``smoke=True`` is the reduced tier-1 scale) and
``check_claims(results) -> dict[str, bool]``.
"""

from __future__ import annotations

import argparse

from repro.experiments import fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11
from repro.experiments import table_study
from repro.stats.wallclock import wall_clock

FIGURES = {
    "study": table_study,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
}


def _perf_line(result) -> str:
    """One line per sweep: points, workers, wall clock, events/sec."""
    sweep = result.notes.get("sweep")
    if not sweep:
        return ""
    return (
        f"\nsweep: {sweep['points']} points, "
        f"{sweep['workers']} worker(s), {sweep['wall_clock_s']:.2f}s wall, "
        f"{sweep['events_per_sec']:,.0f} events/s"
    )


def _section(module, results, claims: dict[str, bool]) -> tuple[str, list[str]]:
    """One figure's Markdown section (tables, scalar notes, sweep lines,
    claims) and the names of its failed claims."""
    blocks = []
    for result in results:
        scalars = [f"{key}: {value:.1f}" for key, value in result.notes.items() if isinstance(value, float)]
        blocks.append("\n".join([result.format_table(), *scalars]) + _perf_line(result))
    verdicts = [f"  claim {name}: {'PASS' if ok else 'FAIL'}" for name, ok in claims.items()]
    body = "\n\n".join(blocks) + "\n\n" + "\n".join(verdicts)
    failed = [name for name, ok in claims.items() if not ok]
    return f"## {module.__doc__.splitlines()[0]}\n\n```\n{body}\n```\n", failed


def report(module) -> tuple[str, list[str]]:
    """Run one figure at full scale: its report section and failed claims."""
    results = module.run()
    return _section(module, results, module.check_claims(results))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help=f"any of: {' '.join(FIGURES)}")
    parser.add_argument("--out", metavar="FILE", help="also write the Markdown report here")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figure(s): {' '.join(unknown)}")
    started = wall_clock()
    sections = ["# Full experiment run\n"]
    failed: list[str] = []
    for name in args.names or FIGURES:
        section, failed_claims = report(FIGURES[name])
        print(section, flush=True)
        sections.append(section)
        failed += [f"{name}:{claim}" for claim in failed_claims]
    summary = f"_total wall time: {wall_clock() - started:.0f}s; failed claims: {' '.join(failed) or 'none'}_\n"
    print(summary, end="")
    sections.append(summary)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(sections))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
