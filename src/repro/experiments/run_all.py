"""Run every experiment at full scale and write a consolidated report.

Usage::

    python -m repro.experiments.run_all [report.md]

This is the long-form counterpart to ``pytest benchmarks/``: full
sweeps, full study population, a single Markdown report with every
table and every claim check.
"""

from __future__ import annotations

import sys
import time

from repro.experiments import fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11
from repro.experiments import table_study


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


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


def _claims_line(claims: dict) -> str:
    return "\n".join(
        f"  claim {name}: {'PASS' if ok else 'FAIL'}" for name, ok in claims.items()
    )


def run_all() -> str:
    sections: list[str] = ["# Full experiment run\n"]
    started = time.time()

    def note(label):
        print(f"[{time.time()-started:7.1f}s] {label}...", flush=True)

    note("§3 study (both columns, full 142 paths)")
    for port80 in (False, True):
        result = table_study.run_table_study(port80=port80)
        claims = table_study.check_claims(result)
        sections.append(
            _section(result.name, result.format_table() + _perf_line(result) + "\n" + _claims_line(claims))
        )

    note("Fig. 3")
    result = fig3.run_fig3()
    sections.append(
        _section(
            result.name,
            result.format_table(["mss", "checksum", "goodput_gbps"])
            + f"\njumbo penalty: {result.notes['jumbo_penalty_pct']:.1f}%"
            + _perf_line(result),
        )
    )

    note("Fig. 4")
    result = fig4.run_fig4()
    sections.append(
        _section(result.name, result.format_table() + _perf_line(result) + "\n" + _claims_line(fig4.check_claims(result)))
    )

    note("Fig. 5")
    result = fig5.run_fig5()
    sections.append(
        _section(result.name, result.format_table() + _perf_line(result) + "\n" + _claims_line(fig5.check_claims(result)))
    )

    note("Fig. 6 (three panels)")
    panel_a, panel_b, panel_c = fig6.run_panel_a(), fig6.run_panel_b(), fig6.run_panel_c()
    claims = fig6.check_claims(panel_a, panel_b, panel_c)
    body = "\n\n".join(p.format_table() + _perf_line(p) for p in (panel_a, panel_b, panel_c))
    sections.append(_section("Fig. 6 — panels a/b/c", body + "\n" + _claims_line(claims)))

    note("Fig. 7")
    result = fig7.run_fig7()
    sections.append(
        _section(result.name, result.format_table() + _perf_line(result) + "\n" + _claims_line(fig7.check_claims(result)))
    )

    note("Fig. 8")
    result = fig8.run_fig8()
    sections.append(
        _section(
            result.name,
            result.format_table()
            + f"\nTCP baseline: {result.notes['tcp_baseline_pct']:.1f}%"
            + _perf_line(result) + "\n"
            + _claims_line(fig8.check_claims(result)),
        )
    )

    note("Fig. 9")
    result = fig9.run_fig9()
    sections.append(
        _section(result.name, result.format_table() + _perf_line(result) + "\n" + _claims_line(fig9.check_claims(result)))
    )

    note("Fig. 10")
    result = fig10.run_fig10()
    sections.append(
        _section(result.name, result.format_table() + _perf_line(result) + "\n" + _claims_line(fig10.check_claims(result)))
    )

    note("Fig. 11")
    result = fig11.run_fig11()
    sections.append(
        _section(result.name, result.format_table() + _perf_line(result) + "\n" + _claims_line(fig11.check_claims(result)))
    )

    sections.append(f"\n_total wall time: {time.time()-started:.0f}s_\n")
    return "\n".join(sections)


def main() -> None:
    report = run_all()
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as handle:
            handle.write(report)
        print(f"report written to {sys.argv[1]}")
    else:
        print(report)


if __name__ == "__main__":
    main()
