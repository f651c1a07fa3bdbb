"""§3 — The middlebox study table and the deployability headline.

Reproduces, over the enumerated 142-path population (per port column):

* the behaviour-rate table (option stripping, ISN rewriting, hole
  blocking, ACK mishandling) — by construction of the population;
* the outcome table — run with the real protocol code over every
  distinct path signature, weighted by how many paths share it:

  - plain TCP completes on 100% of paths,
  - MPTCP completes on 100% of paths (negotiating multipath where the
    path allows, falling back to TCP where it does not): the paper's
    deployability bar,
  - the §3 strawman (one TCP sequence space striped over two paths)
    breaks on roughly a third of paths.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.study.generative import paper_population
from repro.study.scale import count_paths, simulate_signatures


def run_table_study(
    port80: bool = False,
    seed: int = 2012,
    include_strawman: bool = True,
) -> ExperimentResult:
    population = paper_population(port80=port80, seed=seed)
    counts = count_paths(population)
    folded, sweep = simulate_signatures(
        "paper2011-port80" if port80 else "paper2011",
        counts["signatures"],
        seed,
        include_strawman=include_strawman,
    )
    n = len(population)
    column = "port 80" if port80 else "other ports"
    result = ExperimentResult(f"§3 middlebox study ({column}, {n} paths)")
    marginals, outcomes = counts["marginals"], folded["outcomes"]
    rows = [
        ("paths with strip_syn_options", 14.0 if port80 else 6.0, marginals["strip_syn_options"]),
        ("paths with isn_rewrite", 18.0 if port80 else 10.0, marginals["isn_rewrite"]),
        ("paths with hole_block", 11.0 if port80 else 5.0, marginals["hole_block"]),
        ("paths with ack_mishandle", 33.0 if port80 else 26.0, marginals["ack_mishandle"]),
        ("TCP completed", 100.0, outcomes["tcp_completed"]),
        ("MPTCP completed", 100.0, outcomes["mptcp_completed"]),
        ("MPTCP used multipath", None, outcomes["mptcp_used_multipath"]),
        ("MPTCP fell back to TCP", None, outcomes["mptcp_fell_back"]),
    ]
    if include_strawman:
        # "a third of paths will break such connections"
        rows.append(("strawman striping broken", 33.0, n - outcomes["strawman_ok"]))
    for metric, paper_pct, count in rows:
        result.add(metric=metric, paper_pct=paper_pct, measured_pct=100.0 * count / n)
    result.notes["sweep"] = sweep
    return result


def run(smoke: bool = False) -> list[ExperimentResult]:
    """Both port columns; the other-ports column alone at smoke scale."""
    return [run_table_study(port80=port80) for port80 in ((False,) if smoke else (False, True))]


def check_claims(results: list[ExperimentResult]) -> dict[str, bool]:
    """Each claim must hold in every column."""
    columns = [{row["metric"]: row["measured_pct"] for row in result.rows} for result in results]
    return {
        "tcp_always_works": all(c["TCP completed"] == 100.0 for c in columns),
        "mptcp_always_works": all(c["MPTCP completed"] == 100.0 for c in columns),
        "strawman_breaks_about_a_third": all(
            20.0 <= c["strawman striping broken"] <= 50.0 for c in columns
        ),
    }
