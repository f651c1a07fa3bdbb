"""Fig. 11 — Apache-style HTTP benchmark (§5.3).

100 closed-loop clients fetch files of a given size over two parallel
links; requests/second is plotted against file size for:

* **regular TCP** — one link only,
* **bonding TCP** — plain TCP over both links, bonded below the
  transport (per-flow assignment, as discussed in §5.3),
* **MPTCP** — one connection with a subflow per link.

The paper's shape: below ~30 KB MPTCP loses to TCP (subflow
establishment overhead on connections that finish in slow start); above
~100 KB it serves about twice the requests; the MPTCP-vs-bonding
crossover appears around 150 KB, where bonding starts colliding whole
flows on one link.

Rates are scaled from the paper's 2 x 1 Gb/s to 2 x 40 Mb/s (requests/s
scales proportionally; the crossovers are in file-size terms and are
preserved).
"""

from __future__ import annotations

from repro.apps.bonding import bond_interfaces
from repro.apps.http import HTTPLoadGenerator, HTTPServerApp
from repro.experiments.common import (
    ExperimentResult,
    PathSpec,
    build_multipath_network,
    open_client,
    open_listener,
)
from repro.experiments.runner import Point, run_parallel
from repro.mptcp.connection import MPTCPConfig

LINK_RATE = 40e6
LINK_DELAY = 0.002
LINK = PathSpec(rate_bps=LINK_RATE, rtt=2 * LINK_DELAY)
DEFAULT_SIZES_KB = (4, 10, 30, 60, 100, 150, 200, 300)
MODES = ("tcp", "bonding", "mptcp")


def _run(mode: str, size: int, concurrency: int, duration: float, seed: int) -> float:
    """Requests/s of ``concurrency`` closed-loop clients in one mode."""
    config = MPTCPConfig(checksum=False) if mode == "mptcp" else None
    if mode == "mptcp":  # a subflow per link, one address per link on both sides
        ends = [("10.0.0.1", "10.99.0.1"), ("10.1.0.1", "10.99.1.1")]
        net, client, server = build_multipath_network([LINK, LINK], seed, ends)
    elif mode == "bonding":  # both links between one interface pair
        net, client, server = build_multipath_network([], seed)
        link = {"rate_bps": LINK_RATE, "delay": LINK_DELAY}
        bond_interfaces(
            net, client, "10.0.0.1", server, "10.99.0.1", links=[link, link], mode="per-flow"
        )
    else:
        net, client, server = build_multipath_network([LINK], seed)
    app = HTTPServerApp()
    open_listener(server, config, app.on_accept)
    generator = HTTPLoadGenerator(
        net.sim, lambda: open_client(client, server, config), size, concurrency
    )
    generator.start()
    net.run(until=duration)
    return generator.requests_per_second()


def run_fig11(
    sizes_kb=DEFAULT_SIZES_KB,
    concurrency: int = 100,
    duration: float = 10.0,
    seed: int = 11,
) -> ExperimentResult:
    result = ExperimentResult("Fig. 11 — HTTP requests/s vs transfer size (100 clients)")
    points = [
        Point(
            _run,
            {"mode": mode, "size": kb * 1024, "concurrency": concurrency,
             "duration": duration, "seed": seed},
        )
        for kb in sizes_kb
        for mode in MODES
    ]
    outcome = run_parallel("fig11", points)
    values = iter(outcome.values)
    for kb in sizes_kb:
        result.add(size_kb=kb, **{f"{mode}_rps": next(values) for mode in MODES})
    outcome.attach(result)
    return result


def run(smoke: bool = False) -> list[ExperimentResult]:
    return [run_fig11(sizes_kb=(64,), duration=6.0) if smoke else run_fig11()]


def check_claims(results: list[ExperimentResult]) -> dict[str, bool]:
    (result,) = results
    rows = {row["size_kb"]: row for row in result.rows}
    small = min(rows)
    large = [kb for kb in rows if kb >= 100]
    return {
        # Small files: the extra subflow costs more than it helps.
        "small_files_favor_tcp": rows[small]["mptcp_rps"] <= rows[small]["tcp_rps"],
        # Large files: MPTCP roughly doubles single-link TCP.
        "mptcp_doubles_tcp_large": all(
            rows[kb]["mptcp_rps"] >= 1.6 * rows[kb]["tcp_rps"] for kb in large
        ),
        # Bonding does well at small sizes (it pays no setup cost).
        "bonding_strong_small": rows[small]["bonding_rps"] >= rows[small]["mptcp_rps"],
        # MPTCP at least matches bonding at the largest sizes.
        "mptcp_matches_bonding_large": any(
            rows[kb]["mptcp_rps"] >= 0.9 * rows[kb]["bonding_rps"] for kb in large
        ),
    }
