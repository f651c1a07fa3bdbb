"""Fig. 10 — Connection-establishment latency (§5.2).

The measured quantity is the *server's* SYN → SYN/ACK processing delay:
plain TCP does almost nothing; MPTCP must hash the client's key,
generate its own key and verify that the key's token is unique among
all established connections — so the delay grows with the size of the
connection table (the "100 conn" / "1000 conn" curves).

This is the one experiment measured in real wall-clock time: it times
our actual accept path (listener dispatch → key/token generation →
uniqueness check → SYN/ACK construction) with the token table
pre-populated.  Absolute microseconds are Python-not-kernel; the
reproduction targets the ordering.  The growth with table size is
claimed on counted work instead — token-table entries compared per
accept — because timing noise is larger than that growth.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    PathSpec,
    build_multipath_network,
    open_listener,
)
from repro.experiments.runner import Point, run_parallel
from repro.mptcp.connection import MPTCPConfig
from repro.mptcp.keys import host_tokens
from repro.mptcp.options import MPCapable
from repro.net.packet import SYN, Endpoint, Segment
from repro.stats.metrics import Histogram
from repro.stats.wallclock import wall_clock

LINK = PathSpec(rate_bps=1e9, rtt=0.0002)


def _measure(
    mptcp: bool, preestablished: int, attempts: int, seed: int, key_pool: int = 0
) -> tuple[list[float], int]:
    """SYN→SYN/ACK processing times, in seconds (wall clock), and the
    token-table entries the accepts compared (counted, deterministic)."""
    net, _, server = build_multipath_network([LINK], seed=seed)
    listener = open_listener(server, MPTCPConfig() if mptcp else None, None)
    tokens = host_tokens(server) if mptcp else None
    if tokens is not None:
        for _ in range(preestablished):
            _key, token = tokens.generate_unique_key()
            tokens.register(token, object())  # placeholder conn
        if key_pool:
            tokens.precompute_keys(key_pool)
    compared_before = tokens.entries_compared if tokens is not None else 0
    rng = net.rng.fork("syn-gen")
    delays: list[float] = []
    for attempt in range(attempts):
        options: list = []
        if mptcp:
            options = [MPCapable(sender_key=rng.getrandbits(64))]
        syn = Segment(
            src=Endpoint("10.0.0.1", 10000 + attempt),
            dst=Endpoint("10.99.0.1", 80),
            seq=rng.getrandbits(32),
            flags=SYN,
            window=0xFFFF,
            options=options,
        )
        begin = wall_clock()
        listener.segment_arrives(syn)
        delays.append(wall_clock() - begin)
        # Close immediately (the paper closes each connection before the
        # next attempt): abort the half-open connection, which for MPTCP
        # also takes its token out of the table.
        sink = server.connection_sink(syn.dst, syn.src)
        if sink is not None:
            getattr(sink, "connection", sink).abort()
    return delays, (tokens.entries_compared - compared_before if tokens is not None else 0)


def run_fig10(attempts: int = 2000, seed: int = 10) -> ExperimentResult:
    result = ExperimentResult("Fig. 10 — SYN -> SYN/ACK processing delay (wall clock)")
    configurations = [
        ("tcp", False, 0, 0),
        ("mptcp", True, 0, 0),
        ("mptcp-100conn", True, 100, 0),
        ("mptcp-1000conn", True, 1000, 0),
        # §5.2's suggested optimization, implemented: keys precomputed
        # off the accept path.
        ("mptcp-keypool", True, 0, 10_000),
    ]
    outcome = run_parallel(
        "fig10",
        [
            Point(
                _measure,
                {"mptcp": mptcp, "preestablished": preestablished, "attempts": attempts,
                 "seed": seed, "key_pool": key_pool},
            )
            for _label, mptcp, preestablished, key_pool in configurations
        ],
    )
    pdfs: dict = {}
    for (label, mptcp, preestablished, key_pool), (delays, compared) in zip(
        configurations, outcome.values
    ):
        delays_us = sorted(d * 1e6 for d in delays)
        histogram = Histogram(bin_width=2.0)
        for value in delays_us:
            histogram.add(value)
        pdfs[label] = histogram.pdf()
        result.add(
            variant=label,
            attempts=len(delays_us),
            mean_us=sum(delays_us) / len(delays_us),
            p50_us=delays_us[len(delays_us) // 2],
            p90_us=delays_us[int(0.9 * (len(delays_us) - 1))],
            token_compares=compared / len(delays_us),
        )
    result.notes["pdfs"] = pdfs
    outcome.attach(result)
    return result


def run(smoke: bool = False) -> list[ExperimentResult]:
    return [run_fig10(attempts=300 if smoke else 2000)]


def check_claims(results: list[ExperimentResult]) -> dict[str, bool]:
    (result,) = results
    rows = {row["variant"]: row for row in result.rows}
    compares = {variant: row["token_compares"] for variant, row in rows.items()}
    return {
        "tcp_fastest": rows["tcp"]["p50_us"] < rows["mptcp"]["p50_us"],
        # The uniqueness check walks a fuller table: counted, not timed.
        "table_growth_costs": compares["mptcp"]
        < compares["mptcp-100conn"]
        < compares["mptcp-1000conn"],
    }
