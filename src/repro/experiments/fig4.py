"""Fig. 4 — Receive buffer impact on throughput (§4.2).

Three panels over the emulated WiFi (8 Mb/s, 20 ms, 80 ms buffer) +
3G (2 Mb/s, 150 ms, 2 s buffer) scenario, sweeping the configured
receive/send buffer:

* (a) regular MPTCP dips *below* TCP-over-WiFi in the mid-range —
  losing any incentive to deploy it;
* (b) opportunistic retransmission (M1) restores roughly TCP-over-WiFi
  goodput, at the cost of duplicate transmissions (the
  goodput/throughput gap);
* (c/d) adding penalization (M2) removes the waste and lets MPTCP
  match or beat TCP over the best path at every buffer size.
"""

from __future__ import annotations

from repro.experiments.common import (
    THREEG,
    WIFI,
    ExperimentResult,
    mptcp_variant_config,
    run_bulk,
)
from repro.experiments.runner import Point, run_parallel
from repro.tcp.socket import TCPConfig

DEFAULT_BUFFERS_KB = (50, 100, 200, 300, 500, 750, 1000)
VARIANTS = ("regular", "m1", "m12")


def _tcp_row(path, variant: str, buffer_kb: int, duration: float, seed: int) -> dict:
    config = TCPConfig(snd_buf=buffer_kb * 1024, rcv_buf=buffer_kb * 1024)
    outcome = run_bulk([path], config, duration, seed=seed)
    return {"buffer_kb": buffer_kb, "variant": variant, "goodput_mbps": outcome.goodput_bps / 1e6}


def _mptcp_row(variant: str, buffer_kb: int, duration: float, seed: int) -> dict:
    config = mptcp_variant_config(variant, buffer_kb * 1024)
    outcome = run_bulk([WIFI, THREEG], config, duration, seed=seed)
    return {
        "buffer_kb": buffer_kb,
        "variant": f"mptcp-{variant}",
        "goodput_mbps": outcome.goodput_bps / 1e6,
        "throughput_mbps": outcome.throughput_bps / 1e6,
        "opportunistic": outcome.connection.scheduler.stats.opportunistic_retransmissions,
        "penalizations": outcome.connection.scheduler.stats.penalizations,
    }


def run_fig4(
    buffers_kb=DEFAULT_BUFFERS_KB,
    duration: float = 25.0,
    seed: int = 4,
) -> ExperimentResult:
    result = ExperimentResult("Fig. 4 — throughput vs receive buffer (WiFi + 3G)")
    points: list[Point] = []
    for kb in buffers_kb:
        points.append(
            Point(_tcp_row, {"path": WIFI, "variant": "tcp-wifi", "buffer_kb": kb, "duration": duration, "seed": seed})
        )
        points.append(
            Point(_tcp_row, {"path": THREEG, "variant": "tcp-3g", "buffer_kb": kb, "duration": duration, "seed": seed})
        )
        for variant in VARIANTS:
            points.append(
                Point(_mptcp_row, {"variant": variant, "buffer_kb": kb, "duration": duration, "seed": seed})
            )
    outcome = run_parallel("fig4", points)
    for row in outcome.values:
        result.add(**row)
    outcome.attach(result)
    return result


def run(smoke: bool = False) -> list[ExperimentResult]:
    return [run_fig4(buffers_kb=(200,), duration=8.0) if smoke else run_fig4()]


def check_claims(results: list[ExperimentResult]) -> dict[str, bool]:
    (result,) = results

    def curve(variant, y="goodput_mbps"):
        return dict(result.series("buffer_kb", y, variant=variant))

    def waste(variant):  # wire throughput minus goodput: the duplicates
        throughput = curve(variant, "throughput_mbps")
        return {kb: throughput[kb] - goodput for kb, goodput in curve(variant).items()}

    wifi = curve("tcp-wifi")
    regular = curve("mptcp-regular")
    m1 = curve("mptcp-m1")
    m12 = curve("mptcp-m12")
    mid = [kb for kb in wifi if 150 <= kb <= 600]
    m1_waste, m12_waste = waste("mptcp-m1"), waste("mptcp-m12")
    return {
        # (a) regular MPTCP underperforms TCP/WiFi in the mid-range.
        "regular_dips_below_tcp_wifi": any(regular[kb] < 0.8 * wifi[kb] for kb in mid),
        # (b) M1 recovers most of TCP/WiFi's rate where regular dips.
        "m1_beats_regular_midrange": sum(m1[kb] for kb in mid) > sum(regular[kb] for kb in mid),
        # (b) ... by reinjecting onto 3G: it wastes about the 3G rate ...
        "m1_wastes_about_the_3g_rate": all(
            m1_waste[kb] >= 0.5 * THREEG.rate_bps / 1e6 for kb in mid
        ),
        # (c) ... and penalization (M2) removes the waste.
        "m12_removes_the_waste": all(m12_waste[kb] < 0.25 * m1_waste[kb] for kb in mid),
        # (c) M1+M2 matches or beats TCP/WiFi nearly everywhere.
        "m12_matches_tcp_wifi": all(m12[kb] >= 0.8 * wifi[kb] for kb in wifi),
        # At large buffers MPTCP+M1,2 exceeds the best single path.
        "m12_aggregates_at_large_buffers": max(m12.values()) > 1.05 * max(wifi.values()),
    }
