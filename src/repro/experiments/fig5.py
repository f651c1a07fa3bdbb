"""Fig. 5 — Receive buffer impact on memory use (§4.2, M3/M4).

With buffer autotuning (M3) the configured maximum is only a cap: the
effective buffer grows on demand using the ``2·Σxᵢ·RTT_max`` formula.
The catch: the deep 3G queue inflates RTT_max, so autotuning ramps the
buffer far beyond what is useful — until cwnd capping (M4) keeps the
measured RTT (and hence the formula) honest, roughly halving memory
at large configured buffers.

Reported: time-averaged sender and receiver memory, per configured
maximum buffer, for MPTCP+M1,2,3 vs +M1,2,3,4, with TCP baselines.
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

DEFAULT_BUFFERS_KB = (100, 200, 400, 600, 800, 1200)


def _memory_row(label: str, paths, config, buffer_kb: int, duration: float, seed: int) -> dict:
    outcome = run_bulk(paths, config, duration, seed=seed, sample_memory=True)
    return {
        "buffer_kb": buffer_kb,
        "variant": label,
        "sender_memory_kb": outcome.tx_memory_avg / 1024,
        "receiver_memory_kb": outcome.rx_memory_avg / 1024,
        "goodput_mbps": outcome.goodput_bps / 1e6,
    }


def run_fig5(
    buffers_kb=DEFAULT_BUFFERS_KB,
    duration: float = 25.0,
    seed: int = 5,
) -> ExperimentResult:
    result = ExperimentResult("Fig. 5 — memory use vs configured receive buffer")
    points: list[Point] = []
    for kb in buffers_kb:
        tcp = TCPConfig(snd_buf=kb * 1024, rcv_buf=kb * 1024, autotune=True)
        for label, paths, config in (
            ("mptcp-m123", [WIFI, THREEG], mptcp_variant_config("m123", kb * 1024)),
            ("mptcp-m1234", [WIFI, THREEG], mptcp_variant_config("m1234", kb * 1024)),
            ("tcp-wifi", [WIFI], tcp),
            ("tcp-3g", [THREEG], tcp),
        ):
            kwargs = {"label": label, "paths": paths, "config": config, "buffer_kb": kb}
            points.append(Point(_memory_row, {**kwargs, "duration": duration, "seed": seed}))
    outcome = run_parallel("fig5", points)
    for row in outcome.values:
        result.add(**row)
    outcome.attach(result)
    return result


def run(smoke: bool = False) -> list[ExperimentResult]:
    return [run_fig5(buffers_kb=(200,), duration=8.0) if smoke else run_fig5()]


def check_claims(results: list[ExperimentResult]) -> dict[str, bool]:
    (result,) = results

    def memory(variant):
        return dict(result.series("buffer_kb", "sender_memory_kb", variant=variant))

    m123 = memory("mptcp-m123")
    m1234 = memory("mptcp-m1234")
    wifi = memory("tcp-wifi")
    threeg = memory("tcp-3g")
    big = max(m123)
    return {
        # Capping (M4) cuts sender memory substantially at large buffers.
        "capping_halves_memory": m1234[big] <= 0.7 * m123[big],
        # TCP over WiFi uses the least memory; MPTCP the most.
        "tcp_wifi_lowest": wifi[big] <= threeg[big] and wifi[big] <= m123[big],
        # MPTCP sender memory exceeds single-path TCP's.
        "mptcp_uses_more_than_tcp": m123[big] > threeg[big],
    }
