"""Fig. 3 — Impact of DSM checksums on 10 GbE goodput, vs MSS.

The testbed is CPU-bound: with a standard Ethernet MSS, per-packet
costs (interrupts, protocol processing) dominate; as the MSS grows the
fixed costs amortize and goodput rises toward line rate.  With DSS
checksums enabled the NIC's checksum offload cannot be used, adding a
per-byte software cost — at jumbo frames the paper measures a ~30%
goodput reduction.

Reproduction: a short MPTCP transfer runs over a simulated 10 Gb/s path
at each MSS (exercising the real datapath, including actual checksum
computation and verification when enabled); the reported goodput is the
CPU-limited rate from the calibrated cost model, saturated by the line
rate actually achieved on the wire.
"""

from __future__ import annotations

from repro.apps.bulk import BulkReceiverApp, BulkSenderApp
from repro.experiments.common import (
    ExperimentResult,
    PathSpec,
    build_multipath_network,
    open_client,
    open_listener,
)
from repro.experiments.runner import Point, run_parallel
from repro.mptcp.connection import MPTCPConfig
from repro.stats.cpu import CPUModelParams
from repro.stats.metrics import GoodputMeter
from repro.tcp.socket import TCPConfig

LINE_RATE = 10e9
DEFAULT_MSS_SWEEP = (500, 1000, 1448, 2000, 3000, 4500, 6000, 7500, 8500)


def _run_transfer(mss: int, checksum: bool, transfer_bytes: int, seed: int) -> dict:
    """One real MPTCP transfer at the given MSS; returns wire stats."""
    path = PathSpec(rate_bps=LINE_RATE, rtt=0.0002, buffer_bytes=2 * 1024 * 1024, name="10g")
    net, client, server = build_multipath_network([path], seed=seed)
    tcp = TCPConfig(mss=mss, snd_buf=4 * 1024 * 1024, rcv_buf=4 * 1024 * 1024)
    config = MPTCPConfig(tcp=tcp, checksum=checksum, snd_buf=tcp.snd_buf, rcv_buf=tcp.rcv_buf)
    meter = GoodputMeter(net.sim)
    state: dict = {}

    def on_accept(conn):
        state["rx"] = BulkReceiverApp(conn, meter, expect_bytes=transfer_bytes)

    open_listener(server, config, on_accept)
    BulkSenderApp(open_client(client, server, config), transfer_bytes)
    net.run(until=10.0)
    receiver = state.get("rx")
    return {
        "received": receiver.received if receiver else 0,
        "wire_efficiency": _wire_efficiency(net),
        "checksums_verified": receiver.transport.stats.checksums_verified if receiver else 0,
    }


def _wire_efficiency(net) -> float:
    """payload bytes / wire bytes actually transmitted."""
    sent = sum(p.link_fwd.stats.bytes_sent for p in net.paths)
    payload = sum(p.link_fwd.stats.payload_bytes_sent for p in net.paths)
    return payload / sent if sent else 0.0


def run_fig3(
    mss_sweep=DEFAULT_MSS_SWEEP,
    transfer_bytes: int = 2 * 1024 * 1024,
    seed: int = 3,
) -> ExperimentResult:
    result = ExperimentResult(
        "Fig. 3 — MPTCP goodput vs MSS, DSS checksum on/off (10 GbE, CPU-bound)"
    )
    model = CPUModelParams()
    grid = [(mss, checksum) for mss in mss_sweep for checksum in (False, True)]
    outcome = run_parallel(
        "fig3",
        [
            Point(
                _run_transfer,
                {"mss": mss, "checksum": checksum, "transfer_bytes": transfer_bytes, "seed": seed},
            )
            for mss, checksum in grid
        ],
    )
    for (mss, checksum), transfer in zip(grid, outcome.values):
        cpu_rate = model.cpu_limited_goodput_bps(mss, checksummed=checksum)
        wire_rate = LINE_RATE * transfer["wire_efficiency"]
        goodput = min(cpu_rate, wire_rate)
        result.add(
            mss=mss,
            checksum="on" if checksum else "off",
            goodput_gbps=goodput / 1e9,
            cpu_limited_gbps=cpu_rate / 1e9,
            wire_limited_gbps=wire_rate / 1e9,
            transfer_ok=transfer["received"] >= transfer_bytes,
            checksums_verified=transfer["checksums_verified"],
        )
    outcome.attach(result)
    # Headline number: checksum penalty at jumbo frames.
    off = result.series("mss", "goodput_gbps", checksum="off")
    on = result.series("mss", "goodput_gbps", checksum="on")
    if off and on:
        result.notes["jumbo_penalty_pct"] = 100.0 * (1 - on[-1][1] / off[-1][1])
    return result


def run(smoke: bool = False) -> list[ExperimentResult]:
    return [run_fig3(mss_sweep=(1448, 8500), transfer_bytes=256 * 1024) if smoke else run_fig3()]


def check_claims(results: list[ExperimentResult]) -> dict[str, bool]:
    (result,) = results
    off = dict(result.series("mss", "goodput_gbps", checksum="off"))
    on = dict(result.series("mss", "goodput_gbps", checksum="on"))
    return {
        # Per-packet costs amortize: goodput more than doubles over the sweep.
        "goodput_rises_with_mss": off[max(off)] > 2 * off[min(off)],
        # The paper measures ~30% at jumbo frames ...
        "jumbo_penalty_20_to_40pct": 20.0 <= result.notes["jumbo_penalty_pct"] <= 40.0,
        # ... and much less at the standard Ethernet MSS.
        "small_penalty_at_1448": (off[1448] - on[1448]) / off[1448] < 0.2,
    }
