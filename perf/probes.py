"""Layer probes: eight micro-drivers, one layer's public functions each.

A probe times a fixed, seed-free operation mix against one layer in
isolation — no simulator around it unless the layer *is* the simulator —
and reports the median of five samples as cost per operation.  They are
per-layer metrics: a change to ``mptcp.checksum`` should move
``probe.mptcp.checksum.ns_per_kb`` and nothing else here.

Imports are per probe, inside the probe: a probe whose target API has
been renamed or removed is reported under ``probes_unavailable`` instead
of failing the run.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

SAMPLES = 5


def _median_cost(make: Callable[[], tuple[Callable[[], object], float]], unit_ns: float) -> float:
    """``make()`` returns a fresh ``(fn, units)``; the cost is the median
    over SAMPLES of ``fn``'s wall time per unit, in multiples of
    ``unit_ns`` nanoseconds."""
    costs = []
    for _ in range(SAMPLES):
        fn, units = make()
        started = time.perf_counter()
        fn()
        costs.append((time.perf_counter() - started) * 1e9 / unit_ns / units)
    return statistics.median(costs)


def sim_engine_ns_per_event() -> float:
    from repro.sim import Simulator

    events = 20_000

    def make():
        sim = Simulator()

        def noop():
            pass

        def drive():
            for index in range(events):
                sim.post(index * 1e-6, noop)
            sim.run()

        return drive, events

    return _median_cost(make, 1.0)


def sim_wheel_ns_per_restart() -> float:
    from repro.sim import Simulator
    from repro.sim.engine import Timer

    count = 2000

    def make():
        sim = Simulator()
        timers = [Timer(sim, lambda: None) for _ in range(count)]

        def churn():
            for index, timer in enumerate(timers):
                timer.start(0.2 + index * 1e-4)
            for round_ in range(3):
                for index, timer in enumerate(timers):
                    timer.restart(0.2 + round_ * 0.05 + index * 1e-4)
            for timer in timers:
                timer.stop()

        return churn, count * 5

    return _median_cost(make, 1.0)


def mptcp_checksum_ns_per_kb() -> float:
    from repro.mptcp.checksum import dss_checksum

    small = (bytes(range(256)) * 6)[:1448]
    jumbo = (bytes(range(256)) * 35)[:8960]

    def make():
        def sums():
            for index in range(1500):
                dss_checksum(index * 1448, index, 1448, small)
            for index in range(400):
                dss_checksum(index * 8960, index, 8960, jumbo)

        return sums, (1500 * 1448 + 400 * 8960) / 1024

    return _median_cost(make, 1.0)


def mptcp_ooo_ns_per_insert() -> float:
    from repro.mptcp.ooo import make_ooo_queue

    # Two subflows striping 64-segment batches; the slow one's batch
    # arrives after the fast one has run three batches ahead, so every
    # fast segment is inserted out of order and then drained.
    mss = 1448
    batch = 64
    inserts: list[tuple[int, int, int]] = []
    drains: list[int] = []
    for group in range(4):
        base = group * 4 * batch
        for ahead in (1, 2, 3):
            for k in range(batch):
                start = (base + ahead * batch + k) * mss
                inserts.append((start, start + mss, 0))
        drains.append((base + 4 * batch) * mss)
    algorithms = ("regular", "tree", "shortcuts", "allshortcuts")

    def make():
        queues = [make_ooo_queue(name) for name in algorithms]

        def fill():
            per_group = 3 * batch
            for queue in queues:
                for group, drain in enumerate(drains):
                    for start, end, subflow in inserts[group * per_group : (group + 1) * per_group]:
                        queue.insert(start, end, subflow)
                    queue.advance(drain)

        return fill, len(inserts) * len(algorithms)

    return _median_cost(make, 1.0)


def tcp_buffer_ns_per_op() -> float:
    from repro.tcp.buffer import ByteStream, ReassemblyQueue

    chunk = bytes(range(256)) * 256
    mss = 1448
    segment = chunk[:mss]

    def make():
        def ops():
            stream = ByteStream()
            for _ in range(20):
                stream.append(chunk)
            offset = 0
            while offset + mss <= stream.tail:
                stream.peek(offset, mss)
                offset += mss
                stream.release_to(offset)
            queue = ReassemblyQueue()
            nxt = 0
            for index in range(0, 800, 2):
                # Odd segment first, then the even one that fills the
                # hole: one out-of-order insert and one extract per pair.
                queue.insert((index + 1) * mss, segment)
                queue.insert(index * mss, segment)
                nxt += len(queue.extract_in_order(nxt))

        return ops, 20 + 2 * (20 * len(chunk) // mss) + 800 + 400

    return _median_cost(make, 1.0)


def tcp_rtx_ns_per_op() -> float:
    from repro.tcp.rtx import RetransmitQueue
    from repro.tcp.socket import SentSegment

    mss = 1448
    count = 4000

    def make():
        sent = [SentSegment(i * mss, (i + 1) * mss, b"", [], 0.0) for i in range(count)]

        def ops():
            queue = RetransmitQueue()
            for index, entry in enumerate(sent):
                queue.append(entry)
                if index % 4 == 3:
                    for _ in queue.in_range((index - 2) * mss, (index + 1) * mss):
                        pass
                    queue.popleft()
                    queue.popleft()
            while queue:
                queue.popleft()

        return ops, count * 2 + count // 4

    return _median_cost(make, 1.0)


def mptcp_keys_us_per_key_1000() -> float:
    from repro.mptcp.keys import TokenTable
    from repro.sim.rng import SeededRNG

    draws = 300

    def make():
        table = TokenTable(SeededRNG(7, "probe"))
        for _ in range(1000):
            _, token = table.generate_unique_key()
            table.register(token, None)

        def generate():
            for _ in range(draws):
                table.generate_unique_key()

        return generate, draws

    return _median_cost(make, 1000.0)


def net_packet_ns_per_wire() -> float:
    from repro.mptcp.options import DSS
    from repro.net.packet import ACK, Endpoint, Segment, segment_from_wire

    payload = (bytes(range(256)) * 6)[:1448]
    count = 600

    def make():
        segments = [
            Segment(
                Endpoint("10.0.0.1", 40000),
                Endpoint("10.99.0.1", 80),
                seq=index * 1448,
                ack=1,
                flags=ACK,
                window=65535,
                options=[DSS(data_ack=index, dsn=index * 1448, subflow_seq=index + 1, length=1448, checksum=0x1234)],
                payload=payload,
            )
            for index in range(count)
        ]

        def round_trip():
            for segment in segments:
                segment_from_wire(segment.to_wire())

        return round_trip, count

    return _median_cost(make, 1.0)


PROBES: dict[str, Callable[[], float]] = {
    "probe.sim.engine.ns_per_event": sim_engine_ns_per_event,
    "probe.sim.wheel.ns_per_restart": sim_wheel_ns_per_restart,
    "probe.mptcp.checksum.ns_per_kb": mptcp_checksum_ns_per_kb,
    "probe.mptcp.ooo.ns_per_insert": mptcp_ooo_ns_per_insert,
    "probe.tcp.buffer.ns_per_op": tcp_buffer_ns_per_op,
    "probe.tcp.rtx.ns_per_op": tcp_rtx_ns_per_op,
    "probe.mptcp.keys.us_per_key_1000": mptcp_keys_us_per_key_1000,
    "probe.net.packet.ns_per_wire": net_packet_ns_per_wire,
}

UNITS = {name: ("us" if ".us_" in name else "ns") for name in PROBES}


def run_all() -> tuple[dict, dict]:
    """``(values, probes_unavailable)``: a probe whose target API is gone
    maps to ``None`` in the second dict and is absent from the first."""
    values: dict[str, float] = {}
    unavailable: dict[str, None] = {}
    for name, probe in PROBES.items():
        try:
            values[name] = probe()
        except (ImportError, AttributeError, TypeError):
            unavailable[name] = None
    return values, unavailable


if __name__ == "__main__":
    import sys

    started = time.perf_counter()
    found, missing = run_all()
    for name, value in found.items():
        print(f"{name:40s} {value:12.2f} {UNITS[name]}")
    for name in missing:
        print(f"{name:40s} unavailable")
    print(f"probes took {time.perf_counter() - started:.2f}s", file=sys.stderr)
