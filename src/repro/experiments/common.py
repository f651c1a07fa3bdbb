"""The transfer harness shared by the figure reproductions, the fuzzer
and the tests.

Every experiment is one job: a client and a server joined by one link
per path (a :class:`PathSpec`), TCP or MPTCP on top.
:func:`build_multipath_network` builds that topology,
:func:`open_listener` and :func:`open_client` open TCP or MPTCP by the
config's type, and :func:`run_bulk` is the long-download measurement on
top of them.

The canonical mobile scenario of §4.2 is built here once and reused by
Figs. 4, 5 and 7:

* "WiFi": 8 Mb/s, 20 ms base RTT, 80 ms of buffering (80 KB),
* "3G":   2 Mb/s, 150 ms base RTT, 2 s of buffering (500 KB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.apps.bulk import BulkSenderApp
from repro.mptcp.api import connect as mptcp_connect
from repro.mptcp.api import listen as mptcp_listen
from repro.mptcp.connection import MPTCPConfig
from repro.net.link import buffer_bytes_for
from repro.net.network import Network
from repro.net.node import Host
from repro.net.packet import Endpoint
from repro.net.path import PathElement
from repro.stats.metrics import GoodputMeter, MemorySampler
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPConfig, TCPSocket


@dataclass
class PathSpec:
    """One emulated path."""

    rate_bps: float
    rtt: float  # base (propagation) round-trip time
    buffer_seconds: Optional[float] = None  # drain time of the queue
    buffer_bytes: Optional[int] = None
    loss: float = 0.0
    name: Optional[str] = None  # None: the network names it "a<->b"

    def queue_bytes(self) -> Optional[int]:
        """The queue in bytes; None (neither buffer given) leaves the
        link's own default."""
        if self.buffer_bytes is not None:
            return self.buffer_bytes
        if self.buffer_seconds is None:
            return None
        return buffer_bytes_for(self.rate_bps, self.buffer_seconds)


WIFI = PathSpec(rate_bps=8e6, rtt=0.020, buffer_seconds=0.080, name="wifi")
THREEG = PathSpec(rate_bps=2e6, rtt=0.150, buffer_seconds=2.0, name="3g")
# §4.2.1's "extremely poor performance such as when mobile devices have
# very weak signal": slow, deep-buffered AND radio-lossy — so a loss
# costs a multi-second retransmission over the 2 s network buffer.
LOSSY_3G = PathSpec(
    rate_bps=50e3, rtt=0.150, buffer_seconds=2.0, loss=0.08, name="slow-3g"
)


@dataclass
class ExperimentResult:
    """Rows of named values; what every experiment returns."""

    name: str
    rows: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add(self, **values) -> None:
        self.rows.append(values)

    def series(self, x: str, y: str, **filters) -> list[tuple]:
        points: list[dict] = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in filters.items()):
                points.append((row[x], row[y]))
        return points

    def column(self, key: str, **filters) -> list:
        return [value for _, value in self.series(key, key, **filters)]

    def format_table(self) -> str:
        """The rows under the first row's columns, one line each."""
        if not self.rows:
            return f"[{self.name}] (no rows)"
        columns = list(self.rows[0].keys())
        widths = {
            column: max(len(column), *(len(_fmt(row.get(column))) for row in self.rows))
            for column in columns
        }
        lines = [f"== {self.name} =="]
        lines.append("  ".join(column.ljust(widths[column]) for column in columns))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns)
            )
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ----------------------------------------------------------------------
# The transfer harness: one topology, one opener, one bulk runner
# ----------------------------------------------------------------------
def client_ends(count: int, server_ip: str = "10.99.0.1") -> list[tuple[str, str]]:
    """``(10.{i}.0.1, server_ip)`` per path: one client interface per
    path, all to one server address."""
    return [(f"10.{i}.0.1", server_ip) for i in range(count)]


def build_multipath_network(
    paths: Sequence[PathSpec],
    seed: int = 1,
    ends: Optional[Sequence[tuple[str, str]]] = None,
    elements: Optional[Sequence[Optional[Sequence[PathElement]]]] = None,
) -> tuple[Network, Host, Host]:
    """A client and a server joined by one link per path: path i runs
    between the addresses ``ends[i] == (client_ip, server_ip)`` (default
    :func:`client_ends`) and carries the middlebox chain ``elements[i]``.
    Each host's addresses are its ends in first-use order, so an address
    shared by several paths is one interface."""
    net = Network(seed=seed)
    if ends is None:
        ends = client_ends(len(paths))
    client = net.add_host("client", *dict.fromkeys(client_ip for client_ip, _ in ends))
    server = net.add_host("server", *dict.fromkeys(server_ip for _, server_ip in ends))
    for index, ((client_ip, server_ip), spec) in enumerate(zip(ends, paths)):
        net.connect(
            client.interface(client_ip),
            server.interface(server_ip),
            rate_bps=spec.rate_bps,
            delay=spec.rtt / 2,
            queue_bytes=spec.queue_bytes(),
            loss=spec.loss,
            elements=elements[index] if elements else None,
            name=spec.name,
        )
    return net, client, server


def open_listener(
    server: Host,
    config: Union[MPTCPConfig, TCPConfig, None],
    on_accept: Optional[Callable],
    port: int = 80,
) -> Listener:
    """Listen on ``server``: MPTCP for an :class:`MPTCPConfig`, plain TCP
    for a :class:`TCPConfig` or None."""
    if isinstance(config, MPTCPConfig):
        return mptcp_listen(server, port, config=config, on_accept=on_accept)
    return Listener(server, port, config=config, on_accept=on_accept)


def open_client(
    client: Host, server: Host, config: Union[MPTCPConfig, TCPConfig, None], port: int = 80
):
    """Connect ``client`` to ``server``'s primary address, by the same
    rule as :func:`open_listener`; returns the client's transport."""
    remote = Endpoint(server.primary_address, port)
    if isinstance(config, MPTCPConfig):
        return mptcp_connect(client, remote, config=config)
    sock = TCPSocket(client, config=config)
    sock.connect(remote)
    return sock


_VARIANTS = ("regular", "m1", "m12", "m123", "m1234")


def mptcp_variant_config(variant: str, buffer_bytes: int) -> MPTCPConfig:
    """Named §4.2 variants, each adding one mechanism to the one before:

    * ``regular``  — no receive-buffer mechanisms,
    * ``m1``       — opportunistic retransmission,
    * ``m12``      — + penalization,
    * ``m123``     — + buffer autotuning,
    * ``m1234``    — + cwnd capping.

    All run without the DSS checksum, over the ``allshortcuts`` queue.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    level = _VARIANTS.index(variant)
    return MPTCPConfig(
        tcp=TCPConfig(snd_buf=buffer_bytes, rcv_buf=buffer_bytes),
        checksum=False,
        snd_buf=buffer_bytes,
        rcv_buf=buffer_bytes,
        enable_m1=level >= 1,
        enable_m2=level >= 2,
        autotune=level >= 3,
        capping=level >= 4,
    )


@dataclass
class RunOutcome:
    goodput_bps: float = 0.0
    throughput_bps: float = 0.0  # wire payload incl. retransmissions
    received: int = 0
    tx_memory_avg: float = 0.0
    rx_memory_avg: float = 0.0
    connection: Optional[object] = None
    receiver_connection: Optional[object] = None


def run_bulk(
    paths: Sequence[PathSpec],
    config: Union[MPTCPConfig, TCPConfig],
    duration: float,
    seed: int = 1,
    warmup: float = 2.0,
    sample_memory: bool = False,
    elements: Optional[Sequence[Optional[Sequence[PathElement]]]] = None,
) -> RunOutcome:
    """Long unbounded download over TCP or MPTCP (by ``config``'s type);
    goodput and wire throughput are measured after ``warmup``."""
    net, client, server = build_multipath_network(paths, seed=seed, elements=elements)
    meter = GoodputMeter(net.sim)
    state: dict = {}

    def on_accept(transport):
        state["server"] = transport

        def on_data(t):
            data = t.read()
            if net.now >= warmup:
                meter.add(len(data))
            state["received"] = state.get("received", 0) + len(data)

        transport.on_data = on_data
        transport.on_eof = lambda t: t.close()

    def wire_payload() -> int:
        return sum(p.link_fwd.stats.payload_bytes_sent for p in net.paths)

    def start_meters():
        meter.start()
        state["wire_base"] = wire_payload()

    open_listener(server, config, on_accept)
    transport = open_client(client, server, config)
    BulkSenderApp(transport, None)
    net.sim.schedule(warmup, start_meters)

    samplers: list = []
    if sample_memory:
        net.sim.schedule(
            warmup,
            lambda: samplers.extend(
                [
                    MemorySampler(net.sim, transport.tx_memory_bytes, interval=0.05),
                    MemorySampler(
                        net.sim,
                        lambda: state["server"].rx_memory_bytes() if "server" in state else 0,
                        interval=0.05,
                    ),
                ]
            ),
        )
    net.run(until=duration)
    meter.finish()
    wire_bytes = wire_payload() - state.get("wire_base", 0)
    outcome = RunOutcome(
        goodput_bps=meter.rate_bps(),
        throughput_bps=wire_bytes * 8 / (duration - warmup) if duration > warmup else 0,
        received=state.get("received", 0),
        connection=transport,
        receiver_connection=state.get("server"),
    )
    if samplers:
        outcome.tx_memory_avg = samplers[0].average()
        outcome.rx_memory_avg = samplers[1].average()
    return outcome
