"""The seven benchmark workloads, built from the stable public surface.

Every workload is a :class:`Scenario` subclass with the three phases the
harness times separately: ``__init__`` builds the topology and endpoints
(``phase.build``), :meth:`Scenario.run` advances the simulation
(``phase.run``) and :meth:`Scenario.collect` reads the results out
(``phase.collect``).  All are closed-loop and deterministic: the same
``seed`` gives the same simulated outputs, which is what
``perf/golden.json`` pins.

Nothing here imports ``repro.experiments.shard_bench`` or
``benchmarks/``: ROADMAP item 2 may delete them, and a benchmark that
depends on the code under test's own bench helpers cannot judge the PR
that removes them.  The ring topology of ``many_flows_tcp`` is therefore
re-stated below.

``scale`` (0 < scale <= 1) shrinks a workload's simulated duration or
population; the harness uses it for the warm-up repetition and the
``--tiny`` self-test mode.  Timed repetitions always run at scale 1.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.apps.bulk import run_bulk_transfer
from repro.apps.http import HTTPLoadGenerator, HTTPServerApp
from repro.check.oracle import InvariantOracle
from repro.middlebox import NAT, SegmentSplitter, SequenceRewriter
from repro.mptcp.api import connect as mptcp_connect
from repro.mptcp.api import listen as mptcp_listen
from repro.mptcp.connection import MPTCPConfig, MPTCPConnection
from repro.net.faults import Reorderer
from repro.net.network import Network
from repro.net.packet import Endpoint
from repro.study.scale import counter_digest, run_scale_study
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPConfig, TCPSocket

# A bulk transfer bounded by simulated time, not by size.
_UNBOUNDED = 1 << 40

# Exact work counts every workload reports (0 where the layer is idle),
# read from the program's own stats objects after the run.
COUNT_NAMES = (
    "net.link.packets_sent",
    "net.link.drops_queue",
    "net.link.drops_loss",
    "tcp.socket.segments_sent",
    "tcp.socket.retransmissions",
    "tcp.socket.timeouts",
    "tcp.socket.ooo_segments",
    "mptcp.scheduler.allocations",
    "mptcp.scheduler.reinjections",
    "mptcp.scheduler.opportunistic_rtx",
    "mptcp.scheduler.rwnd_blocked",
    "mptcp.ooo.inserts",
    "mptcp.ooo.ops",
    "mptcp.ooo.max_len",
    "mptcp.checksum.bytes_rx",
    "mptcp.checksum.verified",
    "mptcp.connection.ooo_chunks",
    "mptcp.connection.useful_share",
    "apps.http_requests",
    "study.microsims",
)


@dataclass
class Outcome:
    """What one repetition produced."""

    ops: int
    failed: int
    payload_bytes: int
    # Simulated outputs only (never event or call counts): hashed into
    # the golden digest.
    outputs: dict
    counts: dict = field(default_factory=dict)
    # Host-side facts only the program can report (never hashed).
    extras: dict = field(default_factory=dict)

    def digest(self) -> str:
        canonical = json.dumps(self.outputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Scenario:
    """Base class: stats harvesting shared by every workload."""

    name = ""
    op = ""
    why = ""
    # Workload whose wall time this one's derived slowdown is relative to.
    baseline: Optional[str] = None

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.nets: list[Network] = []
        # Every transport the workload opened or accepted, kept so the
        # per-connection stats can be read after the run.
        self.transports: list = []

    def run(self) -> None:
        raise NotImplementedError

    def collect(self) -> Outcome:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _network(self) -> Network:
        net = Network(seed=self.seed, shards=1)
        # No segment-retaining hooks are attached, so delivered pure-ACK
        # shells may return to the Segment pool (what the figure
        # harnesses run with).
        net.recycle_segments = True
        self.nets.append(net)
        return net

    def _links(self) -> list:
        return [link for net in self.nets for path in net.paths for link in (path.link_fwd, path.link_rev)]

    def _sockets(self) -> list[TCPSocket]:
        sockets: list[TCPSocket] = []
        for transport in self.transports:
            if isinstance(transport, MPTCPConnection):
                sockets.extend(transport.subflows)
            else:
                sockets.append(transport)
        return sockets

    def _connections(self) -> list[MPTCPConnection]:
        return [t for t in self.transports if isinstance(t, MPTCPConnection)]

    def _counts(self) -> dict:
        links = [link.stats for link in self._links()]
        sockets = [sock.stats for sock in self._sockets()]
        conns = self._connections()
        delivered = sum(c.stats.bytes_delivered for c in conns)
        duplicate = sum(c.stats.duplicate_bytes for c in conns)
        counts = dict.fromkeys(COUNT_NAMES, 0)
        counts.update(
            {
                "net.link.packets_sent": sum(s.packets_sent for s in links),
                "net.link.drops_queue": sum(s.packets_dropped_queue for s in links),
                "net.link.drops_loss": sum(s.packets_dropped_loss for s in links),
                "tcp.socket.segments_sent": sum(s.segments_sent for s in sockets),
                "tcp.socket.retransmissions": sum(s.retransmissions for s in sockets),
                "tcp.socket.timeouts": sum(s.timeouts for s in sockets),
                "tcp.socket.ooo_segments": sum(s.out_of_order_segments for s in sockets),
                "mptcp.scheduler.allocations": sum(c.scheduler.stats.allocations for c in conns),
                "mptcp.scheduler.reinjections": sum(c.scheduler.stats.reinjections for c in conns),
                "mptcp.scheduler.opportunistic_rtx": sum(
                    c.scheduler.stats.opportunistic_retransmissions for c in conns
                ),
                "mptcp.scheduler.rwnd_blocked": sum(
                    c.scheduler.stats.rwnd_blocked_events for c in conns
                ),
                "mptcp.ooo.inserts": sum(c.ooo_index.stats.inserts for c in conns),
                "mptcp.ooo.ops": sum(c.ooo_index.stats.ops for c in conns),
                "mptcp.ooo.max_len": max(
                    (c.ooo_index.stats.max_queue_length for c in conns), default=0
                ),
                "mptcp.checksum.bytes_rx": sum(c.stats.checksum_bytes_rx for c in conns),
                "mptcp.checksum.verified": sum(c.stats.checksums_verified for c in conns),
                "mptcp.connection.ooo_chunks": sum(c.stats.out_of_order_chunks for c in conns),
                # The waste ratio: delivered / (delivered + duplicate).
                "mptcp.connection.useful_share": (
                    delivered / (delivered + duplicate) if delivered + duplicate else 0.0
                ),
            }
        )
        return counts

    def _stats_outputs(self) -> dict:
        """Per-connection / per-socket / per-link stats, as simulated
        outputs for the golden digest."""
        return {
            "links": [dataclasses.asdict(link.stats) for link in self._links()],
            "sockets": [dataclasses.asdict(sock.stats) for sock in self._sockets()],
            "connections": [dataclasses.asdict(c.stats) for c in self._connections()],
        }


# ----------------------------------------------------------------------
# Bulk transfers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PathSpec:
    rate_bps: float
    rtt: float
    queue_bytes: int
    loss: float = 0.0


# The mobile scenario of §4.2: WiFi has 80 ms of buffering, 3G has 2 s.
_WIFI = _PathSpec(rate_bps=8e6, rtt=0.020, queue_bytes=80_000)
_THREEG = _PathSpec(rate_bps=2e6, rtt=0.150, queue_bytes=500_000)
_FAST = _PathSpec(rate_bps=100e6, rtt=0.004, queue_bytes=1_250_000)


def _bulk_config(
    buffer_bytes: int, mss: int = 1448, checksum: bool = False, ooo_algorithm: str = "allshortcuts"
) -> MPTCPConfig:
    """The §4.2 ``m12`` variant: opportunistic retransmission plus
    penalization, no autotuning, no capping."""
    return MPTCPConfig(
        tcp=TCPConfig(mss=mss, snd_buf=buffer_bytes, rcv_buf=buffer_bytes),
        checksum=checksum,
        snd_buf=buffer_bytes,
        rcv_buf=buffer_bytes,
        enable_m1=True,
        enable_m2=True,
        autotune=False,
        capping=False,
        ooo_algorithm=ooo_algorithm,
    )


class _Bulk(Scenario):
    """One MPTCP connection from a multihomed client to a single-address
    server, a subflow per path, streaming until simulated time runs out."""

    op = "transfer"
    paths: tuple[_PathSpec, ...] = ()
    duration = 20.0
    buffer_bytes = 500 * 1024
    mss = 1448
    checksum = False
    ooo_algorithm = "allshortcuts"

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.net = net = self._network()
        self.config = _bulk_config(self.buffer_bytes, self.mss, self.checksum, self.ooo_algorithm)
        client_ips = [f"10.{i}.0.1" for i in range(len(self.paths))]
        self.client = net.add_host("client", *client_ips)
        self.server = net.add_host("server", "10.99.0.1")
        for index, (ip, spec) in enumerate(zip(client_ips, self.paths)):
            net.connect(
                self.client.interface(ip),
                self.server.interface("10.99.0.1"),
                rate_bps=spec.rate_bps,
                delay=spec.rtt / 2,
                queue_bytes=spec.queue_bytes,
                loss=spec.loss,
                elements=self._elements(index),
            )
        self.result: dict = {}

    def _elements(self, index: int) -> list:
        return []

    def _open(self):
        conn = mptcp_connect(self.client, Endpoint("10.99.0.1", 80), config=self.config)
        self.transports.append(conn)
        return conn

    def _accept(self, callback) -> None:
        def on_accept(conn):
            self.transports.append(conn)
            callback(conn)

        mptcp_listen(self.server, 80, config=self.config, on_accept=on_accept)

    def run(self) -> None:
        self.result = run_bulk_transfer(
            self.net,
            self._open,
            self._accept,
            total_bytes=_UNBOUNDED,
            duration=self.duration * self.scale,
            verify=True,
        )

    def collect(self) -> Outcome:
        received = self.result["received"]
        failed = 1 if self.result["corrupt"] or received == 0 else 0
        outputs = {"received": received, "goodput_bps": self.result["goodput_bps"]}
        outputs.update(self._stats_outputs())
        return Outcome(
            ops=1, failed=failed, payload_bytes=received, outputs=outputs, counts=self._counts()
        )


class Bulk2Path(_Bulk):
    name = "bulk_2path"
    why = (
        "steady-state per-segment datapath (tcp.socket + mptcp.subflow/connection/scheduler); "
        "handshake, loss recovery and checksum idle; the legacy canonical transfer"
    )
    paths = (_WIFI, _THREEG)


class BulkCsumJumbo(_Bulk):
    name = "bulk_csum_jumbo"
    why = (
        "8960-byte segments with DSS checksum on: per-byte work (mptcp.checksum, net.payload, "
        "tcp.buffer) is largest and per-packet cost diluted; the packet-size axis"
    )
    paths = (_FAST, _FAST)
    duration = 5.0
    buffer_bytes = 2 * 1024 * 1024
    mss = 8960
    checksum = True


class LossyReorder(_Bulk):
    name = "lossy_reorder"
    why = (
        "bulk_2path paths with 1% loss behind NAT, ISN rewriter, 700-byte splitter and "
        "reorderer: tcp.rtx, SACK, mptcp.ooo, M1/M2 and middlebox.* do real work"
    )
    paths = (dataclasses.replace(_WIFI, loss=0.01), dataclasses.replace(_THREEG, loss=0.01))
    checksum = True
    ooo_algorithm = "regular"
    # The loss/reorder pattern is part of this workload's definition, not
    # of --seed: over 20 lossy sim-seconds the transfer is chaotic, and
    # host cost varies 2x with the pattern (62k-127k events over seeds
    # 1-10), which would drown any code change in input noise.
    pattern_seed = 4

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(self.pattern_seed, scale)

    def _elements(self, index: int) -> list:
        rng = self.net.rng.fork(f"mb:{index}")
        return [
            NAT(f"99.0.{index}.1"),
            SequenceRewriter(rng.fork("isn")),
            SegmentSplitter(mss=700),
            Reorderer(seed=self.seed * 16 + index, probability=0.05, depth=3),
        ]


class Bulk2PathOracle(Bulk2Path):
    name = "bulk_2path_oracle"
    why = (
        "bulk_2path with the invariant oracle attached: pooling off, post_event hook live — "
        "the configuration the fuzzer and --oracle captures actually run"
    )
    baseline = "bulk_2path"

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.oracle = InvariantOracle.attach(self.net)

    def collect(self) -> Outcome:
        outcome = super().collect()
        self.oracle.detach()
        return outcome


# ----------------------------------------------------------------------
# HTTP churn
# ----------------------------------------------------------------------
class HttpShort(Scenario):
    name = "http_short"
    op = "HTTP request"
    why = (
        "100 closed-loop clients fetching 4 KiB objects: connection churn through mptcp.keys, "
        "MP_CAPABLE/MP_JOIN, tcp.listener, net.node demux and timers; bulk datapath nearly idle"
    )
    clients = 100
    size = 4 * 1024
    duration = 2.0

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        net = self._network()
        client = net.add_host("client", "10.0.0.1", "10.1.0.1")
        server = net.add_host("server", "10.99.0.1", "10.99.1.1")
        for client_ip, server_ip in (("10.0.0.1", "10.99.0.1"), ("10.1.0.1", "10.99.1.1")):
            net.connect(
                client.interface(client_ip), server.interface(server_ip), rate_bps=40e6, delay=0.002
            )
        config = MPTCPConfig(checksum=False)
        self.app = HTTPServerApp()

        def on_accept(conn):
            self.transports.append(conn)
            self.app.on_accept(conn)

        mptcp_listen(server, 80, config=config, on_accept=on_accept)

        def open_transport():
            conn = mptcp_connect(client, Endpoint("10.99.0.1", 80), config=config)
            self.transports.append(conn)
            return conn

        self.net = net
        self.generator = HTTPLoadGenerator(net.sim, open_transport, self.size, self.clients)

    def run(self) -> None:
        self.generator.start()
        self.net.run(until=self.duration * self.scale)

    def collect(self) -> Outcome:
        gen = self.generator
        outputs = {
            "completed": gen.completed,
            "failed": gen.failed,
            "bytes_received": gen.bytes_received,
            "served": self.app.requests_served,
            "latencies": gen.latencies,
        }
        outputs.update(self._stats_outputs())
        counts = self._counts()
        counts["apps.http_requests"] = gen.completed
        return Outcome(
            ops=gen.completed + gen.failed,
            failed=gen.failed,
            payload_bytes=gen.bytes_received,
            outputs=outputs,
            counts=counts,
        )


# ----------------------------------------------------------------------
# Many concurrent plain-TCP flows
# ----------------------------------------------------------------------
class ManyFlowsTcp(Scenario):
    """A ring of four clusters.  Cluster k holds a client and a server
    joined by a fat local path, plus a thinner cross path from its client
    to the next cluster's server.  Each client opens many short staggered
    plain-TCP connections, most local, a few cross-ring."""

    name = "many_flows_tcp"
    op = "connection"
    why = (
        "2000 staggered plain-TCP connections on a 4-cluster ring: bypasses mptcp.* entirely; "
        "large heap, many armed timers, Host demux over 2000 four-tuples; sim.engine+wheel peak"
    )
    clusters = 4
    local_conns = 436
    cross_conns = 64
    payload_bytes = 24_000
    horizon = 6.0

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.net = net = self._network()
        self.payload = payload = bytes(i & 0xFF for i in range(self.payload_bytes))
        self.received: dict[tuple, int] = {}
        count = self.clusters
        clients = []
        servers = []
        for k in range(count):
            clients.append(net.add_host(f"c{k}", f"10.{k}.1.1", f"10.{k}.2.1"))
            servers.append(net.add_host(f"s{k}", f"10.{k}.1.2", f"10.{k}.3.2"))
        for k in range(count):
            peer = (k + 1) % count
            net.connect(
                clients[k].interface(f"10.{k}.1.1"),
                servers[k].interface(f"10.{k}.1.2"),
                rate_bps=200e6,
                delay=0.005,
                queue_bytes=256_000,
            )
            net.connect(
                clients[k].interface(f"10.{k}.2.1"),
                servers[peer].interface(f"10.{peer}.3.2"),
                rate_bps=50e6,
                delay=0.02,
                queue_bytes=128_000,
            )
        for server in servers:
            Listener(server, 80, on_accept=self._accept(server.name))
        local = max(1, round(self.local_conns * scale))
        cross = max(1, round(self.cross_conns * scale))
        self.planned = count * (local + cross)
        for k in range(count):
            peer = (k + 1) % count
            rng = net.rng.fork(f"starts:{k}")
            plan = [(f"10.{k}.1.1", f"10.{k}.1.2")] * local
            plan += [(f"10.{k}.2.1", f"10.{peer}.3.2")] * cross
            for local_ip, remote_ip in plan:
                net.sim.schedule(
                    rng.uniform(0.001, 1.0), self._launch, clients[k], local_ip, remote_ip
                )

    def _accept(self, server_name: str):
        def on_accept(sock):
            self.transports.append(sock)
            key = (server_name, sock.remote.ip, sock.remote.port)
            self.received[key] = 0

            def on_data(s):
                self.received[key] += len(s.read())

            sock.on_data = on_data
            sock.on_eof = lambda s: s.close()

        return on_accept

    def _launch(self, client, local_ip: str, remote_ip: str) -> None:
        sock = TCPSocket(client)
        self.transports.append(sock)
        payload = self.payload
        sent = 0

        def pump(s):
            nonlocal sent
            while sent < len(payload):
                accepted = s.send(payload[sent : sent + 65536])
                if accepted == 0:
                    return
                sent += accepted
            s.close()

        sock.on_established = pump
        sock.on_writable = pump
        sock.connect(Endpoint(remote_ip, 80), local_ip=local_ip)

    def run(self) -> None:
        self.net.run(until=self.horizon)

    def collect(self) -> Outcome:
        tallies = sorted((*key, got) for key, got in self.received.items())
        complete = sum(1 for row in tallies if row[-1] == self.payload_bytes)
        outputs = {"tallies": tallies}
        outputs.update(self._stats_outputs())
        return Outcome(
            ops=self.planned,
            failed=self.planned - complete,
            payload_bytes=sum(row[-1] for row in tallies),
            outputs=outputs,
            counts=self._counts(),
        )


# ----------------------------------------------------------------------
# The scale study
# ----------------------------------------------------------------------
class StudyScale(Scenario):
    name = "study_scale"
    op = "microsim"
    why = (
        "312 tiny simulations through middlebox chains: topology build, handshake/fallback, "
        "Simulator.run entry/exit and its gc.collect() dominate — the set-up-cost question"
    )
    paths = 1000

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.report: dict = {}
        self.bench: dict = {}

    def run(self) -> None:
        # --seed N maps to the study's own seed family (N=4 -> 2026).
        self.report, self.bench = run_scale_study(
            "internet2021",
            paths=max(10, round(self.paths * self.scale)),
            seed=2022 + self.seed,
            workers=1,
        )

    def collect(self) -> Outcome:
        paths = self.report["paths"]
        microsims = self.bench["microsims"]
        outcomes = self.report["outcomes"]
        # Both transports must complete on every sampled path (§3.1's
        # deployability bar); the report is path-weighted, so any
        # shortfall fails the whole repetition's microsims.
        complete = all(outcomes[k]["count"] == paths for k in ("tcp_completed", "mptcp_completed"))
        counts = dict.fromkeys(COUNT_NAMES, 0)
        counts["study.microsims"] = microsims
        return Outcome(
            ops=microsims,
            failed=0 if complete else microsims,
            payload_bytes=0,
            outputs={"counter_digest": counter_digest(self.report), "report": self.report},
            counts=counts,
            extras={"paths": paths, "sample_s": self.bench["sample_seconds"]},
        )


WORKLOADS: dict[str, type[Scenario]] = {
    cls.name: cls
    for cls in (
        Bulk2Path,
        BulkCsumJumbo,
        HttpShort,
        ManyFlowsTcp,
        LossyReorder,
        StudyScale,
        Bulk2PathOracle,
    )
}
