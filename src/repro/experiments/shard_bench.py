"""Ring-of-shards bulk-transfer scenario for the sharding benchmark.

The topology is a ring of ``N`` shard clusters.  Cluster ``k`` holds a
client host and a server host joined by a fat *local* path, plus a
thinner *cross* path from its client to the **next** cluster's server —
the only cut links in the sharded run.  Because every server receives
cross traffic from exactly one neighbour, boundary messages from
different sources never interleave at one target, which keeps the
forked window protocol and the merged driver trivially
order-equivalent.

Each client opens many short bulk TCP connections (most local, a few
cross-ring), staggered by a per-shard RNG stream so the shards stay
busy concurrently instead of in lockstep.  Servers tally received bytes
per four-tuple; the collector returns the tallies for the servers homed
on one shard, sorted, so serial / merged / process runs can be
compared value-for-value.

Used by ``benchmarks/test_bench_shard.py`` (the >=1k-connection speedup
record) and ``tests/test_federation.py`` (small scales).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps.bulk import BulkSenderApp
from repro.net.packet import Endpoint
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPSocket

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

PORT = 80

LOCAL_RATE_BPS = 200e6
LOCAL_DELAY_S = 0.005
LOCAL_QUEUE_BYTES = 256_000

CROSS_RATE_BPS = 50e6
CROSS_DELAY_S = 0.02  # the cut-link lookahead
CROSS_QUEUE_BYTES = 128_000

# Bench-scale defaults: 4 clusters x (218 local + 32 cross) = 1000 conns.
BENCH_CLUSTERS = 4
BENCH_LOCAL_CONNS = 218
BENCH_CROSS_CONNS = 32
BENCH_PAYLOAD_BYTES = 24_000
BENCH_HORIZON_S = 5.0


def build_ring(
    net: "Network",
    clusters: int,
    local_conns: int,
    cross_conns: int,
    payload_bytes: int,
) -> None:
    """Wire the ring topology and its staggered client load into ``net``.

    ``clusters`` is fixed independently of the shard count so a serial
    baseline builds the *same* topology as a sharded run: cluster ``k``
    is homed on shard ``k % net.shard_count`` (all on shard 0 when
    serial), and only the homing differs between the two.
    """
    count = clusters
    payload = bytes(i & 0xFF for i in range(payload_bytes))
    # Server-side tallies, keyed (server host, remote endpoint).  Lives
    # on the Network instance so a forked worker's collector can reach
    # the copy its own shard's events updated.
    tallies: dict[str, dict[tuple[str, int], int]] = {}
    net.shard_bench_tallies = tallies

    clients = []
    servers = []
    for k in range(count):
        home = k % max(1, net.shard_count)
        client = net.add_host(f"c{k}", f"10.{k}.1.1", f"10.{k}.2.1", shard=home)
        server = net.add_host(f"s{k}", f"10.{k}.1.2", f"10.{k}.3.2", shard=home)
        clients.append(client)
        servers.append(server)
        tallies[server.name] = {}
    for k in range(count):
        net.connect(
            clients[k].interface(f"10.{k}.1.1"),
            servers[k].interface(f"10.{k}.1.2"),
            rate_bps=LOCAL_RATE_BPS,
            delay=LOCAL_DELAY_S,
            queue_bytes=LOCAL_QUEUE_BYTES,
        )
        if count > 1:
            peer = (k + 1) % count
            net.connect(
                clients[k].interface(f"10.{k}.2.1"),
                servers[peer].interface(f"10.{peer}.3.2"),
                rate_bps=CROSS_RATE_BPS,
                delay=CROSS_DELAY_S,
                queue_bytes=CROSS_QUEUE_BYTES,
            )

    for server in servers:
        tally = tallies[server.name]

        def on_accept(sock, tally=tally):
            key = (sock.remote.ip, sock.remote.port)
            tally[key] = 0

            def on_data(s, key=key, tally=tally):
                tally[key] += len(s.read())

            sock.on_data = on_data
            sock.on_eof = lambda s: s.close()

        Listener(server, PORT, on_accept=on_accept)

    for k in range(count):
        client = clients[k]
        rng = net.rng.fork_shard(k, "shard-bench")
        plan = [(f"10.{k}.1.1", f"10.{k}.1.2")] * local_conns
        if count > 1:
            peer = (k + 1) % count
            plan += [(f"10.{k}.2.1", f"10.{peer}.3.2")] * cross_conns
        for local_ip, remote_ip in plan:
            start = rng.uniform(0.001, 1.0)

            def launch(
                client=client,
                local_ip=local_ip,
                remote_ip=remote_ip,
                payload=payload,
            ):
                sock = TCPSocket(client)
                BulkSenderApp(sock, payload)
                sock.connect(Endpoint(remote_ip, PORT), local_ip=local_ip)

            # Schedule on the client's own shard simulator: in process
            # mode only that shard's worker may create this socket.
            client.sim.schedule(start, launch)


def collect_tallies(net: "Network", shard: int) -> list:
    """Collector: sorted per-connection byte counts for this shard's
    servers (the contract forbids reading other shards' state)."""
    rows = []
    for host in net.hosts.values():
        if host.shard != shard or host.name not in net.shard_bench_tallies:
            continue
        for (ip, port), received in net.shard_bench_tallies[host.name].items():
            rows.append((host.name, ip, port, received))
    rows.sort()
    return rows


def build_bench(net: "Network") -> None:
    """The benchmark-scale builder."""
    build_ring(net, BENCH_CLUSTERS, BENCH_LOCAL_CONNS, BENCH_CROSS_CONNS, BENCH_PAYLOAD_BYTES)


def build_small(net: "Network") -> None:
    """A test-scale builder: 4 clusters, a few connections each."""
    build_ring(net, clusters=4, local_conns=3, cross_conns=2, payload_bytes=6_000)
