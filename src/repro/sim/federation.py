"""Process-parallel execution of a sharded network.

:class:`Federation` runs one forked worker process per shard and
coordinates them through the time-window barrier protocol of
:mod:`repro.sim.shard`:

1. The full topology is built *in the parent* (closures, live objects —
   nothing needs pickling), then the parent forks one worker per shard.
   Each worker inherits a copy-on-write snapshot of the whole network
   but only ever executes its own shard's simulator.
2. Rounds: the parent gathers every shard's next-event time, computes
   the window ``[M, M + L)`` (``M`` = global minimum, ``L`` = global
   minimum cut-link delay), and broadcasts it together with each
   shard's inbound boundary messages (wire-format segments, sorted by
   ``(arrival, source shard, message seq)``).  Workers execute the
   window and return their outbox.  The final window at the horizon is
   inclusive; messages born there arrive strictly beyond the horizon.
3. ``collect(net, shard)`` runs in each worker to extract results (per
   the contract it must only read shard-local state); the parent
   returns them in shard order.

Only the window descriptors, wire segments and collected values cross
the pipes, so the protocol is deterministic: the same seed, shard count
and horizon produce byte-identical collected values whether the
federation runs forked, in-process under the merged driver, or not
sharded at all — `tests/test_federation.py` pins this.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.sim.gcscope import paused
from repro.sim.shard import Message, ShardingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

# A builder populates an empty (sharded) Network; a collector extracts
# one shard's results after the run.
Builder = Callable[["Network"], Any]
Collector = Callable[["Network", int], Any]


def _default_collect(net: "Network", shard: int) -> None:
    return None


@dataclass
class FederationResult:
    """Outcome of one federated run."""

    shard_values: List[Any]
    mode: str  # "serial" | "merged" | "processes"
    shards: int
    events: int = 0
    windows: int = 0
    wall_seconds: float = 0.0

    @property
    def values(self) -> List[Any]:
        return self.shard_values


def _federation_worker_main(
    net: "Network", shard: int, conn: Any, collect: Collector
) -> None:
    """Entry point of a forked shard worker (one per shard).

    Speaks the window protocol over ``conn`` until the parent sends the
    ``collect`` command, then returns the shard's collected value.
    """
    try:
        group = net._shards
        assert group is not None
        group.enter_worker(shard)
        sim = group.sims[shard]
        conn.send(("ready", sim.next_event_time()))
        with paused():  # the parent-driven windows are the whole lifetime
            while True:
                command = conn.recv()
                kind = command[0]
                if kind == "window":
                    _, horizon, inclusive, messages = command
                    next_time, executed, outbound = group.run_worker_window(
                        horizon, inclusive, messages
                    )
                    conn.send(("done", next_time, executed, outbound))
                elif kind == "collect":
                    conn.send(("result", collect(net, shard)))
                    return
                else:  # pragma: no cover - protocol misuse
                    raise ShardingError(f"unknown federation command {kind!r}")
    except BaseException as error:  # recorded: shipped to the parent, which raises
        try:
            conn.send(("error", f"{type(error).__name__}: {error}\n{traceback.format_exc()}"))
        except OSError:  # parent already gone
            pass
    finally:
        conn.close()


class Federation:
    """Build a sharded network and run it, one process per shard.

    ``build(net)`` wires the topology (hosts, paths, apps) into the
    sharded ``net`` it is given; ``collect(net, shard)`` extracts one
    shard's results afterwards.  ``run(until)`` returns a
    :class:`FederationResult` with the collected values in shard order.

    Runs in-process instead — mode ``"serial"`` with one shard, else
    ``"merged"`` (:meth:`ShardGroup.run_merged`, same results) — when
    processes are unavailable (no ``os.fork``) or unsafe (middlebox
    elements on a cut path, whose state must not be forked into
    diverging copies).
    """

    def __init__(
        self,
        build: Builder,
        *,
        shards: int,
        seed: int = 1,
        collect: Optional[Collector] = None,
    ):
        self.build = build
        self.shards = shards
        self.seed = seed
        self.collect = collect if collect is not None else _default_collect

    # ------------------------------------------------------------------
    def run(self, until: float) -> FederationResult:
        from repro.net.network import Network

        started = time.perf_counter()  # analyze: ok(DET02): wall-clock perf metering only
        net = Network(seed=self.seed, shards=self.shards)
        self.build(net)
        group = net._shards
        if group is None or group.has_cut_elements or not hasattr(os, "fork"):
            events = net.sim.run(until=until)
            values = [self.collect(net, shard) for shard in range(net.shard_count)]
            mode = "serial" if group is None else "merged"
            windows = 0
        else:
            values, events, windows = self._run_processes(net, until)
            mode = "processes"
        return FederationResult(
            shard_values=values,
            mode=mode,
            shards=net.shard_count,
            events=events,
            windows=windows,
            wall_seconds=time.perf_counter() - started,  # analyze: ok(DET02): wall-clock perf metering only
        )

    # ------------------------------------------------------------------
    def _run_processes(self, net: "Network", until: float) -> tuple[list, int, int]:
        group = net._shards
        assert group is not None
        count = group.count
        lookahead = group.lookahead
        boundaries = group.boundaries
        context = multiprocessing.get_context("fork")
        parent_ends = []
        workers = []
        try:
            for shard in range(count):
                parent_end, child_end = context.Pipe()
                worker = context.Process(
                    target=_federation_worker_main,
                    args=(net, shard, child_end, self.collect),
                    daemon=True,
                    name=f"repro-shard-{shard}",
                )
                worker.start()
                child_end.close()
                parent_ends.append(parent_end)
                workers.append(worker)

            nexts = [self._receive(parent_ends[k], "ready")[1] for k in range(count)]
            inboxes: list[list[Message]] = [[] for _ in range(count)]
            events = 0
            windows = 0
            while True:
                m = inf
                for shard in range(count):
                    t = nexts[shard]
                    for message in inboxes[shard]:
                        if message[0] < t:
                            t = message[0]
                    if t < m:
                        m = t
                inclusive = m == inf or m + lookahead > until
                horizon = until if inclusive else m + lookahead
                for shard in range(count):
                    parent_ends[shard].send(("window", horizon, inclusive, inboxes[shard]))
                    inboxes[shard] = []
                for shard in range(count):
                    reply = self._receive(parent_ends[shard], "done")
                    nexts[shard] = reply[1]
                    events += reply[2]
                    for message in reply[3]:
                        inboxes[boundaries[message[3]].target].append(message)
                windows += 1
                if inclusive:
                    break
            values = []
            for shard in range(count):
                parent_ends[shard].send(("collect",))
                values.append(self._receive(parent_ends[shard], "result")[1])
            for worker in workers:
                worker.join(timeout=30)
            return values, events, windows
        finally:
            for parent_end in parent_ends:
                parent_end.close()
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
                    worker.join(timeout=5)

    @staticmethod
    def _receive(conn: Any, expected: str) -> tuple:
        try:
            reply = conn.recv()
        except EOFError as error:
            raise ShardingError(
                "a shard worker exited without replying (crashed before "
                "reaching the error handler?)"
            ) from error
        if reply[0] == "error":
            raise ShardingError(f"shard worker failed:\n{reply[1]}")
        if reply[0] != expected:
            raise ShardingError(f"expected {expected!r} from worker, got {reply[0]!r}")
        return reply
