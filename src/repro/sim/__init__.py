"""Discrete-event simulation engine.

The whole reproduction runs on this engine: links, retransmission timers,
delayed ACKs and applications all schedule callbacks on a shared
:class:`Simulator`.  Time is a float number of seconds; execution is
deterministic (ties broken by insertion order) so every experiment is
exactly reproducible from its seed.

Large scenarios can be partitioned across several simulators with
conservative lookahead synchronisation — see :mod:`repro.sim.shard`
(the in-process merged driver and one shard's side of the window
protocol) and :mod:`repro.sim.federation` (one forked worker process
per shard, or the merged driver when forking is unavailable or unsafe).
"""

from repro.sim.engine import Simulator, Timer, events_run_total

# NOTE: repro.sim.shard / repro.sim.federation are intentionally not
# imported here — repro.sim must stay import-light (and free of cycles:
# shard boundaries deserialise repro.net segments).
from repro.sim.rng import SeededRNG

__all__ = ["Simulator", "Timer", "SeededRNG", "events_run_total"]
