"""Discrete-event simulation engine.

The whole reproduction runs on this engine: links, retransmission timers,
delayed ACKs and applications all schedule callbacks on a shared
:class:`Simulator`.  Time is a float number of seconds; execution is
deterministic (ties broken by insertion order) so every experiment is
exactly reproducible from its seed.
"""

from repro.sim.engine import Simulator, Timer, events_run_total
from repro.sim.rng import SeededRNG

__all__ = ["Simulator", "Timer", "SeededRNG", "events_run_total"]
