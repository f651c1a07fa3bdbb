"""Coupled congestion control (LIA) from Wischik et al. [23].

The paper treats congestion control as a solved substrate ("described
elsewhere"), but the evaluation depends on it: linked increases are what
move traffic off congested paths, and §4.2.1 notes MPTCP's controller
over-estimates very lossy subflows (loss rates > 10%), which our Fig. 6a
reproduction inherits.

Per ACK on subflow *i* in congestion avoidance::

    increase = min( alpha * acked * mss / cwnd_total ,
                    acked * mss / cwnd_i )

with::

    alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / (sum_i(cwnd_i / rtt_i))^2

Slow start, loss response and timeouts stay per-subflow NewReno.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.tcp.cc import NewReno

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator
    from repro.tcp.rtt import RTTEstimator


class _HandshakeRTT:
    """The RTT a controller reads until its subflow is established and
    hands over its own :class:`~repro.tcp.rtt.RTTEstimator`."""

    __slots__ = ()
    smoothed = 0.1


HANDSHAKE_RTT = _HandshakeRTT()


class CoupledGroup:
    """The shared state linking one connection's subflow controllers."""

    __slots__ = ("controllers", "_alpha_cache", "_alpha_computed_at", "alpha_recompute_interval")

    def __init__(self) -> None:
        self.controllers: list["LIAController"] = []
        self._alpha_cache: Optional[float] = None
        self._alpha_computed_at: float = -1.0
        self.alpha_recompute_interval = 0.01  # seconds of simulated time

    def register(self, controller: "LIAController") -> None:
        self.controllers.append(controller)
        self._alpha_cache = None

    def unregister(self, controller: "LIAController") -> None:
        if controller in self.controllers:
            self.controllers.remove(controller)
        self._alpha_cache = None

    def invalidate(self) -> None:
        self._alpha_cache = None

    def total_cwnd(self) -> int:
        # Explicit loop: this runs per congestion-avoidance ACK, and a
        # genexpr would resume a generator frame per controller.
        total = 0
        for c in self.controllers:
            if c.active:
                total += c.cwnd
        return total

    def alpha(self, now: float) -> float:
        """LIA's aggressiveness factor, recomputed at most every
        ``alpha_recompute_interval`` (the kernel does the same to keep it
        off the per-ACK fast path)."""
        if (
            self._alpha_cache is not None
            and now - self._alpha_computed_at < self.alpha_recompute_interval
        ):
            return self._alpha_cache
        best = 0.0
        denominator = 0.0
        total = 0
        for controller in self.controllers:
            if not controller.active:
                continue
            rtt = max(controller.rtt.smoothed, 1e-6)
            cwnd = controller.cwnd
            total += cwnd
            best = max(best, cwnd / (rtt * rtt))
            denominator += cwnd / rtt
        if denominator <= 0 or total <= 0:
            alpha = 1.0
        else:
            alpha = total * best / (denominator * denominator)
        self._alpha_cache = alpha
        self._alpha_computed_at = now
        return alpha


class LIAController(NewReno):
    """NewReno with the linked-increase rule in congestion avoidance.

    ``rtt`` is anything with a ``smoothed`` RTT in seconds (the subflow's
    estimator once established) and ``sim`` anything with a ``now``.
    """

    __slots__ = ("group", "sim", "rtt", "active")

    def __init__(
        self,
        mss: int,
        initial_cwnd_segments: int,
        group: CoupledGroup,
        sim: "Simulator",
        rtt: "RTTEstimator | _HandshakeRTT" = HANDSHAKE_RTT,
    ):
        super().__init__(mss, initial_cwnd_segments)
        self.group = group
        self.sim = sim
        self.rtt = rtt
        self.active = True
        group.register(self)

    def _congestion_avoidance(self, acked_bytes: int) -> None:
        total = self.group.total_cwnd()
        if total <= 0:
            super()._congestion_avoidance(acked_bytes)
            return
        alpha = self.group.alpha(self.sim.now)
        increase = acked_bytes * self.mss
        linked = alpha * increase / total
        capped = increase / self.cwnd
        step = int(linked if linked < capped else capped)
        self.cwnd += step if step > 1 else 1

    def on_loss_event(self, flight_bytes: int) -> None:
        super().on_loss_event(flight_bytes)
        self.group.invalidate()

    def on_timeout(self, flight_bytes: int) -> None:
        super().on_timeout(flight_bytes)
        self.group.invalidate()

    def retire(self) -> None:
        """Remove this controller from the coupled group (subflow died)."""
        self.active = False
        self.group.unregister(self)
