"""Round-trip time estimation and retransmission timeout (RFC 6298).

Beyond driving the RTO, the estimator exports ``srtt`` and ``min_rtt``:
the MPTCP scheduler picks the lowest-``srtt`` subflow with window space,
and mechanism M4 (cwnd capping) compares ``srtt`` against ``2 * min_rtt``
to detect a path whose network buffer it is needlessly filling.
"""

from __future__ import annotations

from typing import Optional


class RTTEstimator:
    """Jacobson/Karels smoothing with RFC 6298 RTO bounds."""

    ALPHA = 1 / 8
    BETA = 1 / 4
    K = 4
    # RFC 6298's bounds: a 1 s RTO before the first sample, a 200 ms
    # floor (Linux's TCP_RTO_MIN, below the RFC's 1 s), a 60 s ceiling
    # and a 1 ms clock tick.
    INITIAL_RTO = 1.0
    MIN_RTO = 0.2
    MAX_RTO = 60.0
    CLOCK_GRANULARITY = 0.001

    __slots__ = ("srtt", "rttvar", "min_rtt", "latest_rtt", "samples", "rto", "smoothed")

    def __init__(self):
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.min_rtt: Optional[float] = None
        self.latest_rtt: Optional[float] = None
        self.samples = 0
        # ``rto`` and ``smoothed`` are plain attributes, not properties:
        # the send path reads them on every ACK (timer restarts and
        # scheduler ordering), so they are updated once per sample()
        # instead of being recomputed behind a descriptor each read.
        self.rto = self.INITIAL_RTO
        self.smoothed = self.INITIAL_RTO  # srtt with a sane pre-sample default

    def sample(self, rtt: float) -> None:
        """Feed one RTT measurement (never from a retransmitted segment —
        Karn's rule is enforced by the caller)."""
        if rtt < 0:
            raise ValueError("negative RTT sample")
        if rtt < self.CLOCK_GRANULARITY:
            rtt = self.CLOCK_GRANULARITY
        self.latest_rtt = rtt
        self.samples += 1
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            assert self.rttvar is not None
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(self.srtt - rtt)
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        self.smoothed = self.srtt
        var = self.K * self.rttvar
        granularity = self.CLOCK_GRANULARITY
        rto = self.srtt + (var if var > granularity else granularity)
        if rto < self.MIN_RTO:
            rto = self.MIN_RTO
        elif rto > self.MAX_RTO:
            rto = self.MAX_RTO
        self.rto = rto

    def backoff(self) -> float:
        """Exponential backoff after a retransmission timeout."""
        self.rto = min(self.MAX_RTO, self.rto * 2)
        return self.rto

    def __repr__(self) -> str:  # pragma: no cover
        srtt = f"{self.srtt*1000:.1f}ms" if self.srtt is not None else "?"
        return f"<RTT srtt={srtt} rto={self.rto*1000:.0f}ms>"
