"""Congestion control: NewReno, and the hooks the coupled controller and
mechanism M4 (cwnd capping) plug into.

The socket owns loss detection (dupacks, RTO) and fast-recovery window
inflation; the controller owns the cwnd/ssthresh arithmetic.  The coupled
(LIA) controller of Wischik et al. [23] lives in
:mod:`repro.mptcp.coupled` and only overrides the congestion-avoidance
increase.
"""

from __future__ import annotations

# RFC 6928's initial window, in segments.
INITIAL_CWND_SEGMENTS = 10


class NewReno:
    """Standard NewReno AIMD: +1 MSS per RTT in congestion avoidance."""

    __slots__ = ("mss", "cwnd", "ssthresh", "in_slow_start_count", "loss_events", "timeouts")

    def __init__(self, mss: int, initial_cwnd_segments: int = INITIAL_CWND_SEGMENTS):
        self.mss = mss
        self.cwnd = initial_cwnd_segments * mss
        self.ssthresh = 1 << 30  # "infinite" until the first loss event
        self.in_slow_start_count = 0
        self.loss_events = 0
        self.timeouts = 0

    # -- growth --------------------------------------------------------
    def on_ack(self, acked_bytes: int) -> None:
        """Called for every ACK that advances snd_una."""
        if self.cwnd < self.ssthresh:
            self._slow_start(acked_bytes)
        else:
            self._congestion_avoidance(acked_bytes)

    def _slow_start(self, acked_bytes: int) -> None:
        # RFC 3465 appropriate byte counting with L = 2*SMSS: a huge
        # cumulative jump (e.g. exiting recovery) must not explode cwnd.
        self.cwnd += min(acked_bytes, 2 * self.mss)
        self.in_slow_start_count += 1

    def _congestion_avoidance(self, acked_bytes: int) -> None:
        self.cwnd += max(1, acked_bytes * self.mss // self.cwnd)

    # -- loss ----------------------------------------------------------
    def on_loss_event(self, flight_bytes: int) -> None:
        """Fast-retransmit loss: multiplicative decrease."""
        self.loss_events += 1
        self.ssthresh = max(flight_bytes // 2, 2 * self.mss)
        self.cwnd = self.ssthresh

    def on_timeout(self, flight_bytes: int) -> None:
        """Retransmission timeout: collapse to one segment."""
        self.timeouts += 1
        self.ssthresh = max(flight_bytes // 2, 2 * self.mss)
        self.cwnd = self.mss

    # -- external adjustment (MPTCP mechanism M2 penalization) ----------
    def halve(self) -> None:
        """Penalize: halve cwnd and pull ssthresh down with it (§4.2 M2)."""
        self.cwnd = max(self.mss, self.cwnd // 2)
        self.ssthresh = max(2 * self.mss, self.cwnd)

    def set_cwnd(self, cwnd: int) -> None:
        self.cwnd = max(self.mss, cwnd)
