"""Links (rate, delay, queue, loss) and paths (pipelines, injection)."""

import pytest

from repro.net.link import Link, buffer_bytes_for
from repro.net.packet import Endpoint, Segment
from repro.net.path import FORWARD, REVERSE, Path, PathElement
from repro.sim import Simulator
from repro.sim.rng import SeededRNG

A = Endpoint("a", 1)
B = Endpoint("b", 2)


def seg(size=1000, **kwargs):
    return Segment(A, B, payload=b"x" * (size - 40), **kwargs)


class TestLink:
    def test_serialization_plus_propagation_delay(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8e6, delay=0.01)
        arrivals = []
        link.deliver = lambda s: arrivals.append(sim.now)
        link.send(seg(1000))  # 1000B at 8Mb/s = 1ms tx
        sim.run()
        assert arrivals == [pytest.approx(0.011)]

    def test_fifo_order(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, delay=0.0)
        order = []
        link.deliver = lambda s: order.append(len(s.payload))
        link.send(seg(500))
        link.send(seg(700))
        link.send(seg(900))
        sim.run()
        assert order == [460, 660, 860]

    def test_back_to_back_serialization(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, delay=0.0)
        arrivals = []
        link.deliver = lambda s: arrivals.append(sim.now)
        link.send(seg(1000))
        link.send(seg(1000))
        sim.run()
        assert arrivals == [pytest.approx(0.008), pytest.approx(0.016)]

    def test_droptail_queue(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, delay=0.0, queue_bytes=2500)
        delivered = []
        link.deliver = delivered.append
        for _ in range(10):
            link.send(seg(1000))
        sim.run()
        # 1 transmitting + 2 queued (2000B <= 2500); rest dropped.
        assert len(delivered) == 3
        assert link.stats.packets_dropped_queue == 7

    def test_random_loss(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e9, delay=0.0, loss=0.5, rng=SeededRNG(3, "loss"))
        delivered = []
        link.deliver = delivered.append
        for _ in range(1000):
            link.send(seg(100))
        sim.run()
        assert 400 < len(delivered) < 600
        assert link.stats.packets_dropped_loss == 1000 - len(delivered)

    def test_busy_time_accounting(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, delay=0.0)
        link.deliver = lambda s: None
        link.send(seg(1000))
        sim.run()
        assert link.stats.busy_time == pytest.approx(0.008)
        assert link.stats.utilization(0.016) == pytest.approx(0.5)

    def test_buffer_bytes_for(self):
        assert buffer_bytes_for(8e6, 0.08) == 80_000

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            Link(Simulator(), rate_bps=0, delay=0.01)


# A 1024-byte segment at 2**20 b/s serialises in exactly 2**-7 s, so
# every time below is a dyadic float and compares with ==.
RATE = 2.0**20
TX = 1024 * 8 / RATE


class TestTransmitter:
    """The link as a virtual clock: a segment's departure is fixed when
    the link accepts it, and its delivery is the one event it costs."""

    def test_back_to_back_arrivals_are_exact(self):
        sim = Simulator()
        link = Link(sim, rate_bps=RATE, delay=0.25)
        arrivals = []
        link.deliver = lambda s: arrivals.append(sim.now)
        sim.schedule_at(0.5, lambda: [link.send(seg(1024)) for _ in range(4)])
        sim.run()
        assert TX == 2.0**-7
        assert arrivals == [0.5 + k * TX + 0.25 for k in (1, 2, 3, 4)]
        assert sim.events_run == 1 + 4  # the offering event plus one delivery each

    @pytest.mark.parametrize("queue_bytes, accepted", [(2000, 3), (1999, 2)])
    def test_droptail_boundary_excludes_the_segment_on_the_wire(self, queue_bytes, accepted):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, delay=0.0, queue_bytes=queue_bytes)
        delivered = []
        link.deliver = delivered.append
        for _ in range(3):  # one on the wire, then 2000 B waiting
            link.send(seg(1000))
        sim.run()
        assert len(delivered) == accepted
        assert link.stats.packets_dropped_queue == 3 - accepted

    def test_offer_at_the_end_instant_waits_behind_the_segment_on_the_wire(self):
        sim = Simulator()
        link = Link(sim, rate_bps=RATE, delay=0.0, queue_bytes=1024)
        arrivals = []
        link.deliver = lambda s: arrivals.append(sim.now)
        # Scheduled first, so it runs before anything else at TX.
        sim.schedule_at(TX, lambda: link.send(seg(1024)))
        link.send(seg(1024))  # on the wire until TX
        link.send(seg(1024))  # waiting: the queue is exactly full
        sim.run()
        # At TX the first is still on the wire, so the second still
        # waits and the third finds the queue full.
        assert arrivals == [TX, 2 * TX]
        assert link.stats.packets_dropped_queue == 1

    def test_stats_settle_through_now_inclusive(self):
        sim = Simulator()
        link = Link(sim, rate_bps=RATE, delay=1.0)
        link.send(seg(1024))
        link.send(seg(1024))
        sim.run(until=TX / 2)
        assert (link.stats.packets_sent, link.stats.busy_time) == (0, TX)
        sim.run(until=TX)
        assert (link.stats.packets_sent, link.stats.busy_time) == (1, 2 * TX)
        sim.run(until=2 * TX)
        assert link.stats.packets_sent == 2

    def test_simultaneous_deliveries_run_in_acceptance_order(self):
        sim = Simulator()
        link_a = Link(sim, rate_bps=RATE, delay=0.1)
        link_b = Link(sim, rate_bps=RATE, delay=0.1)
        order = []
        link_a.deliver = lambda s: order.append(("a", s.seq, sim.now))
        link_b.deliver = lambda s: order.append(("b", s.seq, sim.now))
        # b is offered at TX and ends its serialisation at 2 TX, exactly
        # when a's queued second segment does, but a's was accepted first.
        sim.schedule_at(TX, lambda: link_b.send(seg(1024, seq=7)))
        link_a.send(seg(1024, seq=1))
        link_a.send(seg(1024, seq=2))
        sim.run()
        assert order == [("a", 1, TX + 0.1), ("a", 2, 2 * TX + 0.1), ("b", 7, 2 * TX + 0.1)]


class Tag(PathElement):
    """Stamps segments so tests can observe traversal order."""

    def __init__(self, label, log):
        super().__init__(label)
        self.label = label
        self.log = log

    def process(self, segment, direction):
        self.log.append((self.label, direction))
        return [(segment, direction)]


class Dropper(PathElement):
    def process(self, segment, direction):
        return []


class ReverseEcho(PathElement):
    """Injects a reverse copy of every forward segment (proxy-style)."""

    def process(self, segment, direction):
        if direction == FORWARD:
            echo = segment.copy()
            echo.src, echo.dst = segment.dst, segment.src
            return [(segment, direction), (echo, REVERSE)]
        return [(segment, direction)]


def make_path(sim, elements):
    fwd = Link(sim, rate_bps=1e9, delay=0.001)
    rev = Link(sim, rate_bps=1e9, delay=0.001)
    return Path(sim, fwd, rev, elements)


class TestPath:
    def test_forward_traverses_elements_in_order(self):
        sim = Simulator()
        log = []
        path = make_path(sim, [Tag("e0", log), Tag("e1", log)])
        received = []
        path.link_fwd.deliver = received.append
        path.send(seg(), FORWARD)
        sim.run()
        assert [entry[0] for entry in log] == ["e0", "e1"]
        assert len(received) == 1

    def test_reverse_traverses_elements_backwards(self):
        sim = Simulator()
        log = []
        path = make_path(sim, [Tag("e0", log), Tag("e1", log)])
        path.link_rev.deliver = lambda s: None
        path.send(seg(), REVERSE)
        sim.run()
        assert [entry[0] for entry in log] == ["e1", "e0"]

    def test_element_can_drop(self):
        sim = Simulator()
        path = make_path(sim, [Dropper()])
        received = []
        path.link_fwd.deliver = received.append
        path.send(seg(), FORWARD)
        sim.run()
        assert received == []

    def test_injected_reverse_segment_reaches_origin(self):
        sim = Simulator()
        log = []
        path = make_path(sim, [Tag("before", log), ReverseEcho(), Tag("after", log)])
        fwd, rev = [], []
        path.link_fwd.deliver = fwd.append
        path.link_rev.deliver = rev.append
        path.send(seg(), FORWARD)
        sim.run()
        assert len(fwd) == 1 and len(rev) == 1
        # The echo re-traverses only the elements before the injector.
        labels = [entry for entry in log]
        assert ("before", REVERSE) in labels
        assert ("after", REVERSE) not in labels

    def test_taps_see_sent_segments(self):
        sim = Simulator()
        path = make_path(sim, [])
        path.link_fwd.deliver = lambda s: None
        seen = []
        path.add_tap(lambda p, s, d: seen.append(d))
        path.send(seg(), FORWARD)
        sim.run()
        assert seen == [FORWARD]

    def test_round_trip_is_both_delays_plus_serialisation(self):
        sim = Simulator()
        path = make_path(sim, [])
        arrivals = []
        path.link_fwd.deliver = lambda s: path.send(seg(), -FORWARD)  # echo it back
        path.link_rev.deliver = lambda s: arrivals.append(sim.now)
        path.send(seg(), FORWARD)
        sim.run()
        # 1 ms propagation each way plus 8 us per 1000 B at 1 Gb/s.
        assert arrivals == [pytest.approx(0.002 + 2 * 8e-6)]

    def test_deferred_injection_via_inject(self):
        """An element may hold a segment and emit it later (coalescer)."""
        sim = Simulator()

        class Holder(PathElement):
            def process(self, segment, direction):
                self.sim.schedule(0.05, self.inject, segment, direction)
                return []

        path = make_path(sim, [Holder()])
        arrivals = []
        path.link_fwd.deliver = lambda s: arrivals.append(sim.now)
        path.send(seg(), FORWARD)
        sim.run()
        assert len(arrivals) == 1
        assert arrivals[0] >= 0.05
