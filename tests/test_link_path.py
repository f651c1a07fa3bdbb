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
        path.deliver_fwd = received.append
        path.send(seg(), FORWARD)
        sim.run()
        assert [entry[0] for entry in log] == ["e0", "e1"]
        assert len(received) == 1

    def test_reverse_traverses_elements_backwards(self):
        sim = Simulator()
        log = []
        path = make_path(sim, [Tag("e0", log), Tag("e1", log)])
        path.deliver_rev = lambda s: None
        path.send(seg(), REVERSE)
        sim.run()
        assert [entry[0] for entry in log] == ["e1", "e0"]

    def test_element_can_drop(self):
        sim = Simulator()
        path = make_path(sim, [Dropper()])
        received = []
        path.deliver_fwd = received.append
        path.send(seg(), FORWARD)
        sim.run()
        assert received == []

    def test_injected_reverse_segment_reaches_origin(self):
        sim = Simulator()
        log = []
        path = make_path(sim, [Tag("before", log), ReverseEcho(), Tag("after", log)])
        fwd, rev = [], []
        path.deliver_fwd = fwd.append
        path.deliver_rev = rev.append
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
        path.deliver_fwd = lambda s: None
        seen = []
        path.add_tap(lambda p, s, d: seen.append(d))
        path.send(seg(), FORWARD)
        sim.run()
        assert seen == [FORWARD]

    def test_round_trip_is_both_delays_plus_serialisation(self):
        sim = Simulator()
        path = make_path(sim, [])
        arrivals = []
        path.deliver_fwd = lambda s: path.send(seg(), -FORWARD)  # echo it back
        path.deliver_rev = lambda s: arrivals.append(sim.now)
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
        path.deliver_fwd = lambda s: arrivals.append(sim.now)
        path.send(seg(), FORWARD)
        sim.run()
        assert len(arrivals) == 1
        assert arrivals[0] >= 0.05
