"""Unit tests for the single-sim hot-path fast paths.

Each optimization has a behavioural contract this file pins down:

* ``Simulator.pending`` -- plain heap entries plus armed timers -- must
  agree with a brute-force count through schedule / Timer.stop / run;
  stopping a timer twice, or after it fired, must not decrement twice,
  and an armed timer counts once however many heap entries it left;
* ``ReassemblyQueue.extract_in_order`` drains a 1k-block queue without
  ``pop(0)`` quadratics and returns exactly the contiguous prefix;
* ``Segment.options_length`` is cached and the cache is invalidated by
  every supported mutation path (setter, strip, in-place append) —
  including reading the size *before* stripping.
"""

import pytest

from repro.net.options import MSSOption, SACKPermitted, TimestampsOption, options_length
from repro.net.packet import Endpoint, Segment
from repro.sim.engine import Simulator, Timer, events_run_total
from repro.sim.wheel import _TIMER
from repro.tcp.buffer import ByteStream, ReassemblyQueue


def brute_force_pending(sim: Simulator) -> int:
    # Every plain heap entry is a live (time, seq, fn, a0, a1) tuple --
    # nothing pushed that way can be cancelled.  Timer entries may be
    # stale, so count the distinct armed timers the heap holds instead
    # of trusting any one entry.
    plain = 0
    armed = set()
    for entry in sim._queue:
        if entry[2] is not _TIMER:
            plain += 1
        elif entry[3].running:
            armed.add(id(entry[3]))
    return plain + len(armed)


def arm(sim: Simulator, delay: float) -> Timer:
    timer = Timer(sim, lambda: None)
    timer.start(delay)
    return timer


class TestPendingCounter:
    def test_matches_brute_force_through_lifecycle(self):
        sim = Simulator()
        timers = [arm(sim, 0.1 * i) for i in range(10)]
        for i in range(10):
            sim.schedule(0.1 * i, lambda: None)
        assert sim.pending == brute_force_pending(sim) == 20
        for timer in timers[::2]:
            timer.stop()
        assert sim.pending == brute_force_pending(sim) == 15
        sim.run()
        assert sim.pending == brute_force_pending(sim) == 0

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        timer = arm(sim, 1.0)
        sim.schedule(2.0, lambda: None)
        timer.stop()
        timer.stop()
        timer.stop()
        assert sim.pending == brute_force_pending(sim) == 1

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        timer = arm(sim, 0.5)
        sim.schedule(1.0, lambda: None)
        sim.run(until=0.7)
        assert sim.pending == 1
        timer.stop()  # already fired; must not touch the counter
        assert sim.pending == brute_force_pending(sim) == 1

    def test_cancel_inside_callback(self):
        sim = Simulator()
        later = arm(sim, 2.0)
        sim.schedule(1.0, later.stop)
        sim.run()
        assert sim.pending == 0
        assert sim.now == 1.0  # the stopped timer never advanced time

    def test_step_keeps_counter_accurate(self):
        sim = Simulator()
        first = arm(sim, 1.0)
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        first.stop()
        assert sim.run(max_events=1) == 1  # the stopped timer is not an event
        assert sim.now == 2.0
        assert sim.pending == brute_force_pending(sim) == 1

    def test_timer_restart_churn_stays_consistent(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for _ in range(500):
            timer.restart(10.0)
        assert sim.pending == 1
        sim.run()
        assert fired == [10.0]
        assert sim.pending == 0

    def test_anchor_before_deadline_counts_once(self):
        # start(1.0); restart(5.0) leaves one heap entry at 1.0 whose seq
        # no longer matches the timer's: the armed timer still counts.
        sim = Simulator()
        timer = arm(sim, 1.0)
        timer.restart(5.0)
        assert sim.pending == brute_force_pending(sim) == 1
        # restart to earlier: a second entry, still one armed timer.
        timer.restart(0.5)
        assert len(sim._queue) == 2
        assert sim.pending == brute_force_pending(sim) == 1
        timer.stop()
        assert sim.pending == brute_force_pending(sim) == 0

    def test_events_run_total_is_monotonic(self):
        before = events_run_total()
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert events_run_total() == before + 5


class TestReassemblyDrain:
    def test_thousand_block_drain_is_exact(self):
        queue = ReassemblyQueue()
        blocks = [bytes([i % 256]) * 7 for i in range(1000)]
        # Insert in reverse so nothing merges on the way in.
        offset_of = {}
        offset = 0
        for index, block in enumerate(blocks):
            offset_of[index] = offset
            offset += len(block) + 1  # 1-byte gaps keep blocks disjoint
        for index in reversed(range(1000)):
            queue.insert(offset_of[index], blocks[index])
        assert queue.block_count == 1000
        # Fill the gaps, then a single extract drains everything.
        for index in range(999):
            queue.insert(offset_of[index] + 7, b"\xff")
        data = queue.extract_in_order(0)
        expected = b"\xff".join(blocks)
        assert data == expected
        assert queue.block_count == 0
        assert queue.buffered_bytes == 0

    def test_thousand_stale_blocks_discarded_in_one_batch(self):
        # The old pop(0)-per-block drain made this O(n^2): a burst of
        # stale retransmissions below the cumulative ACK point.
        queue = ReassemblyQueue()
        for i in range(1000):
            queue.insert(8 * i, b"0123456")  # 7B blocks, 1B gaps
        assert queue.block_count == 1000
        assert queue.extract_in_order(8 * 1000) == b""
        assert queue.block_count == 0
        assert queue.buffered_bytes == 0

    def test_partial_drain_stops_at_gap(self):
        queue = ReassemblyQueue()
        queue.insert(0, b"abc")
        queue.insert(3, b"def")
        queue.insert(10, b"xyz")
        assert queue.extract_in_order(0) == b"abcdef"
        assert queue.block_count == 1
        assert queue.buffered_bytes == 3

    def test_stale_blocks_discarded(self):
        queue = ReassemblyQueue()
        queue.insert(0, b"old")
        queue.insert(100, b"new")
        assert queue.extract_in_order(50) == b""
        assert queue.block_count == 1  # only the live block remains
        assert queue.extract_in_order(100) == b"new"

    def test_skip_within_first_block(self):
        queue = ReassemblyQueue()
        queue.insert(0, b"abcdef")
        assert queue.extract_in_order(2) == b"cdef"
        assert queue.buffered_bytes == 0


class TestByteStreamPeek:
    def test_peek_returns_immutable_view(self):
        stream = ByteStream()
        stream.append(b"hello world")
        view = stream.peek(6, 5)
        assert view == b"world"
        # Zero-copy: a memoryview over the stream's immutable chunk.
        assert isinstance(view, memoryview)
        assert bytes(view) == b"world"
        with pytest.raises(TypeError):
            view[0] = 0  # views are read-only

    def test_peek_then_append_is_safe(self):
        # A leaked memoryview export would make this append() raise
        # BufferError (exports pin a bytearray's size).
        stream = ByteStream()
        stream.append(b"abcdef")
        assert stream.peek(0, 3) == b"abc"
        stream.append(b"ghi")
        assert stream.peek(6, 3) == b"ghi"

    def test_peek_across_release_compaction(self):
        stream = ByteStream()
        chunk = bytes(range(256)) * 512  # 128 KB, beyond compact threshold
        stream.append(chunk)
        stream.release_to(100_000)
        assert stream.peek(100_000, 10) == chunk[100_000:100_010]
        stream.append(b"tail")
        assert stream.peek(stream.tail - 4, 4) == b"tail"


class TestOptionsLengthCache:
    def _segment(self, options):
        return Segment(
            Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2), options=options
        )

    def test_cached_value_is_correct(self):
        options = [MSSOption(1460), SACKPermitted()]
        segment = self._segment(list(options))
        assert segment.options_length() == options_length(options)
        assert segment.options_length() == options_length(options)  # cached path

    def test_strip_after_size_read(self):
        segment = self._segment([MSSOption(1460), TimestampsOption(1, 2)])
        fat = segment.size_bytes
        removed = segment.remove_options(TimestampsOption)
        assert removed == 1
        assert segment.size_bytes == fat - 12  # 10B timestamps + 2B pad gone
        assert segment.options_length() == options_length(segment.options)

    def test_setter_invalidates(self):
        segment = self._segment([MSSOption(1460)])
        assert segment.options_length() == 4
        segment.options = [MSSOption(1460), TimestampsOption(1, 2)]
        assert segment.options_length() == options_length(segment.options)

    def test_inplace_append_invalidates(self):
        segment = self._segment([])
        assert segment.options_length() == 0
        segment.options.append(TimestampsOption(3, 4))
        assert segment.options_length() == 12

    def test_copy_does_not_share_cache_state(self):
        segment = self._segment([MSSOption(1460)])
        assert segment.size_bytes == 44
        clone = segment.copy()
        clone.options.append(TimestampsOption(5, 6))
        assert clone.options_length() == 16
        assert segment.options_length() == 4
