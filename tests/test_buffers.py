"""ByteStream and ReassemblyQueue: unit + property tests against a
reference model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.buffer import ByteStream, ReassemblyQueue


class TestByteStream:
    def test_append_read_roundtrip(self):
        stream = ByteStream()
        stream.append(b"hello ")
        stream.append(b"world")
        assert stream.peek(0, 11) == b"hello world"

    def test_peek_at_offset(self):
        stream = ByteStream()
        stream.append(b"abcdefgh")
        assert stream.peek(2, 3) == b"cde"

    def test_release_frees_memory(self):
        stream = ByteStream()
        stream.append(b"x" * 1000)
        stream.release_to(600)
        assert len(stream) == 400
        assert stream.head == 600
        assert stream.peek(600, 400) == b"x" * 400

    def test_peek_below_head_raises(self):
        stream = ByteStream()
        stream.append(b"abc")
        stream.release_to(2)
        with pytest.raises(IndexError):
            stream.peek(0, 1)

    def test_peek_past_tail_raises(self):
        stream = ByteStream()
        stream.append(b"abc")
        with pytest.raises(IndexError):
            stream.peek(0, 4)

    def test_release_past_tail_raises(self):
        stream = ByteStream()
        stream.append(b"abc")
        with pytest.raises(IndexError):
            stream.release_to(4)

    def test_release_backwards_is_noop(self):
        stream = ByteStream()
        stream.append(b"abcdef")
        stream.release_to(4)
        stream.release_to(2)  # older ack: ignored
        assert stream.head == 4

    def test_offsets_stay_absolute_after_release(self):
        stream = ByteStream()
        stream.append(b"x" * 100)
        stream.release_to(100)
        stream.append(b"data")
        assert (stream.head, stream.tail) == (100, 104)
        assert stream.peek(102, 2) == b"ta"

    def test_compaction_preserves_content(self):
        stream = ByteStream()
        big = bytes(range(256)) * 1024  # 256 KiB
        stream.append(big)
        stream.release_to(200_000)  # force internal compaction
        stream.append(b"tail")
        assert stream.peek(200_000, len(big) - 200_000) == big[200_000:]
        assert stream.peek(len(big), 4) == b"tail"

    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=20))
    def test_matches_reference_bytes(self, chunks):
        stream = ByteStream()
        reference = b""
        for chunk in chunks:
            stream.append(chunk)
            reference += chunk
        release = len(reference) // 2
        stream.release_to(release)
        assert stream.peek(release, len(reference) - release) == reference[release:]
        assert len(stream) == len(reference) - release


class TestReassemblyQueue:
    def test_in_order_extract(self):
        queue = ReassemblyQueue()
        queue.insert(0, b"abc")
        assert queue.extract_in_order(0) == b"abc"
        assert len(queue) == 0

    def test_out_of_order_held(self):
        queue = ReassemblyQueue()
        queue.insert(5, b"later")
        assert queue.extract_in_order(0) == b""
        assert len(queue) == 5

    def test_gap_fill_releases_everything(self):
        queue = ReassemblyQueue()
        queue.insert(3, b"def")
        queue.insert(0, b"abc")
        assert queue.extract_in_order(0) == b"abcdef"

    def test_duplicate_data_not_double_counted(self):
        queue = ReassemblyQueue()
        queue.insert(0, b"abcd")
        stored = queue.insert(0, b"abcd")
        assert stored == 0
        assert len(queue) == 4

    def test_overlap_existing_bytes_win(self):
        """A normalizer-style conflict: first copy is authoritative."""
        queue = ReassemblyQueue()
        queue.insert(0, b"AAAA")
        queue.insert(2, b"bbbb")  # overlaps [2,4)
        assert queue.extract_in_order(0) == b"AAAAbb"

    def test_partial_overlap_head(self):
        queue = ReassemblyQueue()
        queue.insert(2, b"cdef")
        stored = queue.insert(0, b"abcd")  # only [0,2) is new
        assert stored == 2
        assert queue.extract_in_order(0) == b"abcdef"

    def test_limit_discards_beyond_window(self):
        queue = ReassemblyQueue()
        stored = queue.insert(0, b"abcdef", limit=4)
        assert stored == 4
        assert queue.extract_in_order(0) == b"abcd"

    def test_limit_fully_beyond_window(self):
        queue = ReassemblyQueue()
        assert queue.insert(10, b"abc", limit=10) == 0
        assert len(queue) == 0

    def test_stale_blocks_dropped_on_extract(self):
        queue = ReassemblyQueue()
        queue.insert(0, b"abcd")
        assert queue.extract_in_order(2) == b"cd"  # bytes below 2 dropped

    def test_sack_blocks_merged_runs(self):
        queue = ReassemblyQueue()
        queue.insert(10, b"xx")
        queue.insert(12, b"yy")  # adjacent: merges
        queue.insert(20, b"zz")
        assert queue.sack_blocks() == [(10, 14), (20, 22)]

    def test_block_count_merging(self):
        queue = ReassemblyQueue()
        queue.insert(0, b"ab")
        queue.insert(4, b"ef")
        assert queue.block_count == 2
        queue.insert(2, b"cd")  # bridges them
        assert queue.block_count == 1

    def test_max_offset(self):
        queue = ReassemblyQueue()
        assert queue.max_offset == 0
        queue.insert(7, b"abc")
        assert queue.max_offset == 10

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=120), st.integers(1, 40)),
            min_size=1,
            max_size=25,
        )
    )
    def test_matches_reference_reassembly(self, segments):
        """Any insertion order/overlap pattern reassembles the stream."""
        source = bytes((i * 7 + 3) % 256 for i in range(200))
        queue = ReassemblyQueue()
        covered = set()
        for start, length in segments:
            queue.insert(start, source[start : start + length])
            covered.update(range(start, min(start + length, len(source))))
        # Extract from 0: we should get exactly the contiguous prefix.
        prefix_end = 0
        while prefix_end in covered:
            prefix_end += 1
        data = queue.extract_in_order(0)
        assert data == source[:prefix_end]
        # Remaining buffered bytes equal the non-prefix covered set.
        assert len(queue) == len([i for i in covered if i >= prefix_end])
