"""Zero-copy pins + randomized differential tests for the payload
buffers.

Payloads are read-only ``memoryview`` slices over immutable ``bytes``.
The pins check *identity*, not equality: a peek inside one chunk and
every splitter piece must share the original backing object, and
mutable input must be snapshotted.  The differential tests drive
``ByteStream`` and ``ReassemblyQueue`` with seeded random workloads
against naive pure-``bytes`` reference models and demand byte-for-byte
identical outputs — the guarantee that the rope/view machinery is
*invisible* except for speed.
"""

import random

import pytest

from repro.middlebox import SegmentSplitter
from repro.net.packet import ACK, Endpoint, Segment
from repro.net.path import FORWARD
from repro.tcp.buffer import ByteStream, ReassemblyQueue


class TestZeroCopy:
    def test_peek_within_one_chunk_views_the_appended_bytes(self):
        backing = bytes(range(256)) * 4
        stream = ByteStream()
        stream.append(backing)
        view = stream.peek(100, 300)
        assert type(view) is memoryview and view.readonly
        assert view.obj is backing
        assert view == backing[100:400]

    def test_view_over_bytes_is_stored_by_reference(self):
        backing = b"0123456789" * 10
        stream = ByteStream()
        stream.append(memoryview(backing)[10:60])
        assert stream.peek(5, 20).obj is backing

    def test_peek_across_chunks_joins_into_a_fresh_view(self):
        stream = ByteStream()
        stream.append(b"abc")
        stream.append(b"def")
        view = stream.peek(1, 4)
        assert type(view) is memoryview and view.readonly
        assert bytes(view) == b"bcde"

    @pytest.mark.parametrize(
        "make", [bytearray, lambda raw: memoryview(bytearray(raw))], ids=["bytearray", "writable-view"]
    )
    def test_mutable_append_is_snapshotted(self, make):
        source = make(b"hello world")
        stream = ByteStream()
        stream.append(source)
        source[0:5] = b"XXXXX"
        assert bytes(stream.peek(0, 11)) == b"hello world"
        assert stream.peek(0, 11).readonly

    def test_read_only_view_over_a_bytearray_is_snapshotted(self):
        source = bytearray(b"abcdef")
        stream = ByteStream()
        stream.append(memoryview(source).toreadonly())
        source[0] = ord("X")
        assert bytes(stream.peek(0, 6)) == b"abcdef"

    def test_mutable_insert_is_snapshotted(self):
        source = bytearray(b"abcdef")
        queue = ReassemblyQueue()
        queue.insert(0, source)
        source[0] = ord("X")
        assert bytes(queue.extract_in_order(0)) == b"abcdef"

    def test_single_run_extract_is_the_inserted_view(self):
        backing = b"_payload_"
        queue = ReassemblyQueue()
        queue.insert(10, memoryview(backing)[1:8])
        out = queue.extract_in_order(10)
        assert type(out) is memoryview and out.obj is backing
        assert out == b"payload"

    def test_splitter_pieces_share_the_original_backing(self):
        backing = bytes(range(200)) * 10
        payload = memoryview(backing)[7:1907]
        segment = Segment(
            Endpoint("10.0.0.1", 1000), Endpoint("10.9.0.1", 80), seq=100, flags=ACK,
            payload=payload,
        )
        pieces = SegmentSplitter(mss=512).process(segment, FORWARD)
        assert [piece.payload_len for piece, _ in pieces] == [512, 512, 512, 364]
        for piece, _ in pieces:
            assert type(piece.payload) is memoryview
            assert piece.payload.obj is backing
        assert b"".join(piece.payload for piece, _ in pieces) == backing[7:1907]


class BytesReferenceStream:
    """Naive ByteStream: one plain bytes object, copies everywhere."""

    def __init__(self, base: int = 0):
        self._data = b""
        self.head = base
        self.tail = base
        self._base = base

    def append(self, data: bytes) -> int:
        self._data += bytes(data)
        self.tail += len(data)
        return self.tail

    def peek(self, offset: int, length: int) -> bytes:
        assert offset >= self.head and offset + length <= self.tail
        start = offset - self._base
        return self._data[start : start + length]

    def release_to(self, offset: int) -> None:
        if offset <= self.head:
            return
        self.head = offset

    def __len__(self) -> int:
        return self.tail - self.head


class BytesReferenceReassembly:
    """Naive reassembly: a dict byte-offset -> byte, existing wins."""

    def __init__(self):
        self._bytes: dict[int, int] = {}

    def insert(self, start: int, data: bytes, limit=None) -> int:
        stored = 0
        for i, value in enumerate(bytes(data)):
            offset = start + i
            if limit is not None and offset >= limit:
                break
            if offset not in self._bytes:
                self._bytes[offset] = value
                stored += 1
        return stored

    def extract_in_order(self, next_offset: int) -> bytes:
        for offset in [o for o in self._bytes if o < next_offset]:
            del self._bytes[offset]  # stale
        out = bytearray()
        while next_offset in self._bytes:
            out.append(self._bytes.pop(next_offset))
            next_offset += 1
        return bytes(out)

    def sack_blocks(self, max_blocks: int = 3):
        blocks = []
        offsets = sorted(self._bytes)
        for offset in offsets:
            if blocks and blocks[-1][1] == offset:
                blocks[-1][1] = offset + 1
            else:
                blocks.append([offset, offset + 1])
        return [tuple(b) for b in blocks[:max_blocks]]

    @property
    def block_count(self) -> int:
        return len(self.sack_blocks(max_blocks=1 << 30))

    @property
    def max_offset(self) -> int:
        return max(self._bytes) + 1 if self._bytes else 0

    @property
    def buffered_bytes(self) -> int:
        return len(self._bytes)

    def __len__(self) -> int:
        return self.buffered_bytes


OPS_PER_SEED = 1200  # acceptance: >= 1000 randomized ops per seed


@pytest.mark.parametrize("seed", [1, 7, 42, 1234])
def test_bytestream_differential(seed):
    rng = random.Random(seed)
    stream = ByteStream()
    stream.append(bytes(17))
    stream.release_to(17)  # start the window away from offset 0
    reference = BytesReferenceStream(base=17)
    for _ in range(OPS_PER_SEED):
        op = rng.random()
        if op < 0.45:
            chunk = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 200)))
            # The real stream takes bytes, a window view or a mutable
            # copy at random; the reference always gets plain bytes.
            kind = rng.random()
            given = chunk
            if kind < 0.3:
                given = memoryview(b"\x00" + chunk + b"\x00")[1:-1]
            elif kind < 0.45:
                given = bytearray(chunk)
            assert stream.append(given) == reference.append(chunk)
        elif op < 0.85:
            if stream.tail > stream.head:
                offset = rng.randint(stream.head, stream.tail - 1)
                length = rng.randint(0, stream.tail - offset)
                got = stream.peek(offset, length)
                assert bytes(got) == reference.peek(offset, length)
        else:
            if stream.tail > stream.head:
                offset = rng.randint(stream.head, stream.tail)
                stream.release_to(offset)
                reference.release_to(offset)
        assert stream.head == reference.head
        assert stream.tail == reference.tail
        assert len(stream) == len(reference)
    # Whatever is still buffered must match byte for byte.
    remaining = stream.tail - stream.head
    assert bytes(stream.peek(stream.head, remaining)) == reference.peek(
        reference.head, remaining
    )


@pytest.mark.parametrize("seed", [3, 11, 99, 2024])
def test_reassembly_differential(seed):
    rng = random.Random(seed)
    queue = ReassemblyQueue()
    reference = BytesReferenceReassembly()
    source = bytes((i * 13 + seed) % 256 for i in range(4096))
    next_offset = 0
    for _ in range(OPS_PER_SEED):
        op = rng.random()
        if op < 0.65:
            start = rng.randint(0, len(source) - 1)
            length = rng.randint(1, min(120, len(source) - start))
            limit = None
            if rng.random() < 0.25:
                limit = rng.randint(start, start + length + 50)
            data = source[start : start + length]
            # Hand the real queue views at random phases to exercise the
            # view-slicing insert path; the reference gets plain bytes.
            if rng.random() < 0.5:
                data = memoryview(b"\x00" * 3 + data + b"\x00" * 2)[3 : 3 + length]
            assert queue.insert(start, data, limit=limit) == reference.insert(
                start, source[start : start + length], limit=limit
            )
        else:
            target = next_offset
            if rng.random() < 0.3:  # occasionally jump forward (stale drop)
                target = next_offset + rng.randint(0, 200)
            got = queue.extract_in_order(target)
            expected = reference.extract_in_order(target)
            assert bytes(got) == expected
            next_offset = max(target, target + len(got))
        assert queue.buffered_bytes == reference.buffered_bytes
        assert queue.block_count == reference.block_count
        assert queue.max_offset == reference.max_offset
        assert queue.sack_blocks() == reference.sack_blocks()
