"""PayloadView semantics + randomized differential tests for the
zero-copy buffers.

The differential tests drive ``ByteStream`` and ``ReassemblyQueue``
with seeded random workloads against naive pure-``bytes`` reference
models and demand byte-for-byte identical outputs — the guarantee that
the rope/view machinery is *invisible* except for speed.
"""

import random

import pytest

from repro.net.payload import PayloadView, as_bytes, as_memoryview, as_view, concat
from repro.tcp.buffer import ByteStream, ReassemblyQueue


class TestPayloadView:
    def test_wraps_bytes_zero_copy(self):
        backing = b"hello world"
        view = as_view(backing)
        assert view.tobytes() is backing  # full-range view returns backing

    def test_len_bool_eq(self):
        view = as_view(b"abcdef")[2:5]
        assert len(view) == 3
        assert view
        assert not as_view(b"x")[1:1]
        assert view == b"cde"
        assert b"cde" == view  # reflected: bytes.__eq__ defers
        assert view != b"cdx"
        assert view == bytearray(b"cde")
        assert view == as_view(b"__cde__")[2:5]

    def test_slicing_returns_views_sharing_backing(self):
        backing = b"0123456789"
        view = as_view(backing)
        sub = view[2:8][1:4]  # nested slicing composes offsets
        assert isinstance(sub, PayloadView)
        assert sub == b"345"
        assert sub.memoryview().obj is backing

    def test_negative_and_int_indexing(self):
        view = as_view(b"abcdef")[1:5]  # bcde
        assert view[0] == ord("b")
        assert view[-1] == ord("e")
        with pytest.raises(IndexError):
            view[4]

    def test_step_slice_materializes(self):
        view = as_view(b"abcdef")
        assert view[::2] == b"ace"

    def test_find_respects_window(self):
        # The pattern exists in the backing but outside the view: a
        # naive delegation to backing.find would false-positive.
        backing = b"XXneedleXX"
        view = as_view(backing)[2:7]  # "needl"
        assert view.find(b"needle") == -1
        assert as_view(backing)[2:8].find(b"needle") == 0
        assert b"eed" in as_view(backing)[2:8]
        assert ord("n") in view

    def test_concat_materializes_only_when_needed(self):
        a = as_view(b"abc")
        assert concat([]) == b""
        assert concat([a]) is a  # single piece untouched
        assert concat([a, b"def"]) == b"abcdef"

    def test_add_materializes(self):
        view = as_view(b"abcdef")[0:3]
        assert view + b"!" == b"abc!"
        assert b"!" + view == b"!abc"
        assert isinstance(view + b"!", bytes)

    def test_mutable_input_snapshotted(self):
        source = bytearray(b"abc")
        view = as_view(source)
        source[0] = ord("X")
        assert view == b"abc"  # immune to caller-side mutation

    def test_helpers(self):
        view = as_view(b"_abc_")[1:4]
        assert as_bytes(view) == b"abc"
        assert bytes(as_memoryview(view)) == b"abc"
        assert as_bytes(b"raw") == b"raw"

    def test_views_are_read_only(self):
        view = as_view(b"abc")
        with pytest.raises(TypeError):
            view[0] = 1


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
    stream = ByteStream(base=17)
    reference = BytesReferenceStream(base=17)
    for _ in range(OPS_PER_SEED):
        op = rng.random()
        if op < 0.45:
            chunk = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 200)))
            assert stream.append(chunk) == reference.append(chunk)
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
                data = as_view(b"\x00" * 3 + data + b"\x00" * 2)[3 : 3 + length]
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


# ----------------------------------------------------------------------
# Equality: bytes-slice compare vs the plain-bytes truth
# ----------------------------------------------------------------------
OPERAND_TYPES = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": memoryview,
    "PayloadView": as_view,
    # A window inside a larger backing: offset != 0, not the full range.
    "PayloadView-window": lambda raw: PayloadView(b"\x00" * 3 + raw + b"\xff" * 2, 3, len(raw)),
}


def _assert_eq_matches_bytes(view: PayloadView, raw: bytes) -> None:
    """``view`` against ``raw`` in every operand type, on either side of
    ``==`` and ``!=``, must say what the two plain ``bytes`` say."""
    truth = view.tobytes() == raw
    for name, build in OPERAND_TYPES.items():
        other = build(raw)
        assert (view == other) is truth, name
        assert (other == view) is truth, f"reflected {name}"
        assert (view != other) is (not truth), name
        assert (other != view) is (not truth), f"reflected {name}"


@pytest.mark.parametrize("seed", [1, 7, 42, 1234])
def test_eq_differential(seed):
    rng = random.Random(seed)
    for _ in range(300):
        # A two-letter alphabet makes equal windows at unequal offsets
        # (and near-misses) common instead of vanishingly rare.
        backing = bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 48)))
        offset = rng.randint(0, len(backing))
        length = rng.randint(0, len(backing) - offset)
        view = PayloadView(backing, offset, length)
        other_offset = rng.randint(0, len(backing))
        other_length = length if rng.random() < 0.7 else rng.randint(0, len(backing) - other_offset)
        other_length = min(other_length, len(backing) - other_offset)
        # Unequal offsets over ONE backing: the identity shortcut must
        # not fire, the contents decide.
        sibling = PayloadView(backing, other_offset, other_length)
        truth = backing[offset : offset + length] == backing[other_offset : other_offset + other_length]
        assert (view == sibling) is truth and (sibling == view) is truth
        assert (view != sibling) is (not truth)
        _assert_eq_matches_bytes(view, sibling.tobytes())


def test_eq_equal_length_mismatch_in_first_and_last_byte():
    raw = bytes(range(1, 200))
    view = PayloadView(b"\x00" + raw + b"\x00", 1, len(raw))
    _assert_eq_matches_bytes(view, raw)  # equal
    for position in (0, len(raw) - 1, len(raw) // 2):
        changed = bytearray(raw)
        changed[position] ^= 0x80
        _assert_eq_matches_bytes(view, bytes(changed))
    _assert_eq_matches_bytes(view, raw[:-1])  # a prefix is not equal
    _assert_eq_matches_bytes(view, raw + b"\x00")
    _assert_eq_matches_bytes(PayloadView(b"", 0, 0), b"")
    # Same window, same backing: equal without looking at a byte.
    assert view == PayloadView(view._data, 1, len(raw))


def test_eq_with_foreign_types_is_not_implemented():
    view = as_view(b"abc")
    for foreign in ("abc", 3, None, [97, 98, 99], (97, 98, 99)):
        assert view.__eq__(foreign) is NotImplemented
        assert view.__ne__(foreign) is NotImplemented
        assert (view == foreign) is False and (view != foreign) is True
