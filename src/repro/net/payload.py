"""Copy-on-write payload views for the zero-copy segment datapath.

Unlike the ns-3 MPTCP models, this simulator carries *real* payload
bytes end-to-end so content-modifying middleboxes and DSS checksums
genuinely work.  Copying those bytes at every layer boundary (app ->
send buffer -> segment -> reassembly -> app) used to dominate wall-clock
time on bulk-transfer experiments.  :class:`PayloadView` removes the
copies without giving up real bytes:

* A view is an ``(immutable backing, offset, length)`` triple.  Slicing
  a view (with step 1) returns another view over the *same* backing in
  O(1) — no bytes move.
* The backing is always an immutable :class:`bytes` object, so a view
  can never observe mutation through an alias.  Anything mutable handed
  to :func:`as_view` (``bytearray``, ``memoryview``) is snapshotted once
  at the boundary.
* Mutation is materialization: any operation that would change content
  (:meth:`materialize`, ``+`` concatenation) produces a fresh ``bytes``
  object.  Pass-through elements that only *read* payloads (links,
  delay/loss middleboxes, proxies, traces) stay zero-copy.

Views are ``bytes``-compatible where the datapath needs it: ``len()``,
truthiness, ``==``/``!=`` against ``bytes``/``bytearray``/views
(reflected comparisons work too, because ``bytes.__eq__`` returns
``NotImplemented`` for unknown types), integer and slice indexing,
``find``/``in``/``startswith``, iteration, and ``bytes()`` export.
``b"".join`` does *not* accept views (they are not buffer-protocol
objects on the Pythons we support) — use :func:`concat` instead.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

Buffer = Union[bytes, bytearray, memoryview, "PayloadView"]


class PayloadView:
    """An immutable window onto a shared ``bytes`` backing buffer.

    Construct via :func:`as_view` (which normalizes arbitrary bytes-like
    input) rather than directly; the constructor trusts its arguments.
    """

    __slots__ = ("_data", "_offset", "_length")

    def __init__(self, data: bytes, offset: int = 0, length: int | None = None):
        if length is None:
            length = len(data) - offset
        self._data = data
        self._offset = offset
        self._length = length

    # -- export ---------------------------------------------------------

    def tobytes(self) -> bytes:
        """Materialize the viewed range as an independent ``bytes``."""
        if self._offset == 0 and self._length == len(self._data):
            return self._data
        return self._data[self._offset : self._offset + self._length]

    #: Mutation sites call this by its intent-revealing name: the result
    #: is safe to build modified content from, and never aliases a view.
    materialize = tobytes

    def __bytes__(self) -> bytes:
        return self.tobytes()

    def memoryview(self) -> memoryview:
        """Zero-copy ``memoryview`` of the viewed range (for checksums,
        struct unpacking, and ``bytearray`` extension)."""
        return memoryview(self._data)[self._offset : self._offset + self._length]

    # -- bytes-compatible reads -----------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                return self.tobytes()[index]
            if stop <= start:
                return _EMPTY
            return PayloadView(self._data, self._offset + start, stop - start)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("PayloadView index out of range")
        return self._data[self._offset + index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.memoryview())

    def __eq__(self, other) -> bool:
        if isinstance(other, PayloadView):
            if self._length != other._length:
                return False
            if (
                self._data is other._data
                and self._offset == other._offset
            ):
                return True
            # bytes, not memoryviews: one memcmp instead of an item-by-item unpack.
            return self.tobytes() == other.tobytes()
        if isinstance(other, (bytes, bytearray, memoryview)):
            if self._length != len(other):
                return False
            return self.tobytes() == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        # Consistent with bytes so mixed-type dict/set use behaves.
        return hash(self.tobytes())

    def find(self, sub: Buffer, start: int = 0, end: int | None = None) -> int:
        """Like ``bytes.find``: lowest index where ``sub`` is fully
        contained in ``self[start:end]``, or -1."""
        if isinstance(sub, PayloadView):
            sub = sub.tobytes()
        elif isinstance(sub, (bytearray, memoryview)):
            sub = bytes(sub)
        start, stop, _ = slice(start, end).indices(self._length)
        found = self._data.find(sub, self._offset + start, self._offset + stop)
        if found < 0:
            return -1
        return found - self._offset

    def __contains__(self, sub) -> bool:
        if isinstance(sub, int):
            return sub in self.memoryview()
        return self.find(sub) >= 0

    def startswith(self, prefix: Buffer) -> bool:
        if len(prefix) > self._length:
            return False
        return self[: len(prefix)] == prefix

    # -- concatenation materializes -------------------------------------

    def __add__(self, other):
        if isinstance(other, PayloadView):
            return self.tobytes() + other.tobytes()
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self.tobytes() + bytes(other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, (bytes, bytearray, memoryview)):
            return bytes(other) + self.tobytes()
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PayloadView {self._length}B @+{self._offset}>"


_EMPTY = PayloadView(b"", 0, 0)


def as_view(data: Buffer) -> PayloadView:
    """Wrap any bytes-like object in a :class:`PayloadView`.

    ``bytes`` is wrapped in place (zero-copy); mutable inputs are
    snapshotted once so the view's backing stays immutable.
    """
    if isinstance(data, PayloadView):
        return data
    if isinstance(data, bytes):
        return PayloadView(data, 0, len(data))
    return PayloadView(bytes(data))


def as_bytes(data: Buffer) -> bytes:
    """Materialize any bytes-like object (views included) as ``bytes``."""
    if isinstance(data, bytes):
        return data
    if isinstance(data, PayloadView):
        return data.tobytes()
    return bytes(data)


def as_memoryview(data: Buffer) -> memoryview:
    """Zero-copy ``memoryview`` over any bytes-like object or view."""
    if isinstance(data, PayloadView):
        return data.memoryview()
    return memoryview(data)


def concat(pieces: Iterable[Buffer]):
    """Join pieces into one payload, copying only when unavoidable.

    Zero or one non-empty piece returns it untouched (``b""`` when
    empty); multiple pieces are joined through memoryviews into a single
    ``bytes``.  The return type is ``bytes | PayloadView`` — callers
    treat both uniformly through the view API.
    """
    # Type-split length reads: len() of a PayloadView enters a
    # Python-level __len__, and this filter runs once per reassembled
    # chunk on the receive hot path.
    live = [
        piece
        for piece in pieces
        if (piece._length if type(piece) is PayloadView else len(piece))
    ]
    if not live:
        return b""
    if len(live) == 1:
        return live[0]
    return b"".join([as_memoryview(piece) for piece in live])
