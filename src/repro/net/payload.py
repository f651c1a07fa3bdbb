"""Payloads are read-only memoryviews over immutable ``bytes``.

Unlike the ns-3 MPTCP models, this simulator carries *real* payload
bytes end-to-end so content-modifying middleboxes and DSS checksums
genuinely work.  Copying those bytes at every layer boundary (app ->
send buffer -> segment -> reassembly -> app) would dominate wall-clock
time on bulk transfers, so a payload is a built-in ``memoryview``: the
same ``(backing, offset, length)`` triple, with ``len``, O(1) slicing,
``int.from_bytes``, ``bytearray +=`` and ``b"".join`` all in C.

* The backing is always an immutable :class:`bytes` object, so a view
  can never observe mutation through an alias.  Anything mutable
  (``bytearray``, a view over one) is snapshotted once at the boundary
  — :func:`as_view`, which ``ByteStream.append`` and
  ``ReassemblyQueue.insert`` call only for input that is not already a
  view over ``bytes``.
* Mutation is materialization: a middlebox that changes content builds
  a fresh ``bytes`` from ``bytes(payload)``.  Pass-through elements that
  only *read* payloads (links, delay/loss middleboxes, proxies, traces)
  stay zero-copy.
* ``memoryview == x`` compares item by item, not with ``memcmp``: a hot
  equality check compares ``bytes``.  Views have no ``find`` and do not
  pickle; search and export ``bytes(payload)``.
"""

from __future__ import annotations

from typing import Union

Buffer = Union[bytes, bytearray, memoryview]


def as_view(data: Buffer) -> memoryview:
    """A read-only ``memoryview`` over immutable ``bytes``.

    ``bytes`` is wrapped in place (zero-copy), as is a view over
    ``bytes``; mutable input is snapshotted once.
    """
    if type(data) is memoryview and isinstance(data.obj, bytes):
        return data
    if not isinstance(data, bytes):
        data = bytes(data)
    return memoryview(data)
