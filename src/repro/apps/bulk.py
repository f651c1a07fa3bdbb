"""Bulk transfer: the workload behind Figs. 4, 5, 6 and 9.

The sender pushes a byte stream as fast as the transport accepts it
(long download model); the receiver reads immediately (the paper's
receiver-memory discussion assumes "the receiving application reads as
soon as data is available") and meters goodput.  Wire throughput —
including reinjections, which goodput excludes — comes from the link
statistics, giving Fig. 4(b)'s goodput/throughput split.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.net.payload import Buffer
from repro.stats.metrics import GoodputMeter

_PATTERN = bytes(range(256)) * 256  # 64 KiB of repeating payload
# Doubled once at module level: any offset phase + a full 64 KiB chunk
# fits inside it, so pattern_bytes() is a zero-copy view for every send
# and verify up to 64 KiB.  (It used to rebuild this 128 KiB buffer on
# every call — one fresh allocation per chunk sent *and* per receiver
# verify.)
_PATTERN_DOUBLED = _PATTERN * 2
_PATTERN_VIEW = memoryview(_PATTERN_DOUBLED)
_CHUNK = 64 * 1024  # bytes per send() call: one zero-copy pattern view


def pattern_bytes(offset: int, length: int) -> Buffer:
    """Deterministic stream contents, addressable by offset.

    Returns a read-only ``memoryview`` slice of the shared module-level
    pattern buffer whenever the requested range fits (the common case:
    apps send and verify in <= 64 KiB chunks); only oversized requests
    materialize.
    """
    start = offset % 256
    if start + length <= len(_PATTERN_DOUBLED):
        return _PATTERN_VIEW[start : start + length]
    chunk = _PATTERN_DOUBLED[start : start + length]
    while len(chunk) < length:
        chunk += _PATTERN[: length - len(chunk)]
    return chunk


class BulkSenderApp:
    """Feeds a byte stream into a transport and closes it once sent.

    ``data`` is either the payload itself (``bytes``) or a byte count of
    the deterministic :func:`pattern_bytes` stream (``None``: unbounded).
    """

    def __init__(self, transport, data: Union[bytes, int, None]):
        self.transport = transport
        self.payload = data if isinstance(data, bytes) else None
        self.total_bytes = len(data) if isinstance(data, bytes) else data
        self.sent = 0
        self.done = False
        transport.on_established = self._pump
        transport.on_writable = self._pump

    def _pump(self, _transport=None) -> None:
        if self.done:
            return
        while self.total_bytes is None or self.sent < self.total_bytes:
            want = _CHUNK
            if self.total_bytes is not None:
                want = min(want, self.total_bytes - self.sent)
            if self.payload is None:
                data = pattern_bytes(self.sent, want)
            else:
                data = self.payload[self.sent : self.sent + want]
            accepted = self.transport.send(data)
            if accepted == 0:
                return
            self.sent += accepted
        self.done = True
        self.transport.close()


class BulkReceiverApp:
    """Reads everything immediately; tracks goodput and completion."""

    def __init__(
        self,
        transport,
        meter: GoodputMeter,
        expect_bytes: Optional[int] = None,
        verify: bool = False,
    ):
        self.transport = transport
        self.meter = meter
        self.expect_bytes = expect_bytes
        self.verify = verify
        self.received = 0
        self.corrupt = False
        self.completed_at: Optional[float] = None
        transport.on_data = self._drain
        transport.on_eof = self._eof

    def _drain(self, transport) -> None:
        data = transport.read()
        if not data:
            return
        # bytes against bytes: one memcmp, where a memoryview compare
        # would unpack item by item.
        if self.verify and bytes(pattern_bytes(self.received, len(data))) != data:
            self.corrupt = True
        self.received += len(data)
        self.meter.add(len(data))
        if self.expect_bytes is not None and self.received >= self.expect_bytes:
            self._complete()

    def _eof(self, transport) -> None:
        self._complete()
        transport.close()

    def _complete(self) -> None:
        if self.completed_at is None:
            self.completed_at = self.transport.sim.now if hasattr(self.transport, "sim") else None
            self.meter.finish()


def run_bulk_transfer(
    net,
    open_transport: Callable[[], object],
    accept_transport: Callable[[Callable], None],
    total_bytes: int,
    duration: float,
    verify: bool = False,
) -> dict:
    """Wire a sender and a receiver together and run; returns metrics.

    ``open_transport`` creates the client-side transport (already
    connecting); ``accept_transport(callback)`` arranges for the server
    side to call ``callback(transport)`` on accept.
    """
    meter = GoodputMeter(net.sim)
    state: dict = {}

    def on_accept(transport):
        state["receiver"] = BulkReceiverApp(
            transport, meter, expect_bytes=total_bytes, verify=verify
        )

    accept_transport(on_accept)
    transport = open_transport()
    state["sender"] = BulkSenderApp(transport, total_bytes)
    net.run(until=duration)
    receiver = state.get("receiver")
    return {
        "received": receiver.received if receiver else 0,
        "goodput_bps": meter.rate_bps(),
        "completed_at": receiver.completed_at if receiver else None,
        "corrupt": receiver.corrupt if receiver else True,
        "meter": meter,
        "transport": transport,
    }
