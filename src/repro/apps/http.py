"""A minimal HTTP/1.0 server and an apachebench-style closed-loop load
generator (§5.3, Fig. 11).

The protocol is deliberately tiny but real: requests are
``GET /data?size=N`` terminated by a blank line; responses carry a
``Content-Length`` header and ``N`` body bytes, and the server closes
the connection after each response (apachebench's default non-keepalive
mode — which is what makes connection *setup* cost matter and gives
MPTCP its small-file penalty).

Clients are closed-loop: each of the C workers opens a connection,
sends one request, reads the full response, then immediately starts the
next — the paper's "100 clients generating 100000 requests".
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.apps.bulk import pattern_bytes
from repro.sim import Simulator

REQUEST_TERMINATOR = b"\r\n\r\n"
DEFAULT_SIZE = 64 * 1024  # body size served when the request names none


def build_request(size: int) -> bytes:
    return f"GET /data?size={size} HTTP/1.0\r\nHost: repro\r\n\r\n".encode()


def build_response_header(size: int) -> bytes:
    return (
        f"HTTP/1.0 200 OK\r\nContent-Length: {size}\r\nConnection: close\r\n\r\n"
    ).encode()


class _ServerConnection:
    """Per-connection request parser and responder."""

    def __init__(self, app: "HTTPServerApp", transport):
        self.app = app
        self.transport = transport
        self._buffer = bytearray()
        self._responding = False
        transport.on_data = self._on_data
        transport.on_eof = lambda t: None  # client half-closes after request

    def _on_data(self, transport) -> None:
        if self._responding:
            transport.read()
            return
        self._buffer.extend(transport.read())
        terminator = self._buffer.find(REQUEST_TERMINATOR)
        if terminator < 0:
            return
        request_line = bytes(self._buffer[:terminator]).split(b"\r\n", 1)[0]
        size = self._parse_size(request_line)
        self._responding = True
        self.app.requests_served += 1
        self._send_response(size)

    def _parse_size(self, request_line: bytes) -> int:
        try:
            path = request_line.split()[1].decode()
            if "size=" in path:
                return max(0, int(path.split("size=", 1)[1]))
        except (IndexError, ValueError):
            pass
        return DEFAULT_SIZE

    def _send_response(self, size: int) -> None:
        transport = self.transport
        header = build_response_header(size)
        remaining = {"n": size, "sent_header": False}

        def pump(_t=None) -> None:
            if not remaining["sent_header"]:
                if transport.send(header) < len(header):
                    return  # extremely small buffers; retry on writable
                remaining["sent_header"] = True
            while remaining["n"] > 0:
                chunk = min(64 * 1024, remaining["n"])
                offset = size - remaining["n"]
                accepted = transport.send(pattern_bytes(offset, chunk))
                if accepted == 0:
                    return
                remaining["n"] -= accepted
            transport.on_writable = None
            transport.close()

        transport.on_writable = pump
        pump()


class HTTPServerApp:
    """Accept-side glue: attach to any listener's on_accept.

    Keeps no connection: each handler lives exactly as long as the
    transport whose callbacks hold it.
    """

    def __init__(self):
        self.requests_served = 0

    def on_accept(self, transport) -> None:
        _ServerConnection(self, transport)


class HTTPLoadGenerator:
    """C closed-loop clients fetching ``size``-byte files repeatedly.

    ``open_transport()`` must return a fresh *connecting* transport
    (TCP socket, MPTCP connection, or TCP over a bonded route).
    """

    def __init__(
        self,
        sim: Simulator,
        open_transport: Callable[[], object],
        size: int,
        concurrency: int = 100,
    ):
        self.sim = sim
        self.open_transport = open_transport
        self.size = size
        self.concurrency = concurrency
        self.completed = 0
        self.failed = 0
        self.bytes_received = 0
        self.latencies: list[float] = []
        self.started_at: Optional[float] = None

    def start(self) -> None:
        self.started_at = self.sim.now
        for _ in range(self.concurrency):
            self._launch()

    def _launch(self) -> None:
        started = self.sim.now
        transport = self.open_transport()
        state = {"received": 0, "header_done": False, "expect": None, "buffer": bytearray()}
        generator = self

        def on_established(t) -> None:
            t.send(build_request(generator.size))
            # Half-close: everything we had to say is said.
            t.close()

        def on_data(t) -> None:
            data = t.read()
            if not data:
                return
            if not state["header_done"]:
                state["buffer"].extend(data)
                end = state["buffer"].find(REQUEST_TERMINATOR)
                if end < 0:
                    return
                header = bytes(state["buffer"][:end]).decode(errors="replace")
                for line in header.split("\r\n"):
                    if line.lower().startswith("content-length:"):
                        state["expect"] = int(line.split(":", 1)[1])
                state["header_done"] = True
                body = len(state["buffer"]) - (end + len(REQUEST_TERMINATOR))
                state["received"] = body
            else:
                state["received"] += len(data)
            generator.bytes_received += len(data)
            if state["expect"] is not None and state["received"] >= state["expect"]:
                finish(t, ok=True)

        def on_eof(t) -> None:
            ok = state["expect"] is not None and state["received"] >= state["expect"]
            finish(t, ok=ok)

        finished = {"done": False}

        def finish(t, ok: bool) -> None:
            if finished["done"]:
                return
            finished["done"] = True
            if ok:
                generator.completed += 1
                generator.latencies.append(generator.sim.now - started)
            else:
                generator.failed += 1
            t.on_data = None
            t.on_eof = None
            t.close()
            generator.sim.call_soon(generator._launch)

        def on_error(t, reason) -> None:
            finish(t, ok=False)

        transport.on_established = on_established
        transport.on_data = on_data
        transport.on_eof = on_eof
        transport.on_error = on_error

    def requests_per_second(self) -> float:
        if self.started_at is None:
            return 0.0
        elapsed = self.sim.now - self.started_at
        return self.completed / elapsed if elapsed > 0 else 0.0
