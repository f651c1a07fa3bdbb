"""Application-level latency probe (§4.2.1, Fig. 7).

The sender writes :data:`BLOCK` (8 KiB) blocks, timestamping the
moment each block is *handed to the transport* (which only happens when
the send buffer has room — so send-buffer bloat shows up as latency,
exactly the effect that makes TCP-over-WiFi's latency worse than
MPTCP+M1,2's in Fig. 7).
The receiver timestamps the moment the last byte of each block is
readable.  The distribution of (receive - send) is the figure's PDF.
The sender never runs out of blocks: a run ends when the simulation does.
"""

from __future__ import annotations

from repro.apps.bulk import pattern_bytes

BLOCK = 8 * 1024


class BlockLatencyProbe:
    """Drives a transport with timestamped blocks and collects delays."""

    def __init__(self, sim, sender_transport):
        self.sim = sim
        self.transport = sender_transport
        self.block_send_times: list[float] = []
        self._sent_bytes = 0
        self._partial = 0  # bytes of the current block already accepted
        self.delays: list[float] = []
        self._received_bytes = 0
        sender_transport.on_established = self._pump
        sender_transport.on_writable = self._pump

    # -- sender side ----------------------------------------------------
    def _pump(self, _transport=None) -> None:
        while True:
            if self._partial == 0:
                # Only start a block if it fits entirely in the buffer:
                # its timestamp must mean "handed to the transport".
                if self.transport.send_buffer_room() < BLOCK:
                    return
                self.block_send_times.append(self.sim.now)
            want = BLOCK - self._partial
            accepted = self.transport.send(pattern_bytes(self._sent_bytes, want))
            self._sent_bytes += accepted
            self._partial += accepted
            if self._partial < BLOCK:
                return  # buffer filled mid-block; resume on writable
            self._partial = 0

    # -- receiver side ----------------------------------------------------
    def attach_receiver(self, transport) -> None:
        transport.on_data = self._drain

    def _drain(self, transport) -> None:
        data = transport.read()
        if not data:
            return
        before = self._received_bytes // BLOCK
        self._received_bytes += len(data)
        after = self._received_bytes // BLOCK
        for block_index in range(before, after):
            if block_index < len(self.block_send_times):
                self.delays.append(self.sim.now - self.block_send_times[block_index])
