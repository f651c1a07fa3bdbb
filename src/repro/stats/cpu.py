"""The CPU cost model.

Two of the paper's figures measure CPU, not network, limits:

* **Fig. 3** — 10 GbE goodput vs MSS with DSS checksums on/off.  The
  sender is CPU-bound: each packet costs a fixed amount (interrupts,
  protocol processing) plus per-byte costs (copies; checksums when not
  offloaded to the NIC).  Goodput is then
  ``MSS / (fixed + per_byte * (MSS + headers))`` scaled by the core's
  cycle budget, saturated by the line rate.
* **Fig. 8** — receiver CPU utilization under the four out-of-order
  algorithms.  Each received packet costs a base amount plus
  ``per_op`` for every traversal step its insertion performed in the
  out-of-order index (counted by :mod:`repro.mptcp.ooo` for real).

The constants are calibrated so the *shapes* match the paper (checksum
costs ~30% at jumbo frames; 8-subflow Regular ≈ 42% utilization
dropping to ≈ 30% with AllShortcuts); absolute GHz are not the claim.
"""

from __future__ import annotations

from dataclasses import dataclass

HEADER_BYTES = 52  # IPv4 + TCP with timestamps: copied with every packet


@dataclass
class CPUModelParams:
    """Per-operation CPU costs, in seconds of core time."""

    per_packet: float = 2.5e-6  # interrupt + protocol processing
    per_byte_copy: float = 0.57e-9  # memory copies (always paid)
    per_byte_checksum: float = 0.33e-9  # software one's-complement sum
    per_ooo_base: float = 0.6e-6  # receive-path bookkeeping per ooo insert
    per_ooo_op: float = 0.05e-6  # one traversal/comparison step

    def cpu_limited_goodput_bps(self, mss: int, checksummed: bool) -> float:
        """Fig. 3's model: the goodput one CPU-bound core sustains at a
        given MSS (packet rate = 1 / per-packet cost).  Each packet also
        copies its ``HEADER_BYTES`` of headers."""
        per_packet_cost = self.per_packet + (mss + HEADER_BYTES) * self.per_byte_copy
        if checksummed:
            per_packet_cost += mss * self.per_byte_checksum
        return mss * 8 / per_packet_cost


#: Receiver-side calibration for the Fig. 8 testbed (a different box
#: than Fig. 3's): plain TCP at 2 Gb/s ≈ 14% of a core.
RECEIVER_PARAMS = CPUModelParams(
    per_packet=0.6e-6,
    per_byte_copy=0.15e-9,
    per_byte_checksum=0.33e-9,
    per_ooo_base=0.6e-6,
    per_ooo_op=0.05e-6,
)
