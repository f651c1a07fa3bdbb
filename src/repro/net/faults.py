"""Deterministic fault injection: the adversities of §4–§5 as path elements.

Each fault is a :class:`~repro.net.path.PathElement` whose behaviour is a
pure function of its ``seed`` — two runs of the same scenario replay the
identical fault schedule, and a fuzzer failure can be reproduced from the
seed alone.  Every class here has an eval-able ``repr`` so the scenario
fuzzer (:mod:`repro.check.fuzzer`) can emit self-contained repro scripts.

* :class:`LinkFlap` — a down/up schedule (mobility, §5.2): while down,
  every segment in both directions is dropped.
* :class:`GilbertElliottLoss` — bursty loss from the classic two-state
  Markov model; the good state is lossless, the bad state drops
  most segments, so losses cluster the way radio fades do.
* :class:`Reorderer` — holds a segment and releases it a few segments
  later (load-balanced cores), with a time backstop so the last segment
  of a flow is never held forever.
* :class:`Corrupter` — flips one payload bit.  The simulated TCP carries
  no checksum (the real one is assumed verified by the NIC), so plain
  TCP delivers the damage silently; MPTCP's DSS checksum (§3.3.6) must
  catch it — exactly the property the oracle verifies.
* :class:`Duplicator` — re-exported from :mod:`repro.middlebox.jitter`.
"""

from __future__ import annotations

from repro.middlebox.jitter import Duplicator  # noqa: F401  (re-export)
from repro.net.packet import Segment
from repro.net.path import FORWARD, REVERSE, PathElement
from repro.sim.rng import SeededRNG


class LinkFlap(PathElement):
    """Alternates the path between up and down.

    Up/down dwell times are exponential with the given means, drawn from
    the seed at need — the schedule is anchored at t=0 and independent of
    traffic, so it replays identically however many packets cross.
    """

    def __init__(
        self,
        seed: int = 0,
        up_mean: float = 0.5,
        down_mean: float = 0.05,
        name: str = "LinkFlap",
    ):
        super().__init__(name)
        if up_mean <= 0 or down_mean <= 0:
            raise ValueError("dwell-time means must be positive")
        self.seed = seed
        self.up_mean = up_mean
        self.down_mean = down_mean
        self.rng = SeededRNG(seed, f"flap:{name}")
        self.up = True  # the schedule starts with an up dwell
        self.transitions = 0
        self.dropped = 0
        self._next_transition = self._dwell(0.0)

    def _dwell(self, base: float) -> float:
        mean = self.up_mean if self.up else self.down_mean
        return base + self.rng.expovariate(1.0 / mean)

    def _advance(self, now: float) -> None:
        while now >= self._next_transition:
            self.up = not self.up
            self.transitions += 1
            self._next_transition = self._dwell(self._next_transition)

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        self._advance(self.sim.now)
        if not self.up:
            self.dropped += 1
            return []
        return [(segment, direction)]

    def __repr__(self) -> str:
        return (
            f"LinkFlap(seed={self.seed}, up_mean={self.up_mean}, "
            f"down_mean={self.down_mean})"
        )


class GilbertElliottLoss(PathElement):
    """Burst loss: a two-state (good/bad) Markov chain stepped per segment.

    It drops in the data direction only, matching the repo's plain
    lossy links, and the good state never drops.
    """

    def __init__(
        self,
        seed: int = 0,
        p_enter_bad: float = 0.005,
        p_exit_bad: float = 0.25,
        loss_bad: float = 0.9,
        name: str = "GilbertElliott",
    ):
        super().__init__(name)
        self.seed = seed
        self.p_enter_bad = p_enter_bad
        self.p_exit_bad = p_exit_bad
        self.loss_bad = loss_bad
        self.rng = SeededRNG(seed, f"ge:{name}")
        self.bad = False
        self.dropped = 0
        self.bursts = 0

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        if direction != FORWARD:
            return [(segment, direction)]
        if self.bad:
            if self.rng.chance(self.p_exit_bad):
                self.bad = False
        elif self.rng.chance(self.p_enter_bad):
            self.bad = True
            self.bursts += 1
        if self.bad and self.rng.chance(self.loss_bad):
            self.dropped += 1
            return []
        return [(segment, direction)]

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLoss(seed={self.seed}, p_enter_bad={self.p_enter_bad}, "
            f"p_exit_bad={self.p_exit_bad}, loss_bad={self.loss_bad})"
        )


class _Held:
    __slots__ = ("segment", "remaining", "released")

    def __init__(self, segment: Segment, remaining: int):
        # `released` is set by whichever of the count release and the
        # time backstop fires first, so the other never delivers the
        # same segment a second time.
        self.segment = segment
        self.remaining = remaining
        self.released = False


class Reorderer(PathElement):
    """Reorders by holding a segment until a few later ones have passed.

    Count-based release makes the reordering depth explicit and
    independent of timing; a scheduled time backstop (``MAX_HOLD``
    seconds) releases a held segment even if the flow goes quiet, so
    holding the final FIN cannot wedge a connection.  Both directions
    are reordered, each with its own held list.
    """

    MAX_HOLD = 0.05

    def __init__(
        self,
        seed: int = 0,
        probability: float = 0.05,
        depth: int = 3,
        name: str = "Reorderer",
    ):
        super().__init__(name)
        self.seed = seed
        self.probability = probability
        self.depth = depth
        self.rng = SeededRNG(seed, f"reorder:{name}")
        self.reordered = 0
        self._held: dict[int, list[_Held]] = {FORWARD: [], REVERSE: []}

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        # This segment, then every held one whose count ran out.
        out = [(segment, direction)]
        held = self._held[direction]
        if held:  # usually empty: no countdown, no list rebuild
            for entry in held:
                entry.remaining -= 1
                if entry.remaining <= 0 and not entry.released:
                    entry.released = True
                    out.append((entry.segment, direction))
            self._held[direction] = [e for e in held if not e.released]
        if self.rng.chance(self.probability):
            self.reordered += 1
            entry = _Held(segment, self.rng.randint(1, self.depth))
            self._held[direction].append(entry)
            self.sim.schedule(self.MAX_HOLD, self._backstop, entry, direction)
            return out[1:]
        return out

    def _backstop(self, entry: _Held, direction: int) -> None:
        if not entry.released:
            entry.released = True
            self._held[direction] = [e for e in self._held[direction] if e is not entry]
            self.inject(entry.segment, direction)

    def __repr__(self) -> str:
        return (
            f"Reorderer(seed={self.seed}, probability={self.probability}, "
            f"depth={self.depth})"
        )


class Corrupter(PathElement):
    """Flips one random bit in a payload byte (dirty line card, bad RAM).

    ``active_after`` delays the onset so handshakes (and for MPTCP, the
    MP_JOIN of a second subflow) can complete before damage begins —
    without it a corrupted-then-fallen-back single subflow legitimately
    delivers the damaged bytes raw, which is TCP behaviour, not a bug.
    Only the data direction is damaged.
    """

    corrupts_payload = True

    def __init__(
        self,
        seed: int = 0,
        probability: float = 0.05,
        active_after: float = 0.0,
        name: str = "Corrupter",
    ):
        super().__init__(name)
        self.seed = seed
        self.probability = probability
        self.active_after = active_after
        self.rng = SeededRNG(seed, f"corrupt:{name}")
        self.corrupted = 0
        self.corrupted_bytes = 0

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        if (
            direction != FORWARD
            or not segment.payload
            or self.sim.now < self.active_after
            or not self.rng.chance(self.probability)
        ):
            return [(segment, direction)]
        raw = bytearray(bytes(segment.payload))
        index = self.rng.randint(0, len(raw) - 1)
        raw[index] ^= 1 << self.rng.randint(0, 7)
        damaged = segment.copy()
        damaged.payload = bytes(raw)
        self.corrupted += 1
        self.corrupted_bytes += 1
        return [(damaged, direction)]

    def __repr__(self) -> str:
        return (
            f"Corrupter(seed={self.seed}, probability={self.probability}, "
            f"active_after={self.active_after})"
        )
