"""Deterministic random number generation.

Every stochastic element of an experiment (link loss, ISN choice, MPTCP
keys, request think-times, the synthetic path population) draws from a
:class:`SeededRNG`, so a run is a pure function of its seed.  Components
that need independent streams fork named children so that adding a draw in
one component never perturbs another.
"""

from __future__ import annotations

import random
import zlib


class SeededRNG:
    """A named, forkable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = seed
        self.name = name
        self._random = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        return (seed << 32) ^ zlib.crc32(name.encode("utf-8"))

    @classmethod
    def raw(cls, state: int, name: str = "raw") -> "SeededRNG":
        """A stream seeded with ``state`` directly, skipping the name
        derivation.  For callers that must stay byte-compatible with a
        historical ``random.Random(state)`` draw sequence (the fuzzer's
        payload generator pins its corpus this way)."""
        rng = cls.__new__(cls)
        rng.seed = state
        rng.name = name
        rng._random = random.Random(state)
        return rng

    def fork(self, name: str) -> "SeededRNG":
        """An independent stream derived from this one's seed and a label."""
        return SeededRNG(self._derive(self.seed, self.name), name)

    # Thin pass-throughs -------------------------------------------------
    def random(self) -> float:
        return self._random.random()

    def uniform(self, a: float, b: float) -> float:
        return self._random.uniform(a, b)

    def randint(self, a: int, b: int) -> int:
        return self._random.randint(a, b)

    def getrandbits(self, k: int) -> int:
        return self._random.getrandbits(k)

    def expovariate(self, lambd: float) -> float:
        return self._random.expovariate(lambd)

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        return self._random.gauss(mu, sigma)

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def sample(self, population, k: int):
        return self._random.sample(population, k)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability
