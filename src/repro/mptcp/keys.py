"""Keys, tokens, initial data sequence numbers and MP_JOIN HMACs (§3.2,
§5.2).

The 64-bit keys exchanged in MP_CAPABLE are the root of subflow
authentication: the token (by which MP_JOIN SYNs locate the connection)
is the high 32 bits of SHA-1(key), and new subflows prove knowledge of
both keys with an HMAC over the handshake nonces.  Fig. 10's connection
setup latency comes from exactly this code path — key generation, token
hashing, and the uniqueness check against the host's token table — so
:class:`TokenTable` is also instrumented for that micro-benchmark.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_module
from typing import TYPE_CHECKING, Optional

from repro.sim.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover
    from repro.mptcp.connection import MPTCPConnection
    from repro.net.node import Host


def generate_key(rng: SeededRNG) -> int:
    """A fresh 64-bit connection key."""
    return rng.getrandbits(64)


def _sha1_of_key(key: int) -> bytes:
    return hashlib.sha1(key.to_bytes(8, "big")).digest()


def token_from_key(key: int) -> int:
    """Connection token: most-significant 32 bits of SHA-1(key)."""
    return int.from_bytes(_sha1_of_key(key)[0:4], "big")


def idsn_from_key(key: int) -> int:
    """Initial data sequence number: least-significant 32 bits of
    SHA-1(key) (the paper's protocol uses 64; the simulator's DSN space
    is 32-bit, like its TCP sequence space)."""
    return int.from_bytes(_sha1_of_key(key)[-4:], "big")


def join_hmac(
    key_local: int, key_remote: int, nonce_local: int, nonce_nonlocal: int
) -> int:
    """Truncated (64-bit) HMAC-SHA1 authenticating an MP_JOIN handshake.

    The initiator computes HMAC(key_A||key_B, R_A||R_B); the responder
    HMAC(key_B||key_A, R_B||R_A) — so each side proves it holds both
    keys without ever sending them again in clear.
    """
    mac_key = key_local.to_bytes(8, "big") + key_remote.to_bytes(8, "big")
    message = nonce_local.to_bytes(4, "big") + nonce_nonlocal.to_bytes(4, "big")
    digest = hmac_module.new(mac_key, message, hashlib.sha1).digest()
    return int.from_bytes(digest[0:8], "big")


class TokenTable:
    """Per-host table of established MPTCP connections, keyed by token.

    ``generate_unique_key`` is the operation Fig. 10 measures: draw a
    key, hash it, verify the token collides with no established
    connection (re-drawing if it does).  Like the kernel's, the table
    is a fixed-bucket chained hash table, so the verification cost
    grows with occupancy — which is exactly what separates the
    "100 conn" and "1000 conn" curves.
    """

    BUCKETS = 32

    def __init__(self, rng: SeededRNG):
        self.rng = rng
        self._buckets: list[list[tuple[int, "MPTCPConnection"]]] = [
            [] for _ in range(self.BUCKETS)
        ]
        self._count = 0
        self.uniqueness_checks = 0
        self.collisions = 0
        self.entries_compared = 0  # bucket entries ``_contains`` looked at
        self._key_pool: list[tuple[int, int]] = []

    def _bucket(self, token: int) -> list:
        return self._buckets[token % self.BUCKETS]

    def __len__(self) -> int:
        return self._count

    def _contains(self, token: int) -> bool:
        bucket = self._bucket(token)
        for index, (entry_token, _) in enumerate(bucket):
            if entry_token == token:
                self.entries_compared += index + 1
                return True
        self.entries_compared += len(bucket)
        return False

    def generate_unique_key(self) -> tuple[int, int]:
        """Returns (key, token) whose token is unique in this table.

        Draws from the precomputed pool when one exists (§5.2's
        suggested optimization: the SHA-1 is already paid; only the
        uniqueness check remains on the accept path).
        """
        while self._key_pool:
            key, token = self._key_pool.pop()
            self.uniqueness_checks += 1
            if not self._contains(token):
                return key, token
            self.collisions += 1
        while True:
            key = generate_key(self.rng)
            token = token_from_key(key)
            self.uniqueness_checks += 1
            if not self._contains(token):
                return key, token
            self.collisions += 1

    def precompute_keys(self, count: int) -> None:
        """Fill the key pool off the hot path (§5.2: "could be
        significantly reduced by maintaining a pool of precomputed
        keys")."""
        for _ in range(count):
            key = generate_key(self.rng)
            self._key_pool.append((key, token_from_key(key)))

    def register(self, token: int, connection: "MPTCPConnection") -> None:
        if self._contains(token):
            raise ValueError(f"token {token:#x} already registered")
        self._bucket(token).append((token, connection))
        self._count += 1

    def unregister(self, token: int) -> None:
        bucket = self._bucket(token)
        for index, (entry_token, _) in enumerate(bucket):
            if entry_token == token:
                bucket.pop(index)
                self._count -= 1
                return

    def lookup(self, token: int) -> Optional["MPTCPConnection"]:
        for entry_token, connection in self._bucket(token):
            if entry_token == token:
                return connection
        return None


def host_tokens(host: "Host") -> TokenTable:
    """The host's one token table, created on first use.  Like a kernel,
    a host keeps a single table of its established MPTCP connections so
    MP_JOIN SYNs — which arrive on brand-new five-tuples — can be matched
    to their connection by token (§3.2)."""
    tokens = getattr(host, "_mptcp_tokens", None)
    if tokens is None:
        tokens = TokenTable(host.rng.fork("mptcp-keys"))
        host._mptcp_tokens = tokens
    return tokens
