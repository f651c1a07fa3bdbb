"""Scenario fuzzer: random topologies × faults × middleboxes under the oracle.

Each scenario is a :class:`ScenarioSpec` — a plain dataclass whose repr is
eval-able Python — fully determined by one integer seed.  ``run_scenario``
builds the network, attaches the :class:`~repro.check.oracle.InvariantOracle`
(unless the test harness already did), runs a client→server transfer, and
reports whether any invariant fired.  On failure the fuzzer greedily
shrinks the spec (drop elements, halve the payload, drop paths) and emits
a self-contained repro script that re-raises the violation.

CLI::

    PYTHONPATH=src python -m repro.check.fuzzer --seeds 0:50 --out fuzz-failures

exits non-zero if any seed failed, leaving one ``repro_seed<N>.py`` per
failure in the output directory.  Incomplete scenarios (no invariant
broken, payload short) are counted in the summary, not failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro.apps.bulk import BulkSenderApp
from repro.check.oracle import InvariantOracle, InvariantViolation
from repro.experiments.common import (
    PathSpec,
    build_multipath_network,
    client_ends,
    open_client,
    open_listener,
)
from repro.middlebox.jitter import Duplicator, Jitter
from repro.middlebox.stripper import OptionStripper
from repro.mptcp.connection import MPTCPConfig
from repro.net.faults import Corrupter, GilbertElliottLoss, LinkFlap, Reorderer
from repro.net.path import FORWARD, REVERSE
from repro.sim.rng import SeededRNG

# Namespace in which element constructor expressions are evaluated.  The
# expressions come from this module's own generator (or from an emitted
# repro script) — they are code, not data crossing a trust boundary.
ELEMENT_NAMESPACE = {
    "Corrupter": Corrupter,
    "Duplicator": Duplicator,
    "FORWARD": FORWARD,
    "GilbertElliottLoss": GilbertElliottLoss,
    "Jitter": Jitter,
    "LinkFlap": LinkFlap,
    "OptionStripper": OptionStripper,
    "REVERSE": REVERSE,
    "Reorderer": Reorderer,
    "SeededRNG": SeededRNG,
}

MIN_PAYLOAD = 2048


@dataclasses.dataclass
class ScenarioSpec:
    """Everything needed to replay one scenario.  ``repr(spec)`` is valid
    Python (elements are constructor-expression strings), which is what
    makes emitted repro scripts self-contained."""

    seed: int
    protocol: str  # "tcp" | "mptcp"
    paths: list  # per path: dict(rate_bps=, delay=, queue_bytes=, loss=)
    elements: list  # per path: list of constructor-expression strings
    payload_size: int
    duration: float = 45.0
    checksum: bool = True  # MPTCP DSS checksum


@dataclasses.dataclass
class ScenarioOutcome:
    spec: ScenarioSpec
    failure: BaseException | None = None
    completed: bool = False
    received: bytes = b""  # what the server application read, in order
    tolerated: int = 0
    # Oracle events by scope: (skipped, scoped to one host, swept).
    scopes: tuple = (0, 0, 0)

    @property
    def received_bytes(self) -> int:
        return len(self.received)

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def describe(self) -> str:
        if isinstance(self.failure, InvariantViolation):
            return self.failure.format()
        if self.failure is not None:
            return f"{type(self.failure).__name__}: {self.failure}"
        state = "completed" if self.completed else "incomplete (not a failure)"
        return f"ok: {state}, {self.received_bytes} bytes delivered"


def _payload(size: int, seed: int) -> bytes:
    # SeededRNG.raw keeps the historical random.Random(seed ^ 0x5EED)
    # draw sequence byte-identical, so pinned fuzzer corpora replay.
    rnd = SeededRNG.raw(seed ^ 0x5EED, "fuzz-payload")
    return bytes(rnd.getrandbits(8) for _ in range(size))


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Build the network described by ``spec``, run the transfer under the
    invariant oracle, and report.  Deterministic: same spec, same outcome."""
    # Plain TCP has one interface, so it uses the first path only.
    params = spec.paths if spec.protocol == "mptcp" else spec.paths[:1]
    paths = [
        PathSpec(
            rate_bps=p["rate_bps"],
            rtt=2 * p["delay"],
            buffer_bytes=p.get("queue_bytes", 80_000),
            loss=p.get("loss", 0.0),
        )
        for p in params
    ]
    elements = [
        [eval(expr, dict(ELEMENT_NAMESPACE)) for expr in exprs]
        for exprs in (spec.elements + [[]] * len(paths))[: len(paths)]
    ]
    net, client, server = build_multipath_network(
        paths, seed=spec.seed, ends=client_ends(len(paths), "10.9.0.1"), elements=elements
    )
    if net.sim.post_event is None:
        oracle = InvariantOracle.attach(net)
    else:  # test harness (REPRO_ORACLE=1) already attached one
        oracle = getattr(net, "_oracle", None)

    payload = _payload(spec.payload_size, spec.seed)
    outcome = ScenarioOutcome(spec=spec)
    received = bytearray()

    def on_accept(endpoint):
        def on_data(e):
            received.extend(e.read())
            if len(received) >= len(payload):
                outcome.completed = True

        endpoint.on_data = on_data
        endpoint.on_eof = lambda e: e.close()

    config = MPTCPConfig(checksum=spec.checksum) if spec.protocol == "mptcp" else None
    open_listener(server, config, on_accept)
    BulkSenderApp(open_client(client, server, config), payload)

    try:
        net.run(until=spec.duration)
    except BaseException as failure:  # noqa: BLE001 — any crash is a finding
        outcome.failure = failure
    outcome.received = bytes(received)
    if oracle is not None:
        outcome.tolerated = oracle.tolerated_modifications
        outcome.scopes = (oracle.events_skipped, oracle.events_scoped, oracle.events_swept)
    return outcome


# ---------------------------------------------------------------------------
# Random scenario generation
# ---------------------------------------------------------------------------
def random_scenario(seed: int) -> ScenarioSpec:
    rng = SeededRNG(seed, "fuzzer")
    protocol = "mptcp" if rng.chance(0.65) else "tcp"
    n_paths = rng.randint(1, 3) if protocol == "mptcp" else 1
    checksum = bool(rng.chance(0.8)) if protocol == "mptcp" else True
    paths, elements = [], []
    for index in range(n_paths):
        paths.append(
            dict(
                rate_bps=float(rng.choice([1e6, 2e6, 4e6, 8e6, 10e6])),
                delay=round(rng.uniform(0.005, 0.08), 4),
                queue_bytes=int(rng.choice([20_000, 40_000, 80_000])),
                loss=float(rng.choice([0.0, 0.0, 0.005, 0.02])),
            )
        )
        elements.append(_random_elements(rng, protocol, checksum, n_paths))
    return ScenarioSpec(
        seed=seed,
        protocol=protocol,
        paths=paths,
        elements=elements,
        payload_size=int(rng.choice([4096, 16384, 65536, 131072])),
        checksum=checksum,
    )


def _random_elements(
    rng: SeededRNG, protocol: str, checksum: bool, n_paths: int
) -> list:
    def sub() -> int:
        return rng.getrandbits(16)

    catalog = [
        lambda: (
            f"LinkFlap(seed={sub()}, up_mean={round(rng.uniform(0.5, 2.0), 3)}, "
            f"down_mean={round(rng.uniform(0.01, 0.06), 3)})"
        ),
        lambda: (
            f"GilbertElliottLoss(seed={sub()}, "
            f"p_enter_bad={round(rng.uniform(0.001, 0.008), 4)}, "
            f"p_exit_bad={round(rng.uniform(0.1, 0.4), 3)}, "
            f"loss_bad={round(rng.uniform(0.5, 1.0), 2)})"
        ),
        lambda: (
            f"Reorderer(seed={sub()}, "
            f"probability={round(rng.uniform(0.01, 0.08), 3)}, "
            f"depth={rng.randint(1, 4)})"
        ),
        lambda: (
            f"Duplicator(probability={round(rng.uniform(0.005, 0.03), 4)}, "
            f"rng=SeededRNG({sub()}, 'dup'))"
        ),
        lambda: (
            f"Jitter(max_jitter={round(rng.uniform(0.0005, 0.004), 5)}, "
            f"rng=SeededRNG({sub()}, 'jit'))"
        ),
    ]
    if protocol == "mptcp":
        catalog.append(lambda: "OptionStripper(syn_only=True)")
        if n_paths == 1:
            # Data-segment stripping only composes safely on a sole
            # subflow (the fallback ladder's precondition).
            catalog.append(
                lambda: "OptionStripper(syn_only=False, skip_syn=True, "
                "direction=FORWARD)"
            )
            catalog.append(
                lambda: (
                    f"OptionStripper(syn_only=False, skip_syn=True, "
                    f"direction=FORWARD, "
                    f"active_after={round(rng.uniform(0.3, 1.0), 2)})"
                )
            )
        if checksum:
            # Payload damage that the DSS checksum is required to catch.
            catalog.append(
                lambda: (
                    f"Corrupter(seed={sub()}, "
                    f"probability={round(rng.uniform(0.002, 0.01), 4)}, "
                    f"active_after={round(rng.uniform(0.5, 1.5), 2)})"
                )
            )
    else:
        # Plain TCP has no checksum in the model: damage is delivered and
        # the oracle *tolerates* the mismatch (that is TCP behaviour).
        catalog.append(
            lambda: (
                f"Corrupter(seed={sub()}, "
                f"probability={round(rng.uniform(0.002, 0.01), 4)})"
            )
        )
    return [rng.choice(catalog)() for _ in range(rng.choice([0, 1, 1, 2]))]


# ---------------------------------------------------------------------------
# Greedy shrinking
# ---------------------------------------------------------------------------
def _replace(spec: ScenarioSpec, **changes) -> ScenarioSpec:
    fresh = dataclasses.replace(spec)
    fresh.paths = [dict(p) for p in spec.paths]
    fresh.elements = [list(e) for e in spec.elements]
    for key, value in changes.items():
        setattr(fresh, key, value)
    return fresh


SHRINK_BUDGET = 48  # scenario runs one shrink may spend


def shrink(spec: ScenarioSpec) -> ScenarioSpec:
    """Greedily minimize a failing spec: drop elements one at a time,
    halve the payload, drop whole paths — keeping any change that still
    fails.  Deterministic, bounded by ``SHRINK_BUDGET`` scenario runs."""
    runs = {"left": SHRINK_BUDGET}

    def still_fails(candidate: ScenarioSpec) -> bool:
        if runs["left"] <= 0:
            return False
        runs["left"] -= 1
        return run_scenario(candidate).failed

    current = spec
    progressed = True
    while progressed and runs["left"] > 0:
        progressed = False
        for p, exprs in enumerate(current.elements):
            for j in range(len(exprs)):
                candidate = _replace(current)
                del candidate.elements[p][j]
                if still_fails(candidate):
                    current, progressed = candidate, True
                    break
            if progressed:
                break
        if progressed:
            continue
        if current.payload_size > MIN_PAYLOAD:
            candidate = _replace(
                current, payload_size=max(MIN_PAYLOAD, current.payload_size // 2)
            )
            if still_fails(candidate):
                current, progressed = candidate, True
                continue
        if current.protocol == "mptcp" and len(current.paths) > 1:
            for p in range(len(current.paths)):
                candidate = _replace(current)
                del candidate.paths[p]
                del candidate.elements[p]
                if still_fails(candidate):
                    current, progressed = candidate, True
                    break
    return current


# ---------------------------------------------------------------------------
# Repro emission
# ---------------------------------------------------------------------------
_REPRO_TEMPLATE = '''#!/usr/bin/env python
"""Minimized repro emitted by repro.check.fuzzer.

Failure: {label}
Run with:  PYTHONPATH=src python {filename}
"""

from repro.check.fuzzer import ScenarioSpec, run_scenario

SPEC = {spec!r}

outcome = run_scenario(SPEC)
if outcome.failure is None:
    print("did not reproduce:", outcome.describe())
    raise SystemExit(1)
print(outcome.describe())
raise outcome.failure
'''


def emit_repro(
    spec: ScenarioSpec, outcome: ScenarioOutcome, directory: str = "fuzz-failures"
) -> str:
    os.makedirs(directory, exist_ok=True)
    filename = f"repro_seed{spec.seed}.py"
    path = os.path.join(directory, filename)
    if isinstance(outcome.failure, InvariantViolation):
        label = f"[{outcome.failure.invariant}] {outcome.failure.message}"
    else:
        label = f"{type(outcome.failure).__name__}: {outcome.failure}"
    with open(path, "w") as handle:
        handle.write(
            _REPRO_TEMPLATE.format(label=label, filename=filename, spec=spec)
        )
    return path


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def fuzz(
    seeds, out_dir: str = "fuzz-failures", verbose: bool = False
) -> tuple[list[tuple[int, ScenarioOutcome, str]], int, list[int]]:
    """Run one scenario per seed; shrink and emit a repro per failure.
    Returns ``(failures, incomplete, scopes)``, ``scopes`` summed."""
    failures: list = []
    incomplete = 0
    scopes = [0, 0, 0]
    for seed in seeds:
        spec = random_scenario(seed)
        outcome = run_scenario(spec)
        for index, count in enumerate(outcome.scopes):
            scopes[index] += count
        if verbose:
            print(f"seed {seed}: {spec.protocol} x{len(spec.paths)} "
                  f"{spec.payload_size}B -> {outcome.describe()}")
        if not outcome.failed:
            incomplete += not outcome.completed
            continue
        small = shrink(spec)
        final = run_scenario(small)
        if not final.failed:  # shrinker budget ran dry mid-step; keep original
            small, final = spec, outcome
        path = emit_repro(small, final, out_dir)
        failures.append((seed, final, path))
        print(f"seed {seed}: FAILURE {final.describe().splitlines()[0]}")
        print(f"  repro: {path}")
    return failures, incomplete, scopes


def _parse_seeds(text: str) -> list[int]:
    """``--seeds``: an empty or reversed range, or a non-integer, is a
    usage error rather than a vacuous run of zero scenarios."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range or list: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds",
        type=_parse_seeds,
        default="0:20",
        help="range lo:hi (exclusive) or comma list",
    )
    parser.add_argument("--out", default="fuzz-failures", help="repro directory")
    parser.add_argument("--verbose", action="store_true")
    options = parser.parse_args(argv)
    seeds = options.seeds
    failures, incomplete, scopes = fuzz(seeds, out_dir=options.out, verbose=options.verbose)
    summary = f"{len(seeds)} scenarios, {len(failures)} failures, {incomplete} incomplete"
    if options.verbose and sum(scopes):
        skipped, scoped, swept = (100.0 * n / sum(scopes) for n in scopes)
        summary += (
            f"; {sum(scopes)} oracle events: {skipped:.1f}% skipped (no host), "
            f"{scoped:.1f}% scoped (one host), {swept:.1f}% swept (all)"
        )
    print(summary)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
