"""Serial vs sharded conformance gate for the figure reproductions.

Captures every deterministic figure's rows twice — once serial, once
with ``REPRO_SHARDS`` set — and diffs the canonical JSON byte-for-byte.
The sharded capture may additionally run under the invariant oracle
(``--oracle``), which checks per-event protocol invariants on every
simulator, so a sharding bug that perturbs protocol state trips the
oracle even where it happens not to change a row.

Each capture runs in a child process so the environment knobs are
applied cleanly: ``REPRO_WORKERS=1`` (row capture stays in-process).

Usage::

    PYTHONPATH=src python benchmarks/shard_conformance.py [--shards N] [--oracle]

Exits 0 when the captures are byte-identical, 1 with a context diff
otherwise.  CI runs this as the shard-conformance job.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def _capture_to(out_path: str, oracle: bool) -> None:
    """Child-process mode: capture all rows and write canonical JSON."""
    if oracle:
        from repro.check import InvariantOracle
        from repro.net.network import Network

        original_init = Network.__init__

        def init_with_oracle(self, seed=1, shards=None):
            original_init(self, seed=seed, shards=shards)
            InvariantOracle.attach(self)

        Network.__init__ = init_with_oracle

    sys.path.insert(0, str(HERE))
    from capture_rows import capture

    rows = capture()
    with open(out_path, "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True, default=repr)
        fh.write("\n")


def _run_capture(out_path: Path, shards: int, oracle: bool) -> None:
    env = dict(os.environ)
    env["REPRO_WORKERS"] = "1"
    env.pop("REPRO_ORACLE", None)
    if shards > 1:
        env["REPRO_SHARDS"] = str(shards)
    else:
        env.pop("REPRO_SHARDS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, str(HERE / "shard_conformance.py"), "--capture", str(out_path)]
    if oracle:
        command.append("--oracle")
    subprocess.run(command, env=env, check=True, cwd=str(REPO))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=2, help="shard count (default 2)")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="attach the invariant oracle during the sharded capture",
    )
    parser.add_argument("--capture", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.capture:
        _capture_to(args.capture, oracle=args.oracle)
        return 0

    if args.shards < 2:
        parser.error("--shards must be >= 2 (the serial side is implicit)")

    with tempfile.TemporaryDirectory(prefix="shard-conformance-") as tmp:
        serial_path = Path(tmp) / "serial.json"
        sharded_path = Path(tmp) / f"sharded-{args.shards}.json"
        print("capturing serial rows ...", flush=True)
        _run_capture(serial_path, shards=1, oracle=False)
        oracle_note = " under the invariant oracle" if args.oracle else ""
        print(f"capturing rows with {args.shards} shards{oracle_note} ...", flush=True)
        _run_capture(sharded_path, shards=args.shards, oracle=args.oracle)

        serial_text = serial_path.read_text()
        sharded_text = sharded_path.read_text()

    if serial_text == sharded_text:
        rows = json.loads(serial_text)
        total = sum(len(v) for v in rows.values())
        print(
            f"OK: {total} rows across {len(rows)} experiments are "
            f"byte-identical serial vs {args.shards}-shard{oracle_note}"
        )
        return 0

    serial_rows = json.loads(serial_text)
    sharded_rows = json.loads(sharded_text)
    diverged = sorted(
        key
        for key in set(serial_rows) | set(sharded_rows)
        if serial_rows.get(key) != sharded_rows.get(key)
    )
    print(f"FAIL: rows diverge in: {', '.join(diverged)}", file=sys.stderr)
    diff = difflib.unified_diff(
        serial_text.splitlines(keepends=True),
        sharded_text.splitlines(keepends=True),
        fromfile="serial",
        tofile=f"sharded-{args.shards}",
        n=2,
    )
    shown = 0
    for line in diff:
        sys.stderr.write(line)
        shown += 1
        if shown >= 120:
            sys.stderr.write("... (diff truncated)\n")
            break
    return 1


if __name__ == "__main__":
    sys.exit(main())
