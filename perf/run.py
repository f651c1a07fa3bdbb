"""The benchmark: one command, seven workloads, every metric by name.

Ledger mode (a person at a terminal)::

    python perf/run.py [--seed N] [--workload NAME] [--out FILE]

runs every workload — timed repetitions with the profile hook off, then
one traced repetition — prints each end-to-end and per-layer metric with
its unit, checks the simulated outputs against ``perf/golden.json`` and
appends one raw record under ``perf/results/``.

Driver mode (``BENCHMARK.json``'s contract)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload and prints one JSON object as the last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Either way each measurement runs in a fresh child process
(``perf/child.py``): single-threaded, pinned to one CPU, with
``REPRO_WORKERS=1 REPRO_CACHE=0 PYTHONHASHSEED=0`` and
``REPRO_SHARDS``/``REPRO_ORACLE`` unset.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
# The metric catalogue names the workloads, and workloads.py imports the
# program: without src/ there is nothing to measure and this fails here.
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

RESULTS = PERF / "results"
GOLDEN = PERF / "golden.json"
GOLDEN_SEEDS = (4, 11)

# Seconds of timed repetitions per workload in ledger mode, chosen so the
# whole command (7 workloads, timed + traced) stays under 180 s.
LEDGER_SECONDS = 5.0
# Set-up is measured this many times per run (fresh process each) and the
# median reported: it is the shortest and so the noisiest measurement.
SETUPS = 3
TINY_SCALE = 0.1


def _child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_WORKERS="1",
        REPRO_CACHE="0",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(src),
    )
    return env


def _spawn(src: Path, workload: str, seed: int, scale: float, extra: list[str]) -> dict:
    """Run ``child.py`` once and parse the JSON on its last stdout line."""
    command = [
        sys.executable,
        str(PERF / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--scale",
        repr(scale),
        *extra,
        "--spawned-at",
        repr(time.time()),
    ]
    done = subprocess.run(command, env=_child_env(src), stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"child for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(
    src: Path,
    workload: str,
    seed: int,
    seconds: float,
    min_reps: int,
    trace: bool,
    scale: float = 1.0,
    setups: int = SETUPS,
) -> dict:
    """All child processes of one workload measurement, merged: the main
    child's result plus ``setup_samples`` from the set-up-only children."""

    def setup_only() -> float:
        return _spawn(src, workload, seed, scale, ["--seconds", "0", "--setup-only"])["setup_s"]

    # Half of the extra set-ups run before the main child and half
    # after, so the samples straddle the run instead of sharing one of
    # the box's slow or fast spells.
    before = [setup_only() for _ in range((setups - 1) // 2)]
    extra = ["--seconds", repr(seconds), "--min-reps", str(min_reps), "--trace", str(int(trace))]
    raw = _spawn(src, workload, seed, scale, extra)
    after = [setup_only() for _ in range(setups - 1 - len(before))]
    raw["setup_samples"] = [*before, raw["setup_s"], *after]
    return raw


# ----------------------------------------------------------------------
# From a raw child result to named metrics
# ----------------------------------------------------------------------
def load_golden(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def check_outputs(raw: dict, golden: dict) -> dict:
    """Failure accounting.  Every repetition's digest must equal the
    golden one (seeds 4 and 11 at full scale) or, for other seeds, the
    first repetition's; a repetition that does not fails all its ops."""
    reps = list(raw["reps"])
    if raw.get("traced"):
        reps.append(raw["traced"])
    expected = None
    if raw["scale"] == 1.0:
        expected = golden.get(raw["workload"], {}).get(str(raw["seed"]))
    source = "golden" if expected else "first repetition"
    expected = expected or reps[0]["digest"]
    ops = failed = 0
    problems = []
    for rep in reps:
        ops += rep["ops"]
        if rep.get("error"):
            failed += rep["ops"]
            problems.append(f"rep {rep['rep']}: raised\n{rep['error']}")
        elif rep["digest"] != expected:
            failed += rep["ops"]
            problems.append(f"rep {rep['rep']}: digest {rep['digest'][:16]} != {source} {expected[:16]}")
        else:
            failed += rep["failed"]
            if rep["failed"]:
                problems.append(f"rep {rep['rep']}: {rep['failed']} of {rep['ops']} ops failed")
    if raw.get("warmup_error"):
        problems.append(f"warm-up raised\n{raw['warmup_error']}")
    return {
        "ops": ops,
        "ops_failed": failed,
        "fail_share": failed / ops if ops else 1.0,
        "correct": not problems,
        "problems": problems,
        "digest": reps[0]["digest"],
        "checked_against": source,
    }


def end_to_end(raw: dict, check: dict) -> dict:
    """``{name: {"value", "unit", ...}}`` for the end-to-end metrics."""
    walls = [rep["wall_s"] for rep in raw["reps"] if "wall_s" in rep]
    q1, q3 = metrics.quartiles(walls) if walls else (0.0, 0.0)
    values = {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "setup_s": statistics.median(raw["setup_samples"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    table = {
        name: {"value": values[name], "unit": unit, "bound": bound}
        for name, (unit, _, bound) in metrics.END_TO_END.items()
    }
    wall = table["wall_s"]
    raw_walls = [rep["wall_raw_s"] for rep in raw["reps"] if "wall_raw_s" in rep]
    wall.update(
        q1=q1,
        q3=q3,
        min=min(walls, default=0.0),
        reps=len(walls),
        raw=statistics.median(raw_walls) if raw_walls else 0.0,
    )
    # A run whose own repetitions spread wider than the bound cannot
    # resolve a change of the bound's size.
    wall["unresolved"] = bool(wall["value"]) and (q3 - q1) / wall["value"] > wall["bound"]
    table["fail_share"] = {
        "value": check["fail_share"],
        "unit": "ratio",
        "bound": 0.0,
        "ops": check["ops"],
        "ops_failed": check["ops_failed"],
    }
    return table


def per_layer(raw: dict) -> dict:
    """``{name: value}`` for every per-layer metric (needs a traced run)."""
    reps = [rep for rep in raw["reps"] if "wall_s" in rep]
    traced = raw["traced"]
    first = reps[0]

    def med(key: str) -> float:
        return statistics.median(rep[key] for rep in reps)

    # Per-layer timings are raw host time, like the profile's own.
    wall = med("wall_raw_s")
    values = dict.fromkeys(metrics.PER_LAYER, 0.0)
    profile = traced["profile"]
    for layer in layers.LAYERS:
        row = profile["layers"][layer]
        values[f"{layer}.self_share"] = row["self_s"] / profile["total_s"]
        values[f"{layer}.py_calls"] = row["py_calls"]
    values.update(first["counts"])
    values["sim.engine.events"] = first["events"]
    values["sim.engine.run_calls"] = first["run_calls"]
    values["sim.engine.gc_collections"] = first["gc_collections"]
    values["sim.engine.gc_s"] = med("gc_s")
    values["sim.engine.events_per_s"] = first["events"] / wall
    values["host.cpu_s"] = med("cpu_s")
    values["host.payload_mb_per_s"] = first["payload_bytes"] / 1e6 / wall
    values["phase.build_s"] = med("build_s")
    values["phase.run_s"] = med("run_s")
    microsims = [ms for rep in reps for ms in rep.get("microsim_ms", ())]
    if microsims:
        values["study.sample_s"] = statistics.median(rep["extras"]["sample_s"] for rep in reps)
        values["study.paths_per_s"] = first["extras"]["paths"] / wall
        values["study.microsim_ms_p50"] = statistics.median(microsims)
        # 5% of >= 300 microsims leaves more than ten samples beyond it.
        values["study.microsim_ms_p95"] = statistics.quantiles(microsims, n=20)[18]
    if raw.get("baseline_wall_s"):
        values["check.oracle_slowdown"] = wall / raw["baseline_wall_s"]
    values["trace.overhead_ratio"] = traced["wall_raw_s"] / wall
    values.update(raw["probes"])
    return values


# ----------------------------------------------------------------------
# Provenance and records
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, src: Path) -> dict:
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "src": str(src),
        "env": {k: v for k, v in _child_env(src).items() if k.startswith(("REPRO_", "PYTHONHASHSEED"))},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def workload_record(raw: dict, check: dict) -> dict:
    """The raw, append-only part of a record for one workload."""
    record = {
        "check": check,
        "end_to_end": end_to_end(raw, check),
        "affinity": raw["affinity"],
        "setup_samples": raw["setup_samples"],
        "setup_raw_s": raw["setup_raw_s"],
        "setup_slowdown": raw["setup_slowdown"],
        "reps": [
            {k: v for k, v in rep.items() if k not in ("counts", "microsim_ms")} for rep in raw["reps"]
        ],
        "spans": raw["spans"],
    }
    if raw.get("traced"):
        values = per_layer(raw)
        record["per_layer"] = values
        record["exact"] = {name: values[name] for name in metrics.EXACT}
        record["edges"] = raw["traced"]["profile"]["edges"]
        record["traced_wall_s"] = raw["traced"]["wall_raw_s"]
        record["probes_unavailable"] = raw["probes_unavailable"]
    return record


def print_workload(name: str, record: dict) -> None:
    print(f"\n== {name} ==")
    for metric, row in record["end_to_end"].items():
        line = f"  {metric:38s} {row['value']:14.4f} {row['unit']:6s} bound {row['bound']:.0%}"
        if metric == "wall_s":
            line += (
                f"  q1 {row['q1']:.4f} q3 {row['q3']:.4f} min {row['min']:.4f} reps {row['reps']}"
                f" (raw median {row['raw']:.4f})"
                + ("  UNRESOLVED (IQR > bound)" if row["unresolved"] else "")
            )
        if metric == "fail_share":
            line += f"  ops {row['ops']} failed {row['ops_failed']}"
        print(line)
    for metric, value in record.get("per_layer", {}).items():
        unit = metrics.PER_LAYER[metric][0]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.4f}"
        print(f"  {metric:38s} {shown} {unit}")
    for name_ in record.get("probes_unavailable", {}):
        print(f"  {name_:38s} unavailable")
    for problem in record["check"]["problems"]:
        print(f"  OUTPUT CHECK FAILED: {problem}")


# ----------------------------------------------------------------------
# Derived report
# ----------------------------------------------------------------------
def render_report(record: dict) -> str:
    """``perf/LAYERS.md``: derived from one raw record, never edited."""
    names = list(record["workloads"])
    prov = record["provenance"]
    out = [
        "# Where the host time goes",
        "",
        "Derived by `python perf/run.py --report` from "
        f"`perf/results/{record['file']}`; do not edit.",
        "",
        f"commit `{prov['commit']}`{' (dirty)' if prov['dirty'] else ''}, python {prov['python']}, "
        f"{prov['cpu_count']} CPUs, seed {prov['seed']}, {prov['timestamp']}, "
        f"harness wall {record['harness_wall_s']:.1f} s.",
        "",
        "## End to end (profile hook off)",
        "",
        "`wall_s` is the median over the timed repetitions with its quartiles, in calibrated",
        "seconds (README.md); `raw` is the uncalibrated median.  A row whose IQR exceeds the",
        "bound is marked unresolved.  events/s is derived from raw time.",
        "",
        "| workload | wall_s | q1 | q3 | IQR/median | reps | raw | setup_s | peak_rss_mb | fail_share | events/s |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for name in names:
        e2e = record["workloads"][name]["end_to_end"]
        wall = e2e["wall_s"]
        spread = (wall["q3"] - wall["q1"]) / wall["value"] if wall["value"] else 0.0
        layer = record["workloads"][name].get("per_layer", {})
        out.append(
            f"| {name} | {wall['value']:.3f} | {wall['q1']:.3f} | {wall['q3']:.3f} | "
            f"{spread:.1%}{' unresolved' if wall['unresolved'] else ''} | {wall['reps']} | "
            f"{wall['raw']:.3f} | "
            f"{e2e['setup_s']['value']:.3f} | {e2e['peak_rss_mb']['value']:.1f} | "
            f"{e2e['fail_share']['value']:.3g} ({e2e['fail_share']['ops_failed']}/{e2e['fail_share']['ops']}) | "
            f"{layer.get('sim.engine.events_per_s', 0):,.0f} |"
        )
    traced = [n for n in names if "per_layer" in record["workloads"][n]]
    if traced:
        for title, suffix, fmt in (
            ("Self time share per layer (traced repetition)", "self_share", "{:.1%}"),
            ("Python calls per layer (exact, traced repetition)", "py_calls", "{:,}"),
        ):
            out += ["", f"## {title}", "", "| layer | " + " | ".join(traced) + " |"]
            out.append("|---|" + "---|" * len(traced))
            for layer in layers.LAYERS:
                cells = [
                    fmt.format(record["workloads"][n]["per_layer"][f"{layer}.{suffix}"]) for n in traced
                ]
                out.append(f"| {layer} | " + " | ".join(cells) + " |")
        out += ["", "## Work counts and derived timings", "", "| metric | " + " | ".join(traced) + " |"]
        out.append("|---|" + "---|" * len(traced))
        first = record["workloads"][traced[0]]["per_layer"]
        for metric in first:
            if metric.endswith((".self_share", ".py_calls")) or metric.startswith("probe."):
                continue
            cells = []
            for n in traced:
                value = record["workloads"][n]["per_layer"][metric]
                cells.append(f"{value:,}" if isinstance(value, int) else f"{value:.4g}")
            out.append(f"| {metric} | " + " | ".join(cells) + " |")
        out += ["", "## Layer probes (median of 5, per workload's child process)", ""]
        out.append("| probe | " + " | ".join(traced) + " |")
        out.append("|---|" + "---|" * len(traced))
        for metric in first:
            if metric.startswith("probe."):
                cells = [f"{record['workloads'][n]['per_layer'][metric]:.1f}" for n in traced]
                out.append(f"| {metric} | " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def newest_record() -> Path:
    records = sorted(RESULTS.glob("[0-9]*.json"))  # not compare.py's ab-* lists
    if not records:
        raise SystemExit("no records under perf/results/; run perf/run.py first")
    return records[-1]


# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------
def update_golden(src: Path, names: list[str]) -> int:
    """Regenerate ``golden.json``; refuses unless two consecutive runs of
    every (workload, seed) produce the same digest."""
    golden = load_golden()
    for name in names:
        for seed in GOLDEN_SEEDS:
            digests = []
            for _ in range(2):
                raw = measure(src, name, seed, 0.0, 1, trace=False, setups=1)
                rep = raw["reps"][0]
                if rep.get("error") or rep["failed"]:
                    print(f"{name} seed {seed}: repetition failed; golden not updated")
                    print(rep.get("error") or f"{rep['failed']} of {rep['ops']} ops failed")
                    return 1
                digests.append(rep["digest"])
            if digests[0] != digests[1]:
                print(f"{name} seed {seed}: two runs disagree ({digests}); golden not updated")
                return 1
            golden.setdefault(name, {})[str(seed)] = digests[0]
            print(f"{name} seed {seed}: {digests[0]}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


# ----------------------------------------------------------------------
def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver mode: which metrics to print")
    parser.add_argument("--out", type=Path, help="write the raw record here instead of perf/results/")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the tree to measure (default: ./src)")
    parser.add_argument("--golden", type=Path, default=GOLDEN, help="digest file to check against")
    parser.add_argument("--tiny", action="store_true", help="scale every workload to <1 s (self-tests)")
    parser.add_argument("--report", action="store_true", help="derive perf/LAYERS.md from the newest record")
    parser.add_argument("--update-golden", action="store_true", help="regenerate perf/golden.json")
    args = parser.parse_args(argv)

    if args.report:
        path = args.out or newest_record()
        record = json.loads(path.read_text())
        record["file"] = path.name
        (PERF / "LAYERS.md").write_text(render_report(record))
        print(f"wrote perf/LAYERS.md from {path.name}")
        return 0

    src = args.src.resolve()
    if not (src / "repro" / "__init__.py").exists():
        print(f"perf/run.py: no repro package under {src}; nothing to measure", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.update_golden:
        return update_golden(src, names)

    golden = load_golden(args.golden)
    scale = TINY_SCALE if args.tiny else 1.0
    started = time.perf_counter()

    if args.trace is not None:
        # Driver mode: one workload, one result line.
        if len(names) != 1:
            parser.error("--trace needs --workload")
        seconds = args.seconds if args.seconds is not None else metrics.RUN_SECONDS
        if args.trace:
            raw = measure(src, names[0], args.seed, 0.0, 1, trace=True, scale=scale, setups=1)
        else:
            raw = measure(src, names[0], args.seed, seconds, 2, trace=False, scale=scale)
        check = check_outputs(raw, golden)
        for problem in check["problems"]:
            print(f"OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
        if args.trace:
            values = per_layer(raw)
            table = {n: {"value": values[n], "unit": metrics.PER_LAYER[n][0]} for n in metrics.PER_LAYER}
        else:
            e2e = end_to_end(raw, check)
            table = {n: {"value": e2e[n]["value"], "unit": e2e[n]["unit"]} for n in metrics.END_TO_END}
        if args.out:
            record = {"provenance": provenance(args.seed, src), "workloads": {names[0]: workload_record(raw, check)}}
            args.out.write_text(json.dumps(record) + "\n")
        print(
            json.dumps(
                {
                    "correct": check["correct"],
                    "attempted": check["ops"],
                    "failed": check["ops_failed"],
                    "metrics": table,
                }
            )
        )
        return 0 if check["correct"] else 1

    # Ledger mode.
    seconds = args.seconds if args.seconds is not None else LEDGER_SECONDS
    record = {"provenance": provenance(args.seed, src), "tiny": args.tiny, "workloads": {}}
    correct = True
    for name in names:
        raw = measure(src, name, args.seed, seconds, 2, trace=True, scale=scale)
        check = check_outputs(raw, golden)
        correct = correct and check["correct"]
        record["workloads"][name] = workload_record(raw, check)
        print_workload(name, record["workloads"][name])
    record["harness_wall_s"] = time.perf_counter() - started
    out = args.out
    if out is None:
        RESULTS.mkdir(exist_ok=True)
        commit = (record["provenance"]["commit"] or "nogit")[:10]
        out = RESULTS / f"{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}-{commit}.json"
    out.write_text(json.dumps(record) + "\n")
    print(f"\nharness wall {record['harness_wall_s']:.1f} s; raw record: {out}")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
