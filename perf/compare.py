"""A/B verdicts from benchmark records.

    python perf/compare.py OLD.json NEW.json
    python perf/compare.py --pairs 10 REF_A REF_B [--workload NAME] [--seed N]

The first form compares two record files written by ``perf/run.py``
(each one record, or a JSON list of records).  The second measures two
git refs itself — ``.`` means the working tree — with *this* checkout's
``perf/`` against each ref's ``src/``, so both sides see identical
benchmark code; pairs alternate which side runs first.

One row per (metric, workload):

* ``improved``   the new side wins at least 9/10 of at least ten pairs
                 (ties count for neither) **and** the medians differ by
                 more than the old side's own IQR;
* ``regressed``  the new median is worse by more than the metric's bound
                 and the spread is narrow enough to say so (or every new
                 sample is worse than every old one);
* ``unresolved`` a side's IQR is wider than the bound, so a change of
                 the bound's size cannot be told from noise — never
                 reported as unchanged, unless every new sample is
                 better than every old one;
* ``unchanged``  otherwise.

Exact counts (``*.py_calls``, events, stats counters, output digests)
compare for equality.  Exit status is non-zero on any regression or any
change of ``fail_share``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> list[dict]:
    data = json.loads(path.read_text())
    return data if isinstance(data, list) else [data]


def samples(records: list[dict], workload: str, metric: str) -> list[float]:
    """One value per run when there are several records; a single
    record falls back to its own repetitions."""
    rows = [r["workloads"][workload] for r in records if workload in r["workloads"]]
    if len(rows) > 1:
        return [row["end_to_end"][metric]["value"] for row in rows]
    if not rows:
        return []
    row = rows[0]
    if metric == "wall_s":
        return [rep["wall_s"] for rep in row["reps"] if "wall_s" in rep]
    if metric == "setup_s":
        return list(row["setup_samples"])
    return [row["end_to_end"][metric]["value"]]


def _iqr(values: list[float]) -> float:
    q1, q3 = metrics.quartiles(values)
    return q3 - q1


def classify(old: list[float], new: list[float], better: str, bound: float) -> tuple[str, str]:
    """``(verdict, detail)`` for one metric on one workload."""
    if not old or not new:
        return "unresolved", "no samples on one side"
    sign = 1.0 if better == "lower" else -1.0  # worse is positive
    old_med, new_med = statistics.median(old), statistics.median(new)
    worse_by = sign * (new_med - old_med) / old_med if old_med else 0.0
    spread = max(_iqr(old) / old_med if old_med else 0.0, _iqr(new) / new_med if new_med else 0.0)
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    all_better = max(sign * n for n in new) < min(sign * o for o in old)
    all_worse = min(sign * n for n in new) > max(sign * o for o in old)
    detail = (
        f"{old_med:.4g} -> {new_med:.4g} ({-worse_by:+.1%}), spread {spread:.1%}, "
        f"wins {wins}/{len(pairs)}"
    )
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(new_med - old_med) > _iqr(old)
    ):
        return "improved", detail
    if worse_by > bound and (spread <= bound or all_worse):
        return "regressed", detail
    if spread > bound or min(len(old), len(new)) < 2:
        return ("unchanged" if all_better else "unresolved"), detail
    return "unchanged", detail


def compare(old: list[dict], new: list[dict]) -> int:
    names = [w for w in old[0]["workloads"] if w in new[0]["workloads"]]
    bad = 0
    print(f"{'metric':14s} {'workload':20s} {'verdict':11s} detail")
    for metric, (_, better, bound) in metrics.END_TO_END.items():
        for name in names:
            verdict, detail = classify(
                samples(old, name, metric), samples(new, name, metric), better, bound
            )
            bad += verdict == "regressed"
            print(f"{metric:14s} {name:20s} {verdict:11s} {detail}")
    for name in names:
        shares = [
            {r["workloads"][name]["end_to_end"]["fail_share"]["value"] for r in side if name in r["workloads"]}
            for side in (old, new)
        ]
        same = shares[0] == shares[1]
        bad += not same
        print(
            f"{'fail_share':14s} {name:20s} {'unchanged' if same else 'CHANGED':11s} "
            f"{sorted(shares[0])} -> {sorted(shares[1])}"
        )
    for name in names:
        exact_old = old[0]["workloads"][name].get("exact")
        exact_new = new[0]["workloads"][name].get("exact")
        if exact_old is None or exact_new is None:
            continue
        exact_old = {**exact_old, "digest": old[0]["workloads"][name]["check"]["digest"]}
        exact_new = {**exact_new, "digest": new[0]["workloads"][name]["check"]["digest"]}
        changed = [k for k in exact_old if exact_old[k] != exact_new.get(k)]
        print(
            f"{'exact counts':14s} {name:20s} {'changed' if changed else 'identical':11s} "
            f"{len(exact_old) - len(changed)}/{len(exact_old)} equal"
        )
        for key in changed:
            print(f"{'':14s} {'':20s} {'':11s} {key}: {exact_old[key]} -> {exact_new.get(key)}")
    return 1 if bad else 0


def _checkout(ref: str, into: Path) -> Path:
    """``src/`` of a git ref, extracted under ``into``; ``.`` is the
    working tree itself."""
    if ref == ".":
        return ROOT / "src"
    target = into / ref.replace("/", "_")
    target.mkdir()
    archive = subprocess.run(
        ["git", "archive", ref, "src"], cwd=ROOT, check=True, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)
    return target / "src"


def run_pairs(pairs: int, ref_a: str, ref_b: str, passthrough: list[str]) -> int:
    results = PERF / "results"
    results.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=".ab-", dir=results))
    try:
        trees = {"A": _checkout(ref_a, scratch), "B": _checkout(ref_b, scratch)}
        records: dict[str, list[dict]] = {"A": [], "B": []}
        for pair in range(pairs):
            for side in ("AB" if pair % 2 == 0 else "BA"):
                out = scratch / f"{side}{pair}.json"
                command = [
                    sys.executable,
                    str(PERF / "run.py"),
                    "--src",
                    str(trees[side]),
                    "--out",
                    str(out),
                    *passthrough,
                ]
                print(f"pair {pair + 1}/{pairs} side {side} ...", flush=True)
                subprocess.run(command, stdout=subprocess.DEVNULL)
                records[side].append(json.loads(out.read_text()))
        stamp = records["A"][0]["provenance"]["timestamp"].replace(":", "").replace("-", "")
        for side, ref in (("A", ref_a), ("B", ref_b)):
            kept = results / f"ab-{stamp}-{side}.json"
            kept.write_text(json.dumps(records[side]) + "\n")
            print(f"side {side} = {ref}: {kept}")
        return compare(records["A"], records["B"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("sides", nargs=2, metavar="OLD NEW", help="two record files, or two git refs with --pairs")
    parser.add_argument("--pairs", type=int, help="measure the two refs this many times each")
    parser.add_argument("--workload", help="with --pairs: one workload only")
    parser.add_argument("--seed", type=int, help="with --pairs: workload seed")
    parser.add_argument("--seconds", type=float, help="with --pairs: timed seconds per workload")
    args = parser.parse_args()
    if args.pairs is None:
        return compare(load(Path(args.sides[0])), load(Path(args.sides[1])))
    passthrough: list[str] = []
    for flag in ("workload", "seed", "seconds"):
        value = getattr(args, flag)
        if value is not None:
            passthrough += [f"--{flag}", str(value)]
    return run_pairs(args.pairs, args.sides[0], args.sides[1], passthrough)


if __name__ == "__main__":
    raise SystemExit(main())
