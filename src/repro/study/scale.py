"""The deployment study driver: the 142-path table and internet-scale
populations through one pipeline.

Every outcome comes from the *real* handshake/fallback machinery running
over real middlebox chains (:mod:`repro.study.microsim`).  Two facts make
10^5–10^6 paths tractable:

1. A path's simulated outcome is a pure function of its behaviour
   **signature** (which middleboxes, which endpoint versions, which
   topology) plus a seed — see :meth:`SampledPath.signature`.  A million
   sampled paths collapse onto a few hundred distinct signatures, so
   :func:`simulate_signatures` runs one microsimulation per
   ``(signature, replicate)`` and folds multiplicities into streaming
   counters.  The paper's 142-path table is the same step over the
   enumerated :func:`~repro.study.generative.paper_population` (12 and 13
   distinct signatures per column).
2. Sampling path ``i`` is a pure function of ``(spec, i, seed)``
   (per-index forked RNG streams), so :func:`sample_counts` cuts the
   sample phase into batches fanned over the sweep engine
   (:mod:`repro.experiments.runner`) — and the resulting counters are
   independent of batch size and worker count.

Counter totals feed the seeded interval estimators in
:mod:`repro.stats.bootstrap`, so the report carries bootstrap CIs while
``STUDY_scale.json`` stays byte-identical for a fixed seed across runs
and drivers (the wall-clock paths/s is printed, never written).

Usage::

    python -m repro.study.scale --paths 100000 --spec internet2021
"""

from __future__ import annotations

import argparse
import json
import zlib
from collections import Counter
from pathlib import Path as FsPath
from typing import Callable, Iterable, Optional

from repro.stats.bootstrap import (
    bootstrap_histogram_mean_ci,
    bootstrap_proportion_ci,
    histogram_mean,
    wilson_interval,
)
from repro.stats.wallclock import wall_clock
from repro.study.generative import (
    SPECS,
    SampledPath,
    get_spec,
    sample_path,
    signature_label,
)
from repro.study.microsim import evaluate

# ----------------------------------------------------------------------
# Phase 1: sampling (batched, embarrassingly parallel, no simulators)


def count_paths(paths: Iterable[SampledPath]) -> dict:
    """Mergeable counter tables over ``paths``: behaviour marginals, AS
    and behaviour classes, version sets, and ``"signatures"`` — the
    ``{signature: count}`` mapping :func:`simulate_signatures` takes."""
    marginals: Counter = Counter()
    as_classes: Counter = Counter()
    behaviour_classes: Counter = Counter()
    versions: Counter = Counter()
    signatures: Counter = Counter()
    for path in paths:
        marginals["strip_syn_options"] += path.strips_syn_options
        marginals["strip_all_options"] += path.strips_all_options
        marginals["isn_rewrite"] += path.rewrites_isn
        marginals["hole_block"] += path.blocks_holes
        marginals["ack_mishandle"] += path.ack_mode != "pass"
        marginals["nat"] += path.has_nat
        marginals["add_addr_filter"] += path.add_addr_filtered
        marginals["server_multihomed"] += path.server_multihomed
        as_classes[path.as_class] += 1
        behaviour_classes[path.behaviour_class] += 1
        cv = "v" + "".join(str(v) for v in path.client_versions)
        sv = "v" + "".join(str(v) for v in path.server_versions)
        versions[f"client:{cv}"] += 1
        versions[f"server:{sv}"] += 1
        signatures[path.signature()] += 1
    return {
        "marginals": dict(marginals),
        "as_classes": dict(as_classes),
        "behaviour_classes": dict(behaviour_classes),
        "versions": dict(versions),
        "signatures": dict(signatures),
    }


def _sample_batch(spec_name: str, start: int, count: int, seed: int) -> dict:
    """Count paths ``[start, start + count)`` — the sweep-engine unit.

    A pure function of its arguments: per-index RNG forks mean the same
    index yields the same path regardless of which batch asked.
    """
    spec = get_spec(spec_name)
    return count_paths(sample_path(spec, index, seed) for index in range(start, start + count))


def sample_counts(
    spec_name: str, paths: int, seed: int, batch: int = 20_000, workers: Optional[int] = None
) -> tuple[dict, dict]:
    """Sample ``paths`` paths of a preset in ``batch``-sized sweep points:
    the merged :func:`count_paths` tables, and the sweep's perf notes."""
    # Imported here: the sweep engine loads multiprocessing, which
    # importers of this module that never sweep should not pay for.
    from repro.experiments.runner import Point, require_count, run_parallel

    require_count(batch, "batch")
    sample_points = [
        Point(
            _sample_batch,
            dict(spec_name=spec_name, start=start, count=min(batch, paths - start), seed=seed),
        )
        for start in range(0, paths, batch)
    ]
    sampled = run_parallel(f"scale-sample-{spec_name}", sample_points, workers=workers)
    counts: dict = {}
    for batch_counts in sampled.values:
        _merge_counts(counts, batch_counts)
    return counts, sampled.perf.as_notes()


def _merge_counts(into: dict, batch: dict) -> None:
    for table, counts in batch.items():
        target = into.setdefault(table, {})
        for key, value in counts.items():
            target[key] = target.get(key, 0) + value


# ----------------------------------------------------------------------
# Phase 2: one microsimulation per distinct (signature, replicate)


def _sig_seed(spec_name: str, signature: tuple, replicate: int, base_seed: int) -> int:
    """A stable simulation seed derived from the signature itself (not
    the path index) so every path sharing a signature maps onto the same
    microsimulation regardless of partitioning."""
    digest = zlib.crc32(f"{spec_name}|{signature!r}|{replicate}".encode("utf-8"))
    return (base_seed * 1_000_003 + digest) & 0x7FFFFFFF


def _evaluate_signature(
    spec_name: str, signature: tuple, replicate: int, seed: int, include_strawman: bool
) -> dict:
    """All cases for one distinct signature — the sweep-engine unit."""
    sim_seed = _sig_seed(spec_name, signature, replicate, seed)
    return evaluate(SampledPath.from_signature(signature), sim_seed, include_strawman)


# ----------------------------------------------------------------------
# Folding and reporting


def _split_count(count: int, replicates: int) -> list[int]:
    """Deterministically split a signature's multiplicity across its
    replicate microsimulations."""
    base, extra = divmod(count, replicates)
    return [base + (1 if r < extra else 0) for r in range(replicates)]


def _rate_entry(count: int, total: int, seed: int, name: str) -> dict:
    lo, hi = bootstrap_proportion_ci(count, total, seed=seed, name=name)
    return {
        "count": count,
        "rate": round(count / total, 6) if total else 0.0,
        "ci95": [round(lo, 6), round(hi, 6)],
    }


def _sorted_counts(table: dict) -> dict:
    return {key: int(value) for key, value in sorted(table.items())}


def simulate_signatures(
    spec_name: str,
    signatures: dict,
    seed: int,
    replicates: int = 1,
    include_strawman: bool = False,
    workers: Optional[int] = None,
) -> tuple[dict, dict]:
    """Simulate and fold a ``{signature: count}`` mapping.

    One microsimulation per distinct ``(signature, replicate)``, each
    outcome weighted by its share of the signature's count.  Returns the
    folded tables — ``outcomes`` (path counts per outcome),
    ``fallback_reasons``, ``negotiated``, ``benefit`` (histogram of TCP
    time / MPTCP time, rounded to 0.01) and ``signatures`` (one entry per
    signature label) — and the sweep's perf notes.
    """
    from repro.experiments.runner import Point, require_count, run_parallel

    require_count(replicates, "replicates")
    ordered = sorted(signatures.items(), key=lambda item: repr(item[0]))
    sim_points = [
        Point(
            _evaluate_signature,
            dict(
                spec_name=spec_name,
                signature=signature,
                replicate=replicate,
                seed=seed,
                include_strawman=include_strawman,
            ),
        )
        for signature, _count in ordered
        for replicate in range(replicates)
    ]
    simulated = run_parallel(f"scale-sim-{spec_name}", sim_points, workers=workers)

    outcome_counts: Counter = Counter()
    fallback_reasons: Counter = Counter()
    negotiated: Counter = Counter()
    benefit_hist: Counter = Counter()
    per_signature: dict[str, dict] = {}
    point_index = 0
    for signature, count in ordered:
        label = signature_label(signature)
        sig_entry = per_signature.setdefault(label, {"paths": 0})
        sig_entry["paths"] += count
        for weight in _split_count(count, replicates):
            outcome = simulated.values[point_index]
            point_index += 1
            if weight == 0:
                continue
            mptcp = outcome["mptcp"]
            outcome_counts["tcp_completed"] += weight * outcome["tcp_ok"]
            outcome_counts["mptcp_completed"] += weight * mptcp["ok"]
            outcome_counts["mptcp_used_multipath"] += weight * mptcp["multipath"]
            outcome_counts["mptcp_fell_back"] += weight * mptcp["fallback"]
            if include_strawman:
                outcome_counts["strawman_ok"] += weight * outcome["strawman_ok"]
            if mptcp["fallback"] and mptcp["fallback_reason"]:
                fallback_reasons[mptcp["fallback_reason"]] += weight
            version = mptcp["negotiated_version"]
            if mptcp["ok"] and not mptcp["fallback"] and version is not None:
                negotiated[f"mptcp-v{version}"] += weight
            else:
                negotiated["plain-tcp"] += weight
            if outcome["benefit"] is not None:
                benefit_hist[round(outcome["benefit"], 2)] += weight
            sig_entry["multipath"] = bool(mptcp["multipath"])
            sig_entry["fallback"] = bool(mptcp["fallback"])
            if include_strawman:
                sig_entry["strawman_ok"] = bool(outcome["strawman_ok"])
    folded = {
        "outcomes": outcome_counts,
        "fallback_reasons": fallback_reasons,
        "negotiated": negotiated,
        "benefit": benefit_hist,
        "signatures": per_signature,
    }
    return folded, simulated.perf.as_notes()


def run_scale_study(
    spec_name: str,
    paths: int,
    seed: int = 2026,
    batch: int = 20_000,
    replicates: int = 1,
    include_strawman: bool = False,
    workers: Optional[int] = None,
) -> tuple[dict, dict]:
    """The full pipeline: sample → deduplicate → simulate → fold.

    Returns ``(report, bench)``.  ``report`` is a pure function of
    ``(spec_name, paths, seed, batch-independent inputs)`` — rendering
    it with sorted keys gives byte-identical JSON across runs and worker
    counts.  ``bench`` carries the wall-clock numbers
    and is *not* deterministic.
    """
    spec = get_spec(spec_name)
    started = wall_clock()
    counts, sample_sweep = sample_counts(spec_name, paths, seed, batch, workers)
    signatures = counts.pop("signatures", {})
    sample_elapsed = wall_clock() - started

    folded, sim_sweep = simulate_signatures(
        spec_name, signatures, seed, replicates, include_strawman, workers
    )
    outcome_counts = folded["outcomes"]
    benefit_hist = folded["benefit"]
    per_signature = folded["signatures"]
    outcomes = {
        name: _rate_entry(int(outcome_counts[name]), paths, seed, name)
        for name in sorted(outcome_counts)
    }
    benefit_ci = bootstrap_histogram_mean_ci(dict(benefit_hist), seed=seed, name="benefit")
    mean_benefit = histogram_mean(dict(benefit_hist))

    marginals = {}
    expected = spec.marginals()
    for key in sorted(set(counts.get("marginals", {})) | set(expected)):
        observed = int(counts.get("marginals", {}).get(key, 0))
        lo, hi = wilson_interval(observed, paths, confidence=0.99)
        marginals[key] = {
            "count": observed,
            "rate": round(observed / paths, 6) if paths else 0.0,
            "expected": round(expected.get(key, 0.0), 6),
            "wilson99": [round(lo, 6), round(hi, 6)],
        }

    report = {
        "spec": spec.name,
        "description": spec.description,
        "paths": paths,
        "seed": seed,
        "replicates": replicates,
        "include_strawman": include_strawman,
        "population": {
            "marginals": marginals,
            "as_classes": _sorted_counts(counts.get("as_classes", {})),
            "behaviour_classes": _sorted_counts(counts.get("behaviour_classes", {})),
            "versions": _sorted_counts(counts.get("versions", {})),
            "distinct_signatures": len(signatures),
        },
        "outcomes": outcomes,
        "fallback_reasons": _sorted_counts(folded["fallback_reasons"]),
        "negotiated": _sorted_counts(folded["negotiated"]),
        "aggregation_benefit": {
            "mean": round(mean_benefit, 6) if mean_benefit is not None else None,
            "ci95": [round(benefit_ci[0], 6), round(benefit_ci[1], 6)] if benefit_ci else None,
            "histogram": {f"{value:.2f}": int(n) for value, n in sorted(benefit_hist.items())},
        },
        "signatures": {k: per_signature[k] for k in sorted(per_signature)},
    }

    elapsed = wall_clock() - started
    bench = {
        "spec": spec.name,
        "paths": paths,
        "microsims": sim_sweep["points"],
        "distinct_signatures": len(signatures),
        "sample_seconds": round(sample_elapsed, 3),
        "total_seconds": round(elapsed, 3),
        "paths_per_sec": round(paths / elapsed, 1) if elapsed > 0 else None,
        "sample_sweep": sample_sweep,
        "sim_sweep": sim_sweep,
    }
    return report, bench


def counter_digest(report: dict) -> str:
    """A short stable digest of the deterministic report — what the CI
    smoke job compares across independent runs."""
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(canonical.encode('utf-8')):08x}"


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------


def _at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least ``minimum``, so an absurd
    count is a usage error (exit 2) before anything runs."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study.scale",
        description="Run the deployment study over a generative path population.",
    )
    parser.add_argument("--paths", type=_at_least(1), default=100_000, help="population size")
    parser.add_argument(
        "--spec", choices=list(SPECS), default="internet2021", help="population spec preset"
    )
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--batch", type=_at_least(1), default=20_000, help="sampling batch size")
    parser.add_argument(
        "--replicates", type=_at_least(1), default=1, help="microsims per signature"
    )
    parser.add_argument("--strawman", action="store_true", help="also run the §3 strawman")
    parser.add_argument(
        "--workers", type=_at_least(0), default=None, help="0 = one per CPU (default: REPRO_WORKERS)"
    )
    parser.add_argument("--out", default="STUDY_scale.json")
    args = parser.parse_args(argv)

    report, bench = run_scale_study(
        args.spec,
        args.paths,
        seed=args.seed,
        batch=args.batch,
        replicates=args.replicates,
        include_strawman=args.strawman,
        workers=args.workers,
    )
    FsPath(args.out).write_text(render_report(report))
    digest = counter_digest(report)
    print(f"spec={report['spec']} paths={report['paths']} digest={digest}")
    print(
        f"signatures={report['population']['distinct_signatures']} "
        f"paths/s={bench['paths_per_sec']}"
    )
    for name, entry in report["outcomes"].items():
        print(f"  {name}: {entry['rate']:.4f} ci95={entry['ci95']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
