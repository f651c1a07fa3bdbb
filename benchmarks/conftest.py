"""Benchmark-suite helpers.

The *throughput* benchmarks (engine events/s, datapath bytes/s)
feed the CI perf-regression ratchet, so a single noisy run must not be
able to fail the floor: :func:`run_median_of_3` executes the workload
three times and reports the median run by the chosen metric.
"""


def run_median_of_3(benchmark, fn, metric, *args, **kwargs):
    """Run ``fn`` three times and return the median record by ``metric``.

    ``fn`` must return a dict containing ``metric`` (a float, higher is
    better).  The returned record is the middle run, annotated with the
    spread of all three so the JSON history shows measurement noise.
    """
    records = []

    def _three_runs():
        for _ in range(3):
            records.append(fn(*args, **kwargs))
        return sorted(records, key=lambda run: run[metric])[1]

    record = benchmark.pedantic(_three_runs, rounds=1, iterations=1)
    record["runs_measured"] = len(records)
    record[f"{metric}_spread"] = sorted(run[metric] for run in records)
    return record

