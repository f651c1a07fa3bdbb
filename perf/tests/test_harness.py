import json
import re

from conftest import PERF, ROOT, run_driver

import layers
import metrics
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_every_source_file_maps_to_a_named_layer():
    package = ROOT / "src" / "repro"
    files = sorted(package.rglob("*.py"))
    assert files
    for path in files:
        assert layers.layer_of(str(path), str(package)) in layers.LAYERS, path
    # The per-file table must not outlive the files it names.
    for relative in layers._FILES:
        assert (package / relative).exists(), relative


def test_benchmark_json_is_the_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == metrics.benchmark_manifest()
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(manifest["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in manifest["end_to_end"])


def test_driver_prints_exactly_the_end_to_end_metrics():
    status, result = run_driver(
        "--workload", "http_short", "--seed", "3", "--tiny", "--seconds", "0.5", "--trace", "0"
    )
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == list(metrics.END_TO_END)
    for name, row in result["metrics"].items():
        assert row["unit"] == metrics.END_TO_END[name][0] and row["value"] > 0


def test_traced_run_prints_exactly_the_per_layer_metrics(traced_twice):
    for runs in traced_twice.values():
        for status, result in runs:
            assert status == 0 and result["correct"] is True
            assert list(result["metrics"]) == list(metrics.PER_LAYER)
            for name, row in result["metrics"].items():
                assert row["unit"] == metrics.PER_LAYER[name][0]


def test_exact_counts_repeat_across_processes(traced_twice):
    for name, ((_, first), (_, second)) in traced_twice.items():
        for metric in metrics.EXACT:
            assert first["metrics"][metric] == second["metrics"][metric], (name, metric)
        total = sum(first["metrics"][f"{layer}.py_calls"]["value"] for layer in layers.LAYERS)
        assert total > 10_000, name


def test_bypassed_layers_see_no_calls(traced_twice):
    plain_tcp = traced_twice["many_flows_tcp"][0][1]["metrics"]
    for layer in layers.LAYERS:
        if layer.startswith("mptcp."):
            assert plain_tcp[f"{layer}.py_calls"]["value"] == 0, layer
    no_checksum = traced_twice["bulk_2path"][0][1]["metrics"]
    assert no_checksum["mptcp.checksum.py_calls"]["value"] == 0
    assert no_checksum["mptcp.scheduler.py_calls"]["value"] > 0


def test_corrupted_golden_digest_fails_every_op(tmp_path):
    golden = json.loads((PERF / "golden.json").read_text())
    golden["bulk_2path"]["4"] = "0" * 64
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))
    status, result = run_driver(
        "--workload", "bulk_2path", "--seed", "4", "--seconds", "0", "--trace", "0",
        "--golden", str(corrupted),
    )  # fmt: skip
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
