"""Figure rows must be byte-identical serial vs sharded (tier-1 subset).

The full gate (every deterministic figure, 2 shards, invariant oracle)
runs in CI via ``benchmarks/shard_conformance.py``; this tier-1 subset
covers three figure harnesses at reduced scale — a plain TCP sweep
(fig3), the canonical two-path MPTCP scenario (fig4) and the NATted 3G
path (fig9, whose NAT rides a cut path when sharded) — so a
row-perturbing sharding regression fails the ordinary test run, not
just the nightly job.
"""

import json

import pytest


def _rows(experiment, **kwargs):
    result = experiment(**kwargs)
    # Canonical JSON, exactly as the capture CLI serialises: the
    # comparison is on bytes, not on float-tolerant equality.
    return json.dumps(result.rows, indent=1, sort_keys=True, default=repr)


CASES = [
    ("fig3", dict(mss_sweep=(1448,), transfer_bytes=128 * 1024)),
    ("fig4", dict(buffers_kb=(200,), duration=4.0)),
    ("fig9", dict(buffers_kb=(200,), duration=6.0)),
]


def _run_case(name, kwargs):
    from repro.experiments import fig3, fig4, fig9

    experiment = {
        "fig3": fig3.run_fig3,
        "fig4": fig4.run_fig4,
        "fig9": fig9.run_fig9,
    }[name]
    return _rows(experiment, **kwargs)


@pytest.mark.parametrize("name,kwargs", CASES, ids=[c[0] for c in CASES])
def test_rows_identical_serial_vs_sharded(name, kwargs, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    serial = _run_case(name, kwargs)
    monkeypatch.setenv("REPRO_SHARDS", "2")
    sharded = _run_case(name, kwargs)
    assert sharded == serial
