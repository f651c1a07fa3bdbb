"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these isolate *why* individual design
decisions matter, using the same harnesses:

1. **Sender batching → receiver shortcuts**: §4.3's constant-time
   receive algorithm leans on the sender allocating contiguous-DSN
   batches.  Kill the batching (1-segment reservations) and the
   shortcut hit rate collapses.
2. **Coupled vs uncoupled congestion control**: on disjoint paths LIA
   still fills the pipes (within tolerance of uncoupled NewReno) —
   coupling costs little where there is nothing to be fair about.
3. **Key pool (§5.2)**: precomputing keys takes the SHA-1 off the
   accept path.
"""

import pytest

from repro.experiments.common import (
    THREEG,
    WIFI,
    PathSpec,
    mptcp_variant_config,
    run_bulk,
)


SYMMETRIC = [
    PathSpec(rate_bps=50e6, rtt=0.010, buffer_seconds=0.03, name="l0"),
    PathSpec(rate_bps=50e6, rtt=0.014, buffer_seconds=0.03, name="l1"),
]


def _shortcut_hit_rate(batch_segments: int) -> float:
    config = mptcp_variant_config("m12", 2 * 1024 * 1024, ooo_algorithm="shortcuts")
    config.checksum = False
    config.batch_segments = batch_segments
    server_conn = run_bulk(SYMMETRIC, config, 5.0, seed=9).receiver_connection
    return server_conn.ooo_index.stats.hit_rate()


def test_ablation_batching_drives_shortcut_hits(benchmark):
    def run():
        return _shortcut_hit_rate(batch_segments=64), _shortcut_hit_rate(batch_segments=1)

    batched, unbatched = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nshortcut hit rate: batched={batched:.2f} unbatched={unbatched:.2f}")
    assert batched > unbatched + 0.1
    assert batched > 0.5


def test_ablation_coupled_vs_uncoupled_disjoint_paths(benchmark):
    def run():
        coupled_cfg = mptcp_variant_config("m12", 512 * 1024)
        uncoupled_cfg = mptcp_variant_config("m12", 512 * 1024)
        uncoupled_cfg.coupled_cc = False
        coupled = run_bulk([WIFI, THREEG], coupled_cfg, duration=15)
        uncoupled = run_bulk([WIFI, THREEG], uncoupled_cfg, duration=15)
        return coupled.goodput_bps, uncoupled.goodput_bps

    coupled, uncoupled = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ngoodput: LIA={coupled/1e6:.2f} Mb/s, uncoupled={uncoupled/1e6:.2f} Mb/s")
    # On disjoint paths coupling costs at most a modest factor.
    assert coupled > 0.6 * uncoupled


def test_ablation_key_pool_accept_latency(benchmark):
    from repro.experiments.fig10 import _measure

    def run():
        plain, _ = _measure(True, 0, 1500, seed=3)
        pooled, _ = _measure(True, 0, 1500, seed=3, key_pool=5000)
        median = lambda xs: sorted(xs)[len(xs) // 2]
        return median(plain) * 1e6, median(pooled) * 1e6

    plain_us, pooled_us = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\naccept path median: fresh keys={plain_us:.1f}us, pooled={pooled_us:.1f}us")
    # The pool can only help; wall-clock noise allows a generous bound.
    assert pooled_us < plain_us * 1.15
