"""Metrics: goodput meters, memory samplers, histograms, CPU model."""

import pytest

from repro.sim import Simulator
from repro.stats.cpu import RECEIVER_PARAMS, CPUModelParams
from repro.stats.metrics import (
    GoodputMeter,
    Histogram,
    MemorySampler,
    pdf_from_samples,
)


class TestGoodputMeter:
    def test_rate_over_elapsed_window(self):
        sim = Simulator()
        meter = GoodputMeter(sim)
        sim.schedule(1.0, meter.start)
        sim.schedule(2.0, meter.add, 1_000_000)
        sim.schedule(3.0, meter.finish)
        sim.run()
        assert meter.rate_bps() == pytest.approx(1_000_000 * 8 / 2.0)

    def test_add_implicitly_starts(self):
        sim = Simulator()
        meter = GoodputMeter(sim)
        sim.schedule(5.0, meter.add, 100)
        sim.run()
        assert meter.started_at == 5.0

    def test_zero_elapsed_zero_rate(self):
        meter = GoodputMeter(Simulator())
        assert meter.rate_bps() == 0.0

    def test_rate_over_the_finished_interval(self):
        sim = Simulator()
        meter = GoodputMeter(sim)
        meter.start()
        meter.add(125_000)
        sim.schedule(1.0, meter.finish)
        sim.schedule(3.0, lambda: None)  # time after finish() does not count
        sim.run()
        assert meter.elapsed == 1.0
        assert meter.rate_bps() == pytest.approx(1e6)


class TestMemorySampler:
    def test_time_weighted_average(self):
        sim = Simulator()
        value = {"v": 100}
        sampler = MemorySampler(sim, lambda: value["v"], interval=0.1)
        sim.schedule(1.0, lambda: value.__setitem__("v", 300))
        sim.run(until=2.0)
        sampler.stop()
        # Half the time at 100, half at 300 → average ≈ 200.
        assert sampler.average() == pytest.approx(200, rel=0.15)
        assert sampler.peak == 300

    def test_stop_halts_sampling(self):
        sim = Simulator()
        sampler = MemorySampler(sim, lambda: 1, interval=0.1)
        sim.run(until=0.5)
        count = sampler.samples
        sampler.stop()
        sim.run(until=2.0)
        assert sampler.samples == count


class TestHistogram:
    def test_pdf_percentages_sum_to_100(self):
        histogram = Histogram(bin_width=1.0)
        for value in (0.5, 1.5, 1.6, 2.5):
            histogram.add(value)
        total = sum(pct for _, pct in histogram.pdf())
        assert total == pytest.approx(100.0)

    def test_bin_centers(self):
        histogram = Histogram(bin_width=10.0)
        histogram.add(3.0)
        ((center, pct),) = histogram.pdf()
        assert center == 5.0 and pct == 100.0

    def test_percentiles_ordered(self):
        histogram = Histogram(bin_width=1.0)
        for i in range(100):
            histogram.add(float(i))
        assert histogram.percentile(10) <= histogram.percentile(50)
        assert histogram.percentile(50) <= histogram.percentile(95)

    def test_mean_min_max(self):
        histogram = Histogram(bin_width=1.0)
        for value in (1.0, 2.0, 3.0):
            histogram.add(value)
        assert histogram.mean() == pytest.approx(2.0)
        assert histogram.min == 1.0 and histogram.max == 3.0

    def test_rejects_bad_bin_width(self):
        with pytest.raises(ValueError):
            Histogram(bin_width=0)

    def test_pdf_from_samples_helper(self):
        pdf = pdf_from_samples([0.1, 0.1, 0.9], bin_width=0.5)
        assert len(pdf) == 2
        assert pdf[0][1] == pytest.approx(200 / 3)


class TestCPUModel:
    def test_cpu_limited_goodput_increases_with_mss(self):
        model = CPUModelParams()
        assert model.cpu_limited_goodput_bps(8500, False) > model.cpu_limited_goodput_bps(
            1448, False
        )

    def test_checksum_penalty_grows_with_mss(self):
        """Fig. 3's core shape: at small MSS per-packet costs dominate,
        so the checksum's relative cost is small; at jumbo frames it is
        large."""
        model = CPUModelParams()

        def penalty(mss):
            off = model.cpu_limited_goodput_bps(mss, False)
            on = model.cpu_limited_goodput_bps(mss, True)
            return (off - on) / off

        assert penalty(8500) > penalty(500)

    def test_receiver_params_cheaper_per_packet(self):
        assert RECEIVER_PARAMS.per_packet < CPUModelParams().per_packet
