"""The population model: the enumerated 142-path table, the generative
model's statistical fidelity and compositional joints, and
partition-independence of the sampled counters."""

import pytest

from repro.sim.rng import SeededRNG
from repro.stats.bootstrap import wilson_interval
from repro.study.generative import (
    CLASS_COUNTS,
    INTERNET_2021,
    PAPER_2011,
    POPULATION_SIZE,
    SPECS,
    SampledPath,
    get_spec,
    paper_population,
    sample_path,
    sample_population,
    signature_label,
)
from repro.study.scale import count_paths, sample_counts

N = 2000
SEED = 77


def _counts(spec_name: str, n: int = N, seed: int = SEED) -> dict:
    return count_paths(sample_population(get_spec(spec_name), n, seed))


class TestPaperPopulation:
    """The enumerated table the §3 study runs over."""

    # (strip_syn_options, isn_rewrite, hole_block, ack_mishandle) per column
    PAPER_PCT = {False: (6.0, 10.0, 5.0, 26.0), True: (14.0, 18.0, 11.0, 33.0)}
    KEYS = ("strip_syn_options", "isn_rewrite", "hole_block", "ack_mishandle")

    @pytest.mark.parametrize("port80", [False, True], ids=["other-ports", "port-80"])
    def test_rates_match_paper(self, port80):
        paths = paper_population(port80=port80)
        assert len(paths) == POPULATION_SIZE
        counts = count_paths(paths)
        for key, paper_pct in zip(self.KEYS, self.PAPER_PCT[port80]):
            measured = 100.0 * counts["marginals"][key] / POPULATION_SIZE
            assert measured == pytest.approx(paper_pct, abs=1.0), key
        # Enumerated, not sampled: every class count is exact.
        for behaviour, column_counts in CLASS_COUNTS.items():
            assert counts["behaviour_classes"][behaviour] == column_counts[port80], behaviour

    def test_deterministic_per_seed(self):
        a = paper_population(port80=False, seed=5)
        assert a == paper_population(port80=False, seed=5)
        assert a != paper_population(port80=False, seed=6)


class TestMarginalRates:
    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    def test_sampled_marginals_within_wilson99_of_spec(self, spec_name):
        spec = get_spec(spec_name)
        observed = _counts(spec_name)["marginals"]
        for key, expected in spec.marginals().items():
            count = observed.get(key, 0)
            lo, hi = wilson_interval(count, N, confidence=0.99)
            assert lo <= expected <= hi, (
                f"{spec_name}.{key}: sampled {count}/{N} "
                f"(CI [{lo:.4f}, {hi:.4f}]) vs expected {expected:.4f}"
            )

    def test_paper2011_matches_fixed_population_table(self):
        # The preset's expectations ARE the 142-path class counts.
        marginals = PAPER_2011.marginals()
        assert marginals["strip_syn_options"] == pytest.approx(9 / 142)
        assert marginals["isn_rewrite"] == pytest.approx(14 / 142)
        assert marginals["hole_block"] == pytest.approx(7 / 142)
        assert marginals["ack_mishandle"] == pytest.approx(37 / 142)
        assert marginals["nat"] == pytest.approx(0.45)
        assert marginals["add_addr_filter"] == 0.0
        assert marginals["server_multihomed"] == 0.0


class TestJointComposition:
    """Behaviour classes are bundles, not independent coin flips."""

    @pytest.fixture(scope="class")
    def paths(self):
        return sample_population(INTERNET_2021, N, SEED)

    def test_proxy_implies_full_bundle(self, paths):
        proxies = [p for p in paths if p.behaviour_class == "proxy"]
        assert proxies
        for p in proxies:
            assert p.strips_syn_options and p.strips_all_options
            assert p.rewrites_isn and p.blocks_holes
            assert p.ack_mode == "correct"

    def test_isn_only_rewrites_and_nothing_else(self, paths):
        standalone = [p for p in paths if p.behaviour_class == "isn_only"]
        assert standalone
        for p in standalone:
            assert p.rewrites_isn
            assert not p.strips_syn_options and not p.blocks_holes
            assert p.ack_mode == "pass"

    def test_classes_are_mutually_exclusive(self, paths):
        # A non-proxy path never carries the proxy's full bundle.
        for p in paths:
            if p.behaviour_class != "proxy":
                assert not (p.strips_all_options and p.blocks_holes)

    def test_hole_block_rate_dominated_by_proxies(self, paths):
        # Joint check: most hole-blockers are proxies (the paper's
        # observation, preserved by the mix construction).
        blockers = [p for p in paths if p.blocks_holes]
        proxies = [p for p in blockers if p.behaviour_class == "proxy"]
        assert len(proxies) > len(blockers) / 2


class TestDeterminism:
    def test_sample_is_pure_function_of_index(self):
        a = sample_path(INTERNET_2021, 123, SEED)
        b = sample_path(INTERNET_2021, 123, SEED)
        assert a.signature() == b.signature()
        assert a.as_class == b.as_class

    def test_counters_independent_of_batch_split(self):
        whole = _counts("internet2021", n=600)
        for batch in (250, 17):
            pieces, _perf = sample_counts("internet2021", 600, SEED, batch=batch, workers=1)
            assert whole == pieces, batch

    def test_signature_roundtrip(self):
        for path in sample_population(INTERNET_2021, 50, SEED):
            clone = SampledPath.from_signature(path.signature())
            assert clone.signature() == path.signature()
            assert clone.behaviours() == path.behaviours()
            assert signature_label(path.signature())


class TestDriverIndependence:
    """The scale report must not depend on how work is partitioned."""

    def _report(self, monkeypatch, **env):
        from repro.study.scale import run_scale_study, render_report

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        report, _bench = run_scale_study("paper2011", paths=60, seed=SEED, batch=17)
        return render_report(report)

    def test_serial_vs_workers(self, monkeypatch):
        serial = self._report(monkeypatch, REPRO_WORKERS="1")
        workers = self._report(monkeypatch, REPRO_WORKERS="2")
        assert serial == workers


class TestElements:
    def test_add_addr_filter_built_when_sampled(self):
        sig = list(sample_path(INTERNET_2021, 0, SEED).signature())
        path = SampledPath.from_signature(tuple(sig))
        path.add_addr_filtered = True
        names = [type(e).__name__ for e in path.build_elements(SeededRNG(1, "x"), "99.0.0.1")]
        assert "AddAddrFilter" in names
