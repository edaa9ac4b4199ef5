"""Tests for the KS-based distribution comparison."""

import random
import sys

import pytest

from repro.analysis import CdfComparison, compare_cdfs, median_shift
from repro.errors import AnalysisError


@pytest.fixture
def scipy_installed():
    pytest.importorskip("scipy")


@pytest.mark.usefixtures("scipy_installed")
class TestCompareCdfs:
    def test_identical_samples_same_distribution(self):
        sample = [random.Random(1).random() for _ in range(200)]
        comparison = compare_cdfs(sample, list(sample))
        assert comparison.ks_statistic == 0.0
        assert comparison.same_distribution()
        assert comparison.median_shift == 0.0

    def test_shifted_samples_detected(self):
        rng = random.Random(2)
        base = [rng.random() for _ in range(200)]
        shifted = [value + 2.0 for value in base]
        comparison = compare_cdfs(base, shifted)
        assert not comparison.same_distribution()
        assert comparison.ks_statistic == 1.0  # disjoint supports
        assert comparison.median_shift == pytest.approx(2.0)

    def test_same_distribution_different_draws(self):
        rng = random.Random(3)
        sample_a = [rng.gauss(1.0, 0.1) for _ in range(300)]
        sample_b = [rng.gauss(1.0, 0.1) for _ in range(300)]
        comparison = compare_cdfs(sample_a, sample_b)
        assert comparison.same_distribution(alpha=0.001)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            compare_cdfs([], [1.0])

    def test_str_is_informative(self):
        text = str(compare_cdfs([1.0, 2.0], [1.0, 2.0]))
        assert "KS=" in text and "median-shift" in text

    def test_median_shift_helper(self):
        assert median_shift([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(1.0)


class TestWithoutScipy:
    def test_missing_scipy_names_the_stats_extra(self, monkeypatch):
        # A None entry makes `import scipy` raise ImportError, installed or not.
        monkeypatch.setitem(sys.modules, "scipy", None)
        with pytest.raises(AnalysisError, match=r"repro\[stats\]"):
            compare_cdfs([1.0, 2.0], [1.0, 2.0])


@pytest.mark.usefixtures("scipy_installed")
class TestOnExperimentData:
    def test_fig5_curves_shift_by_injected_delay(self):
        """The KS machinery applied to real experiment output: the 1s
        and 3s Fig-5 curves differ, and their median shift is the delay
        difference."""
        from repro.apps import ELASTICSEARCH, WORDPRESS, build_wordpress_app
        from repro.core import DelayCalls, Gremlin
        from repro.loadgen import ClosedLoopLoad

        def run(injected):
            deployment = build_wordpress_app().deploy(seed=221)
            source = deployment.add_traffic_source(WORDPRESS)
            Gremlin(deployment).inject(
                DelayCalls(WORDPRESS, ELASTICSEARCH, interval=injected)
            )
            load = ClosedLoopLoad(num_requests=30)
            load.run(source)
            return load.result.latencies

        comparison = compare_cdfs(run(1.0), run(3.0))
        assert not comparison.same_distribution()
        assert comparison.median_shift == pytest.approx(2.0, abs=0.05)
