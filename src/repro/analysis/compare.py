"""Statistical comparison of latency distributions.

The paper's figures invite eyeballing two CDFs; this module makes the
comparison quantitative so benchmark shape-assertions have a principled
footing: a two-sample Kolmogorov-Smirnov test says whether two latency
samples plausibly come from the same distribution, and a shift estimate
says by how much one curve sits to the right of the other.

The KS test is :func:`scipy.stats.ks_2samp`.  scipy costs about a second
to import, so it is loaded inside :func:`compare_cdfs` — the one place
that needs it — and not when the package is imported.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.analysis.cdf import percentile
from repro.errors import AnalysisError

__all__ = ["CdfComparison", "compare_cdfs", "median_shift"]


@dataclasses.dataclass(frozen=True)
class CdfComparison:
    """Result of comparing two latency samples.

    ``ks_statistic`` is the max vertical gap between the two empirical
    CDFs (0 = identical, 1 = disjoint); ``p_value`` the probability of
    a gap at least that large under the same-distribution null
    hypothesis; ``median_shift`` the difference of medians (b - a), the
    natural "how far right did the curve move" summary for injected
    delays.
    """

    ks_statistic: float
    p_value: float
    median_shift: float

    def same_distribution(self, alpha: float = 0.01) -> bool:
        """True when the samples are statistically indistinguishable."""
        return self.p_value >= alpha

    def __str__(self) -> str:
        return (
            f"KS={self.ks_statistic:.3f} p={self.p_value:.4g}"
            f" median-shift={self.median_shift:+.4g}s"
        )


def compare_cdfs(
    sample_a: _t.Sequence[float], sample_b: _t.Sequence[float]
) -> CdfComparison:
    """Two-sample KS test plus median shift (b relative to a).

    Raises :class:`AnalysisError` when scipy cannot be imported.
    """
    if not sample_a or not sample_b:
        raise ValueError("both samples must be non-empty")
    try:
        from scipy import stats
    except ImportError as exc:
        raise AnalysisError(
            f"comparing latency distributions needs scipy ({exc});"
            " install the `stats` extra: pip install 'repro[stats]'"
        ) from None
    result = stats.ks_2samp(list(sample_a), list(sample_b))
    return CdfComparison(
        ks_statistic=float(result.statistic),
        p_value=float(result.pvalue),
        median_shift=percentile(sample_b, 50) - percentile(sample_a, 50),
    )


def median_shift(sample_a: _t.Sequence[float], sample_b: _t.Sequence[float]) -> float:
    """Difference of medians (b - a), without the full KS machinery."""
    return percentile(sample_b, 50) - percentile(sample_a, 50)
