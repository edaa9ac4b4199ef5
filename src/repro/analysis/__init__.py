"""Analysis helpers: CDFs, percentiles, distribution comparison, reports."""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cdf": ["Cdf", "percentile", "summarize"],
        "compare": ["CdfComparison", "compare_cdfs", "median_shift"],
        "report": ["text_table"],
    },
)
