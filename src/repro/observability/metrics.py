"""Mergeable metrics primitives: counters, gauges, latency histograms.

The paper's agents (Section 4.1) log every observed message; operators
still need cheap aggregate signals — request rates, fault counts,
retry volume, breaker state — without re-querying the event store.
This module provides those as a pull-style registry in the spirit of
Prometheus client libraries, built around two constraints:

* **One writer per registry.**  A registry belongs to one deployment
  (or one harness run) and only that owner's thread writes to it, so
  counters and histograms are plain attributes: no lock, no per-thread
  cell, nothing to fold on read.

* **Mergeable snapshots.**  A snapshot is plain JSON-safe data, and
  snapshots from different registries combine associatively
  (:func:`merge_snapshots`): counters and histogram buckets add,
  gauges take the max.  Campaign workers each run a private registry
  and the runner folds their snapshots together afterwards; that fold
  is the only way totals cross a registry, so there is no cross-worker
  contention and the totals do not depend on merge order or grouping.

Histograms use *fixed* bucket boundaries chosen at registration.  That
is what makes them mergeable: two histograms with identical boundaries
combine by summing bucket counts, with no re-binning error.
"""

from __future__ import annotations

import bisect
import typing as _t

from repro.errors import MetricsError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_series",
    "merge_histogram_data",
    "merge_snapshots",
]

#: Default latency bucket upper bounds, in virtual-time seconds.
#: Roughly exponential, spanning sub-millisecond service times up to
#: the 30s client timeouts the bundled apps configure; values above
#: the last bound land in the implicit +Inf overflow bucket.
DEFAULT_LATENCY_BUCKETS: _t.Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def format_series(name: str, labels: _t.Mapping[str, str]) -> str:
    """Render a metric name + labels as a Prometheus series string.

    Labels are sorted so the rendering is canonical — snapshots use it
    as their dict key, which is what lets :func:`merge_snapshots` line
    series up across registries.

    >>> format_series("requests_total", {"service": "svc-1"})
    'requests_total{service="svc-1"}'
    >>> format_series("up", {})
    'up'
    """
    if not labels:
        return name
    body = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{body}}}"


class Counter:
    """A monotonically increasing sum.

    ``inc()``'s default amount is a float, so a counter reads as a
    float once touched; an untouched one reads as the int ``0`` that
    snapshots have always carried for it.
    """

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value: float = 0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1)."""
        self._value += amount

    def value(self) -> float:
        """The sum so far."""
        return self._value


class Gauge:
    """A point-in-time value (e.g. breaker state, queue depth).

    Merging snapshots takes the max, which reads as "worst observed
    state" for the breaker-state encoding (0=closed, 1=half-open,
    2=open).
    """

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self._value = float(value)

    def value(self) -> float:
        """The last value set (0.0 if never set)."""
        return self._value


class Histogram:
    """A fixed-bucket latency histogram.

    ``buckets`` are the upper bounds of each bin; an implicit +Inf
    overflow bin is appended, so ``observe`` never drops a sample.
    Snapshots carry per-bin counts plus count/sum/min/max, and two
    snapshots with identical bounds merge exactly
    (:func:`merge_histogram_data`).
    """

    __slots__ = ("buckets", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, buckets: _t.Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(nxt <= prev for prev, nxt in zip(bounds, bounds[1:])):
            raise MetricsError(f"histogram buckets must be strictly increasing, got {bounds}")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: _t.Optional[float] = None
        self._max: _t.Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample; a bin's upper bound is inclusive."""
        self._counts[bisect.bisect_left(self.buckets, value)] += 1
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def data(self) -> dict:
        """The histogram as plain data."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self._counts),
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
        }


class MetricsRegistry:
    """Named, labelled metric series with one snapshot surface.

    Series are identified by (name, sorted labels); asking twice for
    the same series returns the same underlying metric, so call sites
    need no caching.  ``snapshot()`` renders everything to plain data
    keyed by the canonical Prometheus series string.
    """

    def __init__(self) -> None:
        self._counters: _t.Dict[str, Counter] = {}
        self._gauges: _t.Dict[str, Gauge] = {}
        self._histograms: _t.Dict[str, Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter series ``name{labels}``, created on first use."""
        key = format_series(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge series ``name{labels}``, created on first use."""
        key = format_series(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(
        self,
        name: str,
        buckets: _t.Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """The histogram series ``name{labels}``, created on first use.

        Re-registering an existing series with different bounds is a
        :class:`MetricsError`: silently returning the old histogram
        would record into buckets the caller did not ask for.
        """
        key = format_series(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(buckets)
        elif metric.buckets != tuple(float(b) for b in buckets):
            raise MetricsError(
                f"series {key!r} already registered with buckets "
                f"{metric.buckets}, cannot re-register with {tuple(buckets)}"
            )
        return metric

    def snapshot(self) -> dict:
        """Plain-data view of every series, JSON-safe and mergeable."""
        return {
            "counters": {key: metric.value() for key, metric in sorted(self._counters.items())},
            "gauges": {key: metric.value() for key, metric in sorted(self._gauges.items())},
            "histograms": {
                key: metric.data() for key, metric in sorted(self._histograms.items())
            },
        }


def merge_histogram_data(left: dict, right: dict) -> dict:
    """Combine two histogram snapshots with identical bucket bounds.

    Bucket counts, totals and sums add; min/max take the extremes.
    Because the bounds are fixed, the merge is exact — the result is
    indistinguishable from one histogram having observed both streams.
    """
    if left["buckets"] != right["buckets"]:
        raise MetricsError(
            f"cannot merge histograms with different buckets: "
            f"{left['buckets']} vs {right['buckets']}"
        )
    mins = [m for m in (left["min"], right["min"]) if m is not None]
    maxes = [m for m in (left["max"], right["max"]) if m is not None]
    return {
        "buckets": list(left["buckets"]),
        "counts": [a + b for a, b in zip(left["counts"], right["counts"])],
        "count": left["count"] + right["count"],
        "sum": left["sum"] + right["sum"],
        "min": min(mins) if mins else None,
        "max": max(maxes) if maxes else None,
    }


def merge_snapshots(*snapshots: dict) -> dict:
    """Fold registry snapshots into one: counters/histograms add, gauges max.

    The fold is associative and commutative, so campaign workers can be
    merged in any order or grouping — pairwise, all at once, or
    incrementally as each worker finishes — with identical results.
    An empty call returns an empty (all-zero) snapshot.
    """
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            merged["counters"][key] = merged["counters"].get(key, 0.0) + value
        for key, value in snap.get("gauges", {}).items():
            previous = merged["gauges"].get(key)
            merged["gauges"][key] = value if previous is None else max(previous, value)
        for key, data in snap.get("histograms", {}).items():
            previous = merged["histograms"].get(key)
            merged["histograms"][key] = (
                dict(data) if previous is None else merge_histogram_data(previous, data)
            )
    for section in ("counters", "gauges", "histograms"):
        merged[section] = dict(sorted(merged[section].items()))
    return merged
