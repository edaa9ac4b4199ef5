"""Workload generators driving test traffic through a deployment.

The paper (Section 6) leaves test-input generation to the operator or
to "standard load-generation tools"; these classes are those tools for
the simulated world.  Both shapes used by the evaluation are covered:

* :class:`ClosedLoopLoad` — one logical user issuing requests
  back-to-back (optionally with think time): the shape of "injected
  100 test requests into the system" (Fig 5-7).
* :class:`OpenLoopLoad` — Poisson arrivals at a target rate, each
  request independent: the shape needed for overload and bulkhead
  experiments where concurrency matters.

Every request is tagged with a fresh ID from a
:class:`~repro.tracing.RequestIdGenerator` (default prefix ``test-``),
so fault rules scoped to test traffic match it.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.http.message import HttpRequest
from repro.microservice.app import TrafficSource
from repro.tracing.context import RequestIdGenerator

__all__ = ["Sample", "LoadResult", "ClosedLoopLoad", "OpenLoopLoad"]


@dataclasses.dataclass(frozen=True)
class Sample:
    """One completed request as the load generator saw it."""

    request_id: str
    start: float
    elapsed: float
    #: HTTP status, or None when the call raised.
    status: _t.Optional[int]
    #: Exception class name when the call raised, else None.
    error: _t.Optional[str]

    @property
    def ok(self) -> bool:
        """True for a 2xx outcome."""
        return self.status is not None and 200 <= self.status < 300


class LoadResult:
    """Accumulates samples and computes summary statistics."""

    def __init__(self) -> None:
        self.samples: list[Sample] = []

    def add(self, sample: Sample) -> None:
        """Record one completed request."""
        self.samples.append(sample)

    @property
    def latencies(self) -> list[float]:
        """Elapsed times of all samples, in completion order."""
        return [sample.elapsed for sample in self.samples]

    @property
    def statuses(self) -> list[_t.Optional[int]]:
        """Status codes (None for errored calls)."""
        return [sample.status for sample in self.samples]

    @property
    def error_count(self) -> int:
        """Samples that raised instead of returning a response."""
        return sum(1 for sample in self.samples if sample.error is not None)

    @property
    def success_rate(self) -> float:
        """Fraction of samples with 2xx outcomes."""
        if not self.samples:
            return 0.0
        return sum(1 for sample in self.samples if sample.ok) / len(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return (
            f"<LoadResult n={len(self.samples)} ok={self.success_rate:.0%}"
            f" errors={self.error_count}>"
        )


def timed_request(
    source: TrafficSource, uri: str, ids: RequestIdGenerator, result: LoadResult
) -> _t.Generator:
    """Issue one ``GET uri`` tagged with the next ID through ``source``'s
    client, and add what it returned (or raised) to ``result``."""
    sim = source.sim
    request = HttpRequest("GET", uri)
    request.request_id = ids.next_id()
    start = sim.now
    status: _t.Optional[int] = None
    error: _t.Optional[str] = None
    try:
        response = yield from source.client.call(request)
        status = response.status
    except Exception as exc:  # noqa: BLE001 - record, keep loading
        error = type(exc).__name__
    result.add(
        Sample(
            request_id=request.request_id or "",
            start=start,
            elapsed=sim.now - start,
            status=status,
            error=error,
        )
    )


class ClosedLoopLoad:
    """Sequential requests from one logical user.

    Parameters
    ----------
    num_requests:
        How many requests to issue.
    think_time:
        Virtual seconds between a response and the next request.
    uri:
        Request URI (every request identical apart from its ID).
    ids:
        Request-ID generator; defaults to a fresh ``test-`` stream.
    """

    def __init__(
        self,
        num_requests: int,
        think_time: float = 0.0,
        uri: str = "/",
        ids: _t.Optional[RequestIdGenerator] = None,
    ) -> None:
        if num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {num_requests}")
        if think_time < 0:
            raise ValueError(f"think_time must be >= 0, got {think_time}")
        self.num_requests = num_requests
        self.think_time = think_time
        self.uri = uri
        self.ids = ids if ids is not None else RequestIdGenerator()
        self.result = LoadResult()

    def driver(self, source: TrafficSource) -> _t.Generator:
        """The simulation process issuing the requests."""
        sim = source.sim
        for _ in range(self.num_requests):
            yield from timed_request(source, self.uri, self.ids, self.result)
            if self.think_time > 0:
                yield sim.timeout(self.think_time)

    def run(self, source: TrafficSource) -> LoadResult:
        """Convenience: start the driver and run the simulator to idle."""
        sim = source.sim
        sim.process(self.driver(source), name="closed-loop-load")
        sim.run()
        return self.result


class OpenLoopLoad:
    """Poisson arrivals at ``rate`` req/s for ``duration`` seconds.

    Each request runs in its own process, so slow responses do not
    suppress the arrival rate — the defining property of open-loop
    load, and the reason it exposes queueing collapse where closed-loop
    load cannot.
    """

    def __init__(
        self,
        rate: float,
        duration: float,
        uri: str = "/",
        ids: _t.Optional[RequestIdGenerator] = None,
        rng_stream: str = "loadgen.openloop",
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self.rate = rate
        self.duration = duration
        self.uri = uri
        self.ids = ids if ids is not None else RequestIdGenerator()
        self.rng_stream = rng_stream
        self.result = LoadResult()

    def driver(self, source: TrafficSource) -> _t.Generator:
        """Arrival process: spawns one process per request."""
        sim = source.sim
        rng = sim.rng(self.rng_stream)
        deadline = sim.now + self.duration
        while sim.now < deadline:
            sim.process(
                timed_request(source, self.uri, self.ids, self.result),
                name="open-loop-request",
            )
            yield sim.timeout(rng.expovariate(self.rate))

    def run(self, source: TrafficSource) -> LoadResult:
        """Convenience: start the arrival process and run to idle."""
        sim = source.sim
        sim.process(self.driver(source), name="open-loop-load")
        sim.run()
        return self.result
