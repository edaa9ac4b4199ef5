"""An Apache-Benchmark-like concurrent load tool.

Paper Section 7.2 uses ``ab`` to measure proxy overhead ("the time to
complete a series of HTTP requests to a server through the service
proxy").  :class:`ApacheBench` reproduces its shape: ``concurrency``
closed-loop workers sharing a total request budget, reporting the
per-request latency distribution.
"""

from __future__ import annotations

import typing as _t

from repro.loadgen.workload import LoadResult, timed_request
from repro.microservice.app import TrafficSource
from repro.tracing.context import RequestIdGenerator

__all__ = ["ApacheBench"]


class ApacheBench:
    """``ab -n total_requests -c concurrency`` for the simulated world."""

    def __init__(
        self,
        total_requests: int,
        concurrency: int = 1,
        uri: str = "/",
        ids: _t.Optional[RequestIdGenerator] = None,
    ) -> None:
        if total_requests < 1:
            raise ValueError(f"total_requests must be >= 1, got {total_requests}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.total_requests = total_requests
        self.concurrency = concurrency
        self.uri = uri
        self.ids = ids if ids is not None else RequestIdGenerator()
        self.result = LoadResult()
        self._remaining = total_requests

    def run(self, source: TrafficSource) -> LoadResult:
        """Run all workers to completion; returns the pooled result."""
        sim = source.sim
        for worker in range(self.concurrency):
            sim.process(self._worker(source), name=f"ab-worker-{worker}")
        sim.run()
        return self.result

    def _worker(self, source: TrafficSource) -> _t.Generator:
        while self._remaining > 0:
            self._remaining -= 1
            yield from timed_request(source, self.uri, self.ids, self.result)
