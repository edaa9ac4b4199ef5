"""Shared exception hierarchy for the Gremlin reproduction.

Every package in :mod:`repro` raises exceptions rooted at
:class:`ReproError` so that callers can catch framework errors without
accidentally swallowing programming errors (``TypeError`` etc.).

The network- and HTTP-level exceptions deliberately mirror what a real
microservice client observes when a remote dependency fails, because the
paper's fault model (Section 3.1) is defined in exactly those terms:
delayed responses, error responses, invalid responses, connection
timeouts, and failure to establish the connection.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` framework."""


class ArtifactError(ReproError):
    """A file the harness reads back was refused (:mod:`repro.artifact`).
    ``args`` are the file, the 1-based line (``None``: not opened), why."""

    def __str__(self) -> str:
        source, line, message = self.args
        return f"{source}: {message}" if line is None else f"{source}: line {line}: {message}"


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class StaleEventError(SimulationError):
    """An event was triggered (succeeded or failed) more than once."""


class ProcessKilled(SimulationError):
    """Raised inside a process generator when it is forcibly killed."""


class NetworkError(ReproError):
    """Base class for simulated transport-level failures.

    These are the errors a microservice's HTTP client can observe; the
    Gremlin fault primitives are designed to provoke exactly these.
    """


class ConnectionRefusedError_(NetworkError):
    """No listener is bound at the destination address."""


class ConnectionResetError_(NetworkError):
    """The peer (or a fault rule with ``Error=-1``) reset the connection
    at the TCP level, returning no application-level error code."""


class ConnectionTimeoutError(NetworkError):
    """The connection could not be established in bounded time, e.g.
    because the destination host is partitioned away or blackholed."""


class HostUnreachableError(NetworkError):
    """The destination host does not exist on the simulated network."""


class HttpError(ReproError):
    """Base class for HTTP-layer errors."""


class CodecError(HttpError):
    """A wire-format payload could not be parsed back into a message.

    Raised when a ``Modify`` fault corrupts a message beyond what the
    receiving side can interpret — the 'invalid responses' entry of the
    paper's fault model.
    """


class RequestTimeoutError(HttpError):
    """A client-side per-call timeout expired before the response
    arrived.  Carries the elapsed virtual time for diagnostics."""

    def __init__(self, message: str = "request timed out", elapsed: float | None = None):
        super().__init__(message)
        self.elapsed = elapsed


class CircuitOpenError(HttpError):
    """A call was rejected locally because the circuit breaker guarding
    the destination dependency is open."""


class BulkheadFullError(HttpError):
    """A call was rejected locally because the bulkhead (per-dependency
    concurrency pool) for the destination is exhausted."""


class RegistryError(ReproError):
    """Base class for service-registry errors."""


class ServiceNotFoundError(RegistryError):
    """A lookup named a service with no registered instances."""


class GremlinError(ReproError):
    """Base class for errors raised by the Gremlin control/data plane."""


class RuleValidationError(GremlinError):
    """A fault-injection rule failed validation (unknown fault type,
    missing mandatory parameter, bad probability, ...)."""


class RecipeError(GremlinError):
    """A recipe is malformed or referenced services absent from the
    logical application graph."""


class OrchestrationError(GremlinError):
    """The Failure Orchestrator could not program the data plane, e.g.
    a rule names a source service with no deployed agent."""


class AssertionQueryError(GremlinError):
    """An assertion-checker query was malformed (unknown field, bad
    time window, ...)."""


class CampaignError(GremlinError):
    """A test campaign could not be planned, executed or diffed
    (duplicate recipe names, unknown entry service, mismatched diff
    inputs, ...)."""


class CampaignTimeoutError(CampaignError):
    """One recipe of a campaign exceeded its wall-clock budget; the
    runner records the recipe as ``timeout`` and moves on."""


class ExploreError(GremlinError):
    """The fault-space exploration layer was misused (unknown seeded
    app, malformed coordinate, unserializable fault primitive, ...)."""


class ObservabilityError(ReproError):
    """Base class for errors raised by the observability subsystem
    (metrics registry, trace reconstruction, fault attribution)."""


class MetricsError(ObservabilityError):
    """A metric was registered or merged inconsistently, e.g. the same
    series name re-registered with different bucket boundaries, or two
    histogram snapshots with incompatible buckets merged."""


class TraceError(ObservabilityError):
    """A causal tree could not be reconstructed from span records,
    e.g. duplicate span IDs or a request ID with no recorded spans."""


class AnalysisError(ReproError, ValueError):
    """A statistics helper was fed an unusable sample, e.g. an empty
    series passed to a percentile.

    Subclasses ``ValueError`` as well so long-standing callers that
    guard analysis calls with ``except ValueError`` keep working.
    """
