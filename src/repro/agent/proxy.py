"""The Gremlin agent: a sidecar service proxy with fault injection.

Deployment model (paper Section 6, sidecar approach): the agent runs
"in the same container or virtual machine as the microservice" and
handles its *outbound* calls.  The microservice is configured with
loopback mappings ``localhost:<port> -> <dependency service>``; the
agent listens on those loopback ports, resolves the dependency's
physical instances through the service registry, round-robins across
them, and forwards traffic — intercepting, logging, and manipulating
messages according to the installed fault rules.

A proxy process exists per exchange in progress — started by the
request's arrival, gone with the answer.  The owner's
:class:`~repro.http.client.HttpClient` opens a one-shot exchange, and
the route's exchange hook starts :meth:`GremlinAgent._proxy_one` on it
directly; the agent forwards over a one-shot exchange too.  A raw peer
that connects instead has each connection armed with
:meth:`~repro.network.transport.ConnectionEnd.on_receive`, so a
connection whose caller gave up or hung up holds no process, and a
caller that pipelines requests on one connection has them proxied
strictly one after the other.

Per proxied call the agent:

1. takes the request off the wire (:mod:`repro.http.wire`: a parsed
   snapshot, or bytes from a raw peer) and extracts the propagated
   request ID;
2. consults the matcher for a request-direction rule and applies it
   (Delay: hold the message; Abort: synthesize the error response or
   reset the caller's connection without ever contacting the callee;
   Modify: rewrite body bytes);
3. emits a request observation record;
4. forwards to a callee instance and awaits the reply.  The request is
   handed over, not copied (:func:`repro.http.wire.hand_on`): everything
   the agent holds came off the wire or was built by it, and after
   forwarding it reads only the request ID it took in step 1;
5. consults the matcher for a response-direction rule and applies it;
6. updates the request record with the outcome, emits a reply record
   carrying caller-observed latency, the Gremlin-injected delay (for
   ``withRule`` accounting) and the fault action applied, and hands the
   response to the caller.

Upstream transport failures are translated the way real sidecar
proxies (Envoy) translate them: connection refused/unreachable becomes
a synthesized ``503`` to the caller; an upstream reset resets the
caller's connection.
"""

from __future__ import annotations

import typing as _t

from repro.agent.faults import abort_response, modify_request, modify_response
from repro.agent.matcher import InstalledRule, RuleMatcher, make_matcher
from repro.agent.rules import FaultRule, FaultType
from repro.errors import (
    CodecError,
    ConnectionRefusedError_,
    ConnectionResetError_,
    ConnectionTimeoutError,
    HostUnreachableError,
    OrchestrationError,
    ServiceNotFoundError,
)
from repro.http import status as http_status
from repro.http.headers import SPAN_ID_HEADER
from repro.http.message import HttpRequest, HttpResponse
from repro.http.wire import hand_on, received_request, received_response
from repro.logstore.pipeline import LogPipeline
from repro.logstore.query import compile_id_pattern
from repro.logstore.record import ObservationKind, ObservationRecord
from repro.network.address import Address
from repro.network.transport import ConnectionEnd, ExchangeEnd, Host, Listener
from repro.registry.registry import ServiceRegistry
from repro.simulation.kernel import Simulator
from repro.simulation.resources import ChannelClosed
from repro.tracing import SpanIdGenerator

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.metrics import Counter, Histogram, MetricsRegistry

__all__ = ["GremlinAgent"]

#: Request IDs a sidecar routes to a destination's canary pool when it
#: has one (paper Section 9's state-cleanup proposal): ``test-*`` flows
#: and mirrored ``shadow-*`` copies.  Neither is ever mirrored.
_CANARY_IDS = compile_id_pattern("re:(?:test|shadow)-")


class _GoneCaller:
    """The caller of a mirrored copy, gone before the copy is sent: its
    answer is dropped and a reset reaches no one (fire-and-forget)."""

    closed = True

    def reset(self) -> None:
        pass


_GONE = _GoneCaller()


class GremlinAgent:
    """One sidecar proxy instance, colocated with one service instance."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        owner_service: str,
        owner_instance: str,
        registry: ServiceRegistry,
        pipeline: LogPipeline,
        metrics: "MetricsRegistry",
        matcher_strategy: str = "prefix",
    ) -> None:
        self.sim = sim
        self.host = host
        self.owner_service = owner_service
        self.owner_instance = owner_instance
        self.registry = registry
        self.pipeline = pipeline
        #: Span minting: every proxied exchange gets a span ID unique to
        #: this sidecar, and the forwarded request carries it so the
        #: next hop records it as the parent.
        self._span_ids = SpanIdGenerator(owner_instance)
        self.metrics = metrics
        # Per-destination metric handles, cached so the proxy hot path
        # pays one dict hit instead of a registry lookup per message.
        self._edge_requests: dict[str, "Counter"] = {}
        self._edge_latency: dict[str, "Histogram"] = {}
        self._fault_counters: dict[tuple[str, str], "Counter"] = {}
        self.matcher: RuleMatcher = make_matcher(
            matcher_strategy, rng=sim.rng(f"agent/{owner_instance}")
        )
        self._routes: dict[int, str] = {}
        self._listeners: dict[int, Listener] = {}
        self._round_robin: dict[tuple[str, str], int] = {}
        #: dst service -> mirror fraction; production requests to that
        #: destination are duplicated onto its shadow (canary) pool.
        #: ``None`` once removed: copies still in flight toward it must
        #: not fall back to production.
        self._mirrors: dict[str, float | None] = {}
        self._mirror_seq = 0
        self.started = False
        #: Total messages proxied, for benchmarks and sanity checks.
        self.proxied = 0
        #: Mirror copies emitted / skipped (no shadow pool deployed).
        self.mirrored = 0
        self.mirror_skipped = 0

    # -- dataplane wiring ------------------------------------------------------

    def add_route(self, local_port: int, dst_service: str) -> None:
        """Map a loopback port to a destination service.

        This is the agent-side of the paper's sidecar configuration
        file: ``localhost:<port> - (list of <remotehost>[:<port>])``,
        with the remote list resolved live from the registry.
        """
        if local_port in self._routes:
            raise OrchestrationError(
                f"agent {self.owner_instance}: port {local_port} already routed"
                f" to {self._routes[local_port]!r}"
            )
        self._routes[local_port] = dst_service
        if self.started:
            self._bind(local_port, dst_service)

    def route_address(self, dst_service: str) -> Address:
        """The loopback address the owner should dial for ``dst_service``."""
        for port, service in self._routes.items():
            if service == dst_service:
                return Address("localhost", port)
        raise OrchestrationError(
            f"agent {self.owner_instance} has no route to {dst_service!r}"
        )

    @property
    def routes(self) -> dict[int, str]:
        """Copy of the loopback-port -> destination-service map."""
        return dict(self._routes)

    def start(self) -> "GremlinAgent":
        """Bind every configured loopback route."""
        if self.started:
            return self
        self.started = True
        for port, service in self._routes.items():
            self._bind(port, service)
        return self

    def stop(self) -> None:
        """Unbind all routes; the owner's calls start failing, exactly
        like killing a real sidecar."""
        self.started = False
        for listener in self._listeners.values():
            listener.close()
        self._listeners.clear()

    def _bind(self, port: int, dst_service: str) -> None:
        listener = self.host.listen(port)
        name = f"{self.owner_instance}/proxy->{dst_service}"

        def answer(end: ExchangeEnd, payload: object) -> None:
            # A proxy process lives for one exchange: it starts when the
            # caller's request arrives and ends with the answer.
            self.sim.process(self._proxy_one(end, dst_service, payload), name=name)

        def spawn(conn: ConnectionEnd, payload: object) -> None:
            # The same for a raw peer's connection, which an open
            # connection nobody speaks on (or whose caller gave up)
            # holds none of.
            self.sim.process(self._serve(conn, dst_service, payload, spawn), name=name)

        listener.on_exchange(answer)
        listener.on_connect(lambda conn: conn.on_receive(spawn))
        self._listeners[port] = listener

    # -- shadow-traffic mirroring (paper Section 1: shadow deployments) ----------

    def add_mirror(self, dst_service: str, fraction: float = 1.0) -> None:
        """Duplicate production traffic toward ``dst_service`` onto its
        shadow pool.

        Each mirrored copy gets a fresh ``shadow-*`` request ID and is
        proxied, fire-and-forget, to the destination's canary instances
        (never to production: with no canary left, the copy is refused);
        the response is discarded, so users never see the shadow path.
        The copy takes the path every call takes — request and response
        rules, its own span and trace, metrics, failure translation — so
        faults scoped to ``shadow-*`` IDs apply to mirrored traffic only:
        resilience testing against real production request shapes with
        zero user impact.

        ``fraction`` samples that share of production requests
        (deterministically, from the simulator's seeded RNG).
        """
        if not 0.0 < fraction <= 1.0:
            raise OrchestrationError(f"mirror fraction must be in (0, 1], got {fraction}")
        if dst_service not in self._routes.values():
            raise OrchestrationError(
                f"agent {self.owner_instance} has no route to {dst_service!r}"
            )
        self._mirrors[dst_service] = fraction

    def remove_mirror(self, dst_service: str) -> None:
        """Stop mirroring traffic toward ``dst_service``."""
        if dst_service in self._mirrors:
            self._mirrors[dst_service] = None

    def _maybe_mirror(self, dst_service: str, request: HttpRequest) -> None:
        fraction = self._mirrors.get(dst_service)
        if fraction is None:
            return
        request_id = request.request_id
        if request_id is not None and _CANARY_IDS.match(request_id):
            return  # never mirror test traffic (it may be faulted already) or a mirror
        if fraction < 1.0 and self.sim.rng(f"mirror/{self.owner_instance}").random() >= fraction:
            return
        if not self.registry.canary_pool(dst_service):
            self.mirror_skipped += 1
            return
        self._mirror_seq += 1
        copy = request.copy()
        copy.request_id = f"shadow-{request_id or 'untagged'}-{self._mirror_seq}"
        # The inbound span header names the production call's parent:
        # without it the copy roots a trace of its own.
        if SPAN_ID_HEADER in copy.headers:
            del copy.headers[SPAN_ID_HEADER]
        self.mirrored += 1
        self.sim.process(
            self._proxy_one(_GONE, dst_service, copy),
            name=f"{self.owner_instance}/mirror->{dst_service}",
        )

    # -- control-plane interface (paper Table 2) ---------------------------------

    def install_rule(self, rule: FaultRule) -> InstalledRule:
        """Install one fault rule; rejects rules for other sources.

        The Failure Orchestrator only sends an agent rules whose
        ``src`` is the agent's owner, but the agent re-validates — a
        defensive check real control planes rely on.
        """
        if rule.src != self.owner_service:
            raise OrchestrationError(
                f"agent of {self.owner_service!r} got a rule for src {rule.src!r}"
            )
        if rule.dst not in self._routes.values():
            raise OrchestrationError(
                f"agent {self.owner_instance} has no route to rule destination {rule.dst!r}"
            )
        return self.matcher.install(rule)

    def remove_rule(self, rule_id: int) -> bool:
        """Remove a rule by ID; True if found."""
        return self.matcher.remove(rule_id)

    def clear_rules(self) -> None:
        """Remove every installed rule (end-of-test cleanup)."""
        self.matcher.clear()

    def list_rules(self) -> list[FaultRule]:
        """The installed rules, in installation order."""
        return [installed.rule for installed in self.matcher.rules]

    # -- metrics emission -----------------------------------------------------------

    def _count_request(self, dst_service: str) -> None:
        counter = self._edge_requests.get(dst_service)
        if counter is None:
            counter = self._edge_requests[dst_service] = self.metrics.counter(
                "gremlin_requests_total", src=self.owner_service, dst=dst_service
            )
        counter.inc()

    def _count_fault(self, dst_service: str, fault: str) -> None:
        key = (dst_service, fault)
        counter = self._fault_counters.get(key)
        if counter is None:
            counter = self._fault_counters[key] = self.metrics.counter(
                "gremlin_faults_injected_total",
                src=self.owner_service,
                dst=dst_service,
                fault=fault,
            )
        counter.inc()

    def _observe_latency(self, dst_service: str, latency: float) -> None:
        histogram = self._edge_latency.get(dst_service)
        if histogram is None:
            histogram = self._edge_latency[dst_service] = self.metrics.histogram(
                "gremlin_request_latency_seconds",
                src=self.owner_service,
                dst=dst_service,
            )
        histogram.observe(latency)

    # -- proxy data path ------------------------------------------------------------

    def _serve(
        self,
        conn: ConnectionEnd,
        dst_service: str,
        payload: object,
        spawn: _t.Callable[[ConnectionEnd, object], None],
    ) -> _t.Generator:
        closed = yield from self._proxy_one(conn, dst_service, payload)
        if not (closed or conn.closed):
            # Keep-alive: the caller's next request, if any, gets the
            # next process — after this exchange, never beside it.
            conn.on_receive(spawn)

    def _proxy_one(
        self,
        conn: ExchangeEnd | ConnectionEnd | _GoneCaller,
        dst_service: str,
        payload: object,
    ) -> _t.Generator[_t.Any, _t.Any, bool]:
        """Proxy one request/response exchange; True if conn was closed."""
        self.proxied += 1
        start = self.sim.now
        # The caller is answered in the form it addressed us: a raw
        # peer that sent bytes reads bytes back.
        as_bytes = isinstance(payload, bytes)
        try:
            request = received_request(payload)
        except CodecError as exc:
            self._safe_send(
                conn, HttpResponse.error(http_status.BAD_REQUEST, str(exc)), as_bytes
            )
            return False
        request_id = request.request_id
        # Shadow mirroring copies the request as it arrived, before any
        # fault rewrites it; the copy is proxied under its shadow-*
        # identity.  Guarded so the no-mirror common case pays one dict
        # check, not a method call per proxied message.
        if self._mirrors:
            self._maybe_mirror(dst_service, request)
        # The inbound span header names the *enclosing* call (set by the
        # previous hop's sidecar, propagated by the owner); overwrite it
        # with this span's ID so the callee parents its own downstream
        # calls here.
        parent_span = request.headers.get(SPAN_ID_HEADER)
        span_id = self._span_ids.next_id()
        request.headers[SPAN_ID_HEADER] = span_id
        self._count_request(dst_service)
        record = ObservationRecord(
            timestamp=start,
            kind=ObservationKind.REQUEST,
            src=self.owner_service,
            dst=dst_service,
            src_instance=self.owner_instance,
            request_id=request_id,
            method=request.method,
            uri=request.uri,
            span_id=span_id,
            parent_span=parent_span,
        )
        injected_delay = 0.0
        faults: list[str] = []

        # --- request-direction rule ---
        hit = self.matcher.match(
            dst_service, FaultType_REQUEST, request_id, body=request.body
        )
        if hit is not None:
            rule = hit.rule
            hit.consume()
            faults.append(rule.describe())
            self._count_fault(dst_service, rule.describe())
            if rule.fault_type == FaultType.DELAY:
                assert rule.interval is not None
                injected_delay += rule.interval
                yield self.sim.timeout(rule.interval)
            elif rule.fault_type == FaultType.ABORT:
                record.fault_applied = "+".join(faults)
                if rule.is_reset:
                    record.error = "reset"
                    self.pipeline.emit(record)
                    self._emit_reply(record, start, injected_delay, True, record.status, "reset")
                    conn.reset()
                    return True
                response = abort_response(rule, request_id)
                record.status = response.status
                record.injected_delay = injected_delay
                self.pipeline.emit(record)
                self._emit_reply(record, start, injected_delay, True, response.status)
                self._safe_send(conn, response, as_bytes)
                return False
            elif rule.fault_type == FaultType.MODIFY:
                request = modify_request(rule, request)

        record.fault_applied = "+".join(faults) if faults else None
        record.injected_delay = injected_delay
        self.pipeline.emit(record)

        # --- forward to a physical instance of the destination ---
        try:
            response = yield from self._forward(dst_service, request, request_id)
        except (ConnectionRefusedError_, HostUnreachableError, ServiceNotFoundError) as exc:
            record.error = "refused"
            response = HttpResponse.error(
                http_status.SERVICE_UNAVAILABLE,
                f"upstream connect failed: {exc}",
                request_id=request_id,
            )
            record.status = response.status
            self._emit_reply(record, start, injected_delay, False, record.status, "refused")
            self._safe_send(conn, response, as_bytes)
            return False
        except ConnectionTimeoutError:
            record.error = "timeout"
            self._emit_reply(record, start, injected_delay, False, record.status, "timeout")
            conn.reset()
            return True
        except (ConnectionResetError_, ChannelClosed):
            record.error = "reset"
            self._emit_reply(record, start, injected_delay, False, record.status, "reset")
            conn.reset()
            return True

        # --- response-direction rule ---
        gremlin_generated = False
        hit = self.matcher.match(
            dst_service, FaultType_RESPONSE, request_id, body=response.body
        )
        if hit is not None:
            rule = hit.rule
            hit.consume()
            faults.append(rule.describe())
            self._count_fault(dst_service, rule.describe())
            if rule.fault_type == FaultType.DELAY:
                assert rule.interval is not None
                injected_delay += rule.interval
                yield self.sim.timeout(rule.interval)
            elif rule.fault_type == FaultType.ABORT:
                if rule.is_reset:
                    record.fault_applied = "+".join(faults)
                    record.error = "reset"
                    self._emit_reply(record, start, injected_delay, True, record.status, "reset")
                    conn.reset()
                    return True
                # ``request`` was handed to the callee, which may have
                # rewritten it: the ID is the one read on arrival.
                response = abort_response(rule, request_id)
                gremlin_generated = True
            elif rule.fault_type == FaultType.MODIFY:
                response = modify_response(rule, response)

        record.fault_applied = "+".join(faults) if faults else None
        record.status = response.status
        record.injected_delay = injected_delay
        self._emit_reply(record, start, injected_delay, gremlin_generated, response.status)
        self._safe_send(conn, response, as_bytes)
        return False

    def _forward(
        self, dst_service: str, request: HttpRequest, request_id: _t.Optional[str]
    ) -> _t.Generator[_t.Any, _t.Any, HttpResponse]:
        registry = self.registry
        # The pool first: no shipped app has canaries, and a memo read is
        # cheaper than matching the ID against the canary pattern.
        addresses = registry._canaries.get(dst_service)  # noqa: SLF001 - the registry's memo
        if addresses is None:
            addresses = registry.canary_pool(dst_service)
        if addresses and request_id is not None and _CANARY_IDS.match(request_id):
            pool = "canary"
        elif dst_service in self._mirrors and request_id and request_id.startswith("shadow-"):
            # A copy whose shadow pool went away while it was held is
            # refused: mirrored traffic never reaches production.
            raise ServiceNotFoundError(f"no shadow instance of {dst_service!r} left")
        else:
            pool = "main"
            addresses = registry.production_addresses(dst_service)
        key = (dst_service, pool)
        index = self._round_robin.get(key, 0)
        self._round_robin[key] = index + 1
        target = addresses[index % len(addresses)]
        host = self.host
        upstream: ExchangeEnd | ConnectionEnd = yield host.network.exchange(host, target)
        try:
            hand_on(upstream, request)
            reply_payload = yield upstream.recv()
        finally:
            if not upstream.closed:
                upstream.close()
        return received_response(reply_payload)

    # -- observation emission --------------------------------------------------------

    def _emit_reply(
        self,
        request_record: ObservationRecord,
        start: float,
        injected_delay: float,
        gremlin_generated: bool,
        status: _t.Optional[int],
        error: _t.Optional[str] = None,
    ) -> None:
        latency = self.sim.now - start
        self._observe_latency(request_record.dst, latency)
        self.pipeline.emit(
            ObservationRecord(
                timestamp=self.sim.now,
                kind=ObservationKind.REPLY,
                src=request_record.src,
                dst=request_record.dst,
                src_instance=request_record.src_instance,
                request_id=request_record.request_id,
                method=request_record.method,
                uri=request_record.uri,
                status=status,
                latency=latency,
                injected_delay=injected_delay,
                fault_applied=request_record.fault_applied,
                gremlin_generated=gremlin_generated,
                error=error,
                span_id=request_record.span_id,
                parent_span=request_record.parent_span,
            )
        )

    def _safe_send(
        self,
        conn: ExchangeEnd | ConnectionEnd | _GoneCaller,
        response: HttpResponse,
        as_bytes: bool,
    ) -> None:
        """Hand a response to the caller unless it already went away."""
        if conn.closed:
            return
        try:
            hand_on(conn, response, as_bytes)
        except ConnectionResetError_:
            pass

    def __repr__(self) -> str:
        return (
            f"<GremlinAgent {self.owner_instance} routes={self._routes}"
            f" rules={len(self.matcher)}>"
        )


# Direction aliases keep the hot path free of attribute lookups on the
# FaultType/MessageDirection namespace classes.
FaultType_REQUEST = "request"
FaultType_RESPONSE = "response"
