"""The per-layer ledger: where a workload's time goes, measured from outside.

Three instruments, all in the benchmark's own files (spans inside the
program are a later change):

* :func:`attribute` charges a ``cProfile`` run of one round to the
  packages under ``src/repro/`` by source path;
* :func:`phase_pass` walks recipes through the executor's steps one
  public call at a time, a span around each;
* the ``probe_*`` functions time one layer's public entry points in
  isolation.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import pstats
import statistics
import time

from repro.agent.rules import fresh_rule_ids
from repro.apps import build_socialnetwork_app
from repro.campaign import (
    CampaignResult,
    CheckOutcome,
    ProcessPool,
    ProcessWorkerSpec,
    RecipeOutcome,
    dumps,
    loads,
)
from repro.core.gremlin import Gremlin
from repro.core.queries import QueryCache
from repro.explore import discover_space
from repro.http import HttpRequest, HttpResponse, decode, encode
from repro.loadgen import ClosedLoopLoad
from repro.logstore import EventStore
from repro.network import Address, Network
from repro.observability.attribution import attribute_run
from repro.simulation import Simulator

from bench.workloads import FLEET_WORKERS, SnVerdict, status_problem, verdict_digest

#: The layers of the ledger: packages under ``src/repro/``.  The rest of
#: the program (``analysis``, ``bus``, ``fuzz``, top-level modules), the
#: benchmark's own frames and the profiler's root are charged to OTHER,
#: so the table always sums to the whole profile.
LAYERS = (
    "simulation",
    "network",
    "http",
    "agent",
    "microservice",
    "logstore",
    "observability",
    "tracing",
    "core",
    "campaign",
    "explore",
    "loadgen",
    "registry",
    "apps",
)
OTHER = "other"

_PACKAGE_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str) -> str | None:
    """The ledger row a source file belongs to; None for code outside
    the program (stdlib, C builtins), which is charged to its callers."""
    _, mark, tail = filename.rpartition(_PACKAGE_MARK)
    if mark:
        package = tail.split(os.sep, 1)[0]
        return package if package in LAYERS else OTHER
    if os.sep + "bench" + os.sep in filename:
        return OTHER
    return None


def attribute(profile) -> dict[str, list]:
    """Fold a profile into ``{layer: [self seconds, calls]}``.

    A program function's self time and call count go to its package.
    Stdlib and C-builtin self time goes to whoever called it, split by
    the profile's caller edges and followed upwards until a program
    frame is reached.  Calls count program functions only, so they
    repeat exactly from run to run.
    """
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    table = {layer: [0.0, 0] for layer in LAYERS + (OTHER,)}
    shares_of: dict[tuple, dict[str, float]] = {}

    def shares(func: tuple) -> dict[str, float]:
        """How a frame's time divides over layers."""
        own = layer_of(func[0])
        if own is not None:
            return {own: 1.0}
        known = shares_of.get(func)
        if known is not None:
            return known
        # Provisional answer first: it ends recursion through a cycle
        # and is the final answer for a frame nobody called.
        shares_of[func] = {OTHER: 1.0}
        callers = stats[func][4]
        if not callers:
            return shares_of[func]
        # Weigh callers by the cumulative time spent under their calls.
        total = sum(edge[3] for edge in callers.values())
        split: dict[str, float] = {}
        for caller, edge in callers.items():
            part = edge[3] / total if total > 0 else 1.0 / len(callers)
            for layer, share in shares(caller).items():
                split[layer] = split.get(layer, 0.0) + part * share
        shares_of[func] = split
        return split

    for func, (_, calls, self_time, _, callers) in stats.items():
        own = layer_of(func[0])
        if own is not None:
            table[own][0] += self_time
            table[own][1] += calls
        elif not callers:
            table[OTHER][0] += self_time
        else:
            for caller, edge in callers.items():
                for layer, share in shares(caller).items():
                    table[layer][0] += edge[2] * share
    return table


class Spans:
    """In-memory span log: name, start, end, parent, operation id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: str):
        span = {
            "name": name,
            "op": op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


#: Span names of the step-by-step pass, in execution order; each is
#: reported as a per-layer metric (median ms over the pass's recipes).
PHASES = (
    "apps.build_ms",
    "microservice.deploy_ms",
    "core.inject_ms",
    "drive_ms",
    "logstore.drain_ms",
    "core.assert_ms",
    "observability.snapshot_ms",
    "observability.attribute_ms",
    "campaign.to_dict_ms",
)


def classify(checks) -> str:
    """A recipe's status from its check outcomes, as the executor folds them."""
    if checks and all(check.passed for check in checks):
        return "pass"
    if any(not check.passed and not check.inconclusive for check in checks):
        return "fail"
    return "inconclusive"


def run_drained(sim, slice_virtual: float = 60.0) -> None:
    """Drain the event queue in the executor's default virtual-time
    slices, so the failure window closes at the same virtual instant."""
    while sim.peek() != float("inf"):
        sim.run(until=sim.now + slice_virtual)


def stepwise_verdict(entry, spans: Spans):
    """One recipe, step by step as ``RecipeExecutor.execute`` does it,
    through public calls only; returns the outcome, its dict form and
    the deployment (its store is still full)."""
    op = entry.name
    recipe, spec = entry.recipe, entry.load
    with spans.span("verdict", op):
        with spans.span("apps.build_ms", op):
            application = build_socialnetwork_app()
        with spans.span("microservice.deploy_ms", op):
            deployment = application.deploy(seed=entry.seed)
            source = deployment.add_traffic_source(spec.entry, name=spec.source_name)
            gremlin = Gremlin(deployment)
        sim = deployment.sim
        since = sim.now
        with spans.span("core.inject_ms", op):
            with fresh_rule_ids():
                installation = gremlin.inject(*recipe.scenarios)
        with spans.span("drive_ms", op):
            load = ClosedLoopLoad(
                num_requests=spec.requests, think_time=spec.think_time, uri=spec.uri
            )
            sim.process(load.driver(source), name=f"load/{recipe.name}")
            if recipe.load is not None:
                sim.process(recipe.load(deployment), name=f"extra-load/{recipe.name}")
            run_drained(sim)
            sim.run(until=sim.now + max(entry.settle, recipe.settle))
        with spans.span("logstore.drain_ms", op):
            if not deployment.pipeline.drained().triggered:
                run_drained(sim)
        until = sim.now
        with spans.span("core.assert_ms", op):
            cache = QueryCache(deployment.store)
            for check in recipe.checks:
                for scope in check.scopes(since=since, until=until):
                    cache.search(scope)
            checks = [
                CheckOutcome.from_result(check.run(cache, since=since, until=until))
                for check in recipe.checks
            ]
        status = classify(checks)
        with spans.span("observability.snapshot_ms", op):
            metrics = deployment.metrics_snapshot()
        attributions = []
        if status == "fail":
            with spans.span("observability.attribute_ms", op):
                attributions = [
                    attribution.to_dict()
                    for attribution in attribute_run(
                        deployment.store, installation.rules, limit=25
                    )
                ]
        with spans.span("campaign.to_dict_ms", op):
            outcome = RecipeOutcome(
                index=entry.index,
                name=entry.name,
                pattern=entry.pattern,
                service=entry.service,
                seed=entry.seed,
                status=status,
                checks=checks,
                window=(since, until),
                latencies=load.result.latencies,
                metrics=metrics,
                attributions=attributions,
            )
            document = outcome.to_dict()
        gremlin.clear()
    return outcome, document, deployment


def phase_pass(seed: int, spans: Spans):
    """Nine ``sn_verdict`` recipes (three of each kind), first through
    the executor, then step by step; the two must agree on every digest.

    Returns the phase metrics, the reconciliation figures, the checker
    holding the pass's attempted/failed counts, and real inputs for the
    probes: the recipes, their outcomes, and the last recipe's outcome
    dict and deployment.
    """
    checker = SnVerdict(seed)
    checker.build()
    checker.entries = checker.entries[::3]
    checker.timed_round()
    outcomes = []
    for entry in checker.entries:
        outcome, document, deployment = stepwise_verdict(entry, spans)
        checker.record(entry.name, verdict_digest(outcome), status_problem(outcome))
        outcomes.append(outcome)
    metrics = {
        phase: statistics.median(spans.durations(phase) or [0.0]) * 1e3
        for phase in PHASES
    }
    outer = spans.durations("verdict")
    covered = sum(sum(spans.durations(phase)) for phase in PHASES)
    reconciliation = {
        "phase_span_coverage": covered / sum(outer),
        "phase_pass_p50_over_execute_p50": statistics.median(outer)
        / statistics.median(checker.raw_op_s),
    }
    sample = {
        "entries": checker.entries,
        "outcomes": outcomes,
        "document": document,
        "deployment": deployment,
    }
    return metrics, reconciliation, checker, sample


def per_call(function, calls: int) -> float:
    """Median over three repeats of the mean seconds per call."""
    repeats = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            function()
        repeats.append((time.perf_counter() - start) / calls)
    return statistics.median(repeats)


def probe_simulation() -> dict:
    def sleeper(sim, rounds, delay):
        for _ in range(rounds):
            yield sim.timeout(delay)

    processes, rounds = 100, 300
    sim = Simulator(seed=7)
    for index in range(processes):
        sim.process(sleeper(sim, rounds, 0.5 + (index % 7) * 0.1))
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return {"simulation.events_per_s": processes * rounds / wall}


def probe_network() -> dict:
    roundtrips = 2000
    sim = Simulator(seed=7)
    network = Network(sim, default_latency=0.0005)
    near, far = network.add_host("near"), network.add_host("far")
    listener = far.listen(80)

    def echo():
        end = yield listener.accept()
        for _ in range(roundtrips):
            end.send((yield end.recv()))

    def caller():
        end = yield near.connect(Address("far", 80))
        for _ in range(roundtrips):
            end.send(b"ping")
            yield end.recv()

    sim.process(echo())
    sim.process(caller())
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return {"network.roundtrip_us": wall / roundtrips * 1e6}


def probe_http() -> dict:
    request = HttpRequest(
        "POST",
        "/api/compose",
        {"Content-Type": "application/json", "X-Forwarded-For": "10.0.0.7"},
        body=b"r" * 256,
    )
    request.request_id = "test-17"
    response = HttpResponse(200, {"Content-Type": "application/json"}, body=b"s" * 512)
    wires = (encode(request), encode(response))
    pair = 2  # one request and one response per call
    return {
        "http.encode_us": per_call(lambda: (encode(request), encode(response)), 2000)
        / pair
        * 1e6,
        "http.decode_us": per_call(lambda: (decode(wires[0]), decode(wires[1])), 2000)
        / pair
        * 1e6,
    }


def probe_agent(entry) -> dict:
    """The default matcher of a real sidecar carrying one recipe's rules."""
    deployment = build_socialnetwork_app().deploy(seed=entry.seed)
    Gremlin(deployment).inject(*entry.recipe.scenarios)
    matcher = next(agent.matcher for agent in deployment.agents if len(agent.matcher))
    rule = matcher.rules[0].rule
    return {
        "agent.match_us": per_call(
            lambda: matcher.match(rule.dst, rule.on, "test-17"), 20000
        )
        * 1e6
    }


def probe_logstore(entry, deployment) -> dict:
    """One recipe's records into a fresh default store, then its checks'
    scopes searched."""
    records = deployment.store.all_records()
    since, until = records[0].timestamp, records[-1].timestamp
    scopes = [
        scope
        for check in entry.recipe.checks
        for scope in check.scopes(since=since, until=until)
    ]
    ingests = []
    for _ in range(3):
        store = EventStore()
        start = time.perf_counter()
        for record in records:
            store.append(record)
        ingests.append((time.perf_counter() - start) / len(records))

    def search():
        for scope in scopes:
            store.search(scope)

    return {
        "logstore.ingest_us": statistics.median(ingests) * 1e6,
        "logstore.search_us": per_call(search, 200) / len(scopes) * 1e6,
    }


def _no_op(worker_id, job, context):
    """Fleet job that does nothing: what is left is the fleet itself."""
    return job


def probe_fleet() -> dict:
    jobs, workers = 2000, FLEET_WORKERS
    spec = ProcessWorkerSpec(target=_no_op)
    start = time.perf_counter()
    with ProcessPool(spec, size=workers) as pool:
        pool.run(list(range(workers)))
        spawned = time.perf_counter()
        pool.run(list(range(jobs)))
        dispatched = time.perf_counter()
    return {
        "campaign.spawn_s": spawned - start,
        "campaign.dispatch_us": (dispatched - spawned) / jobs * 1e6,
    }


def probe_transport(document: dict) -> dict:
    """Both result lanes' encode and decode of one real outcome dict."""
    pickled = pickle.dumps(document, protocol=pickle.HIGHEST_PROTOCOL)
    metrics = {
        "campaign.encode_us": per_call(
            lambda: pickle.dumps(document, protocol=pickle.HIGHEST_PROTOCOL), 500
        )
        * 1e6,
        "campaign.decode_us": per_call(lambda: pickle.loads(pickled), 500) * 1e6,
        "campaign.codec_encode_us": 0.0,
        "campaign.codec_decode_us": 0.0,
    }
    try:
        from repro.campaign.codec import ResultDecoder, ResultEncoder
    except ImportError:
        # ROADMAP's lane audit may delete the shm lane and its codec;
        # the benchmark must keep running on that commit.
        return metrics
    encoder, decoder = ResultEncoder(), ResultDecoder()
    decoder.decode(encoder.encode(document))
    steady = encoder.encode(document)  # shape and strings now interned
    metrics["campaign.codec_encode_us"] = (
        per_call(lambda: encoder.encode(document), 500) * 1e6
    )
    metrics["campaign.codec_decode_us"] = (
        per_call(lambda: decoder.decode(steady), 500) * 1e6
    )
    return metrics


def probe_results(seed: int, outcomes) -> dict:
    """Scorecard, dump, load and report over the pass's real outcomes."""
    result = CampaignResult(
        name="bench", app="socialnetwork", seed=seed, workers=1, outcomes=outcomes
    )
    blob = dumps(result)

    def report():
        rendered = result.resilience_report()
        return rendered.to_json(), rendered.to_html()

    return {
        "campaign.scorecard_ms": per_call(lambda: result.scorecard().text(), 5) * 1e3,
        "campaign.dump_ms": per_call(lambda: dumps(result), 5) * 1e3,
        "campaign.load_ms": per_call(lambda: loads(blob), 5) * 1e3,
        "observability.report_ms": per_call(report, 3) * 1e3,
    }


def probe_explore(seed: int) -> dict:
    start = time.perf_counter()
    discover_space("deepfanout", seed=seed)
    return {"explore.discover_ms": (time.perf_counter() - start) * 1e3}


def probes(seed: int, sample: dict) -> dict:
    """Every isolated probe, on the phase pass's real inputs."""
    entries = sample["entries"]
    return {
        **probe_simulation(),
        **probe_network(),
        **probe_http(),
        **probe_agent(entries[0]),  # an overload recipe: two rules per caller
        **probe_logstore(entries[-1], sample["deployment"]),
        **probe_fleet(),
        **probe_transport(sample["document"]),
        **probe_results(seed, sample["outcomes"]),
        **probe_explore(seed),
    }
