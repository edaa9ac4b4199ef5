"""Same-instant order between concurrent flows, pinned by digest.

Every benchmark workload and every wire-equivalence recipe drives one
closed-loop user, so no two flows there are ever tied on a timestamp —
and a tie is the only place where removing or merging kernel events
could reorder anything.  These scenarios manufacture ties on purpose:
every latency, service time and injected delay is a power of two (so
sums are exact in floating point and coincidences are real ties, not
near misses), several flows start at the same instant, a few services
take no time at all, one service queues callers on a two-worker pool
(so *who arrived first* shows in the latencies), and one ``Delay`` rule
shifts part of the flows by a multiple of the link latency so that they
tie with flows in a different phase.

The digests below were recorded before the per-hop event diet (ISSUE 19)
touched ``src/``; they cover every record in store order, the span IDs,
the metrics snapshot, what the load generator saw and the clock after
the drain, on both scheduler lanes.  A change that moves one of them has
reordered a tie.
"""

import hashlib
import json

import pytest

from repro.apps import build_socialnetwork_app, build_tree_app
from repro.core import DelayCalls, Gremlin
from repro.http import HttpRequest
from repro.loadgen import ApacheBench, Sample
from repro.network.latency import as_latency
from repro.simulation.kernel import SCHEDULERS, Simulator
from repro.tracing import RequestIdGenerator

#: One-way latency of every link *and* of the loopback hop to a sidecar.
LINK = 2.0**-11


def deploy(app, scheduler):
    sim = Simulator(seed=3, scheduler=scheduler)
    deployment = app.deploy(sim=sim, default_link_latency=LINK)
    deployment.network.loopback_latency = as_latency(LINK)
    return deployment


def digest(deployment, samples):
    records = deployment.store.all_records()
    payload = {
        "records": [record.to_dict() for record in records],
        "spans": [(record.span_id, record.parent_span) for record in records],
        "metrics": deployment.metrics_snapshot(),
        "samples": [
            (s.request_id, s.start, s.elapsed, s.status, s.error) for s in samples
        ],
        "now": deployment.sim.now,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def tree_under_concurrent_workers(scheduler):
    app = build_tree_app(3, service_time=2 * LINK)
    definitions = app.definitions
    for name in ("svc-1", "svc-4", "svc-9"):
        definitions[name].service_time = 0.0
    definitions["svc-2"].worker_pool = 2
    deployment = deploy(app, scheduler)
    source = deployment.add_traffic_source("svc-0")
    # Flows test-3, -6, -9, ... fall two round trips behind the others.
    Gremlin(deployment).inject(
        DelayCalls("svc-0", "svc-2", interval=4 * LINK, pattern="test-*[0369]")
    )
    result = ApacheBench(total_requests=40, concurrency=8).run(source)
    return deployment, result.samples


def socialnetwork_under_periodic_arrivals(scheduler):
    app = build_socialnetwork_app()
    definitions = app.definitions
    for definition in definitions.values():
        definition.service_time = 2 * LINK
    for name in ("unique-id", "url-cache", "ranker"):
        definitions[name].service_time = 0.0
    deployment = deploy(app, scheduler)
    source = deployment.add_traffic_source("nginx")
    Gremlin(deployment).inject(
        DelayCalls("compose-post", "text-service", interval=8 * LINK, pattern="test-*[05]")
    )
    sim = deployment.sim
    ids = RequestIdGenerator()
    samples = []

    def flow():
        request = HttpRequest("GET", "/")
        request.request_id = ids.next_id()
        start = sim.now
        status = error = None
        try:
            status = (yield from source.client.call(request)).status
        except Exception as exc:  # noqa: BLE001 - recorded, asserted on by the test
            error = type(exc).__name__
        samples.append(Sample(request.request_id, start, sim.now - start, status, error))

    def arrivals():
        # Open loop: a new flow every four link latencies, whether or
        # not the earlier ones are back.
        for _ in range(24):
            sim.process(flow())
            yield sim.timeout(4 * LINK)

    sim.process(arrivals())
    sim.run()
    return deployment, samples


SCENARIOS = {
    "tree": (tree_under_concurrent_workers, "144d7bb6808fb360"),
    "socialnetwork": (socialnetwork_under_periodic_arrivals, "b6380fafae652520"),
}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_tie_order_digest_is_pinned(scenario, scheduler):
    run, pinned = SCENARIOS[scenario]
    deployment, samples = run(scheduler)
    assert len(deployment.store) > 100
    assert all(sample.error is None for sample in samples)
    assert digest(deployment, samples) == pinned


def test_the_scenarios_really_tie():
    """Guard against the scenarios drifting into tie-free schedules:
    most records share their timestamp with a record of another flow."""
    deployment, _ = tree_under_concurrent_workers("default")
    flows_at = {}
    for record in deployment.store.all_records():
        flows_at.setdefault(record.timestamp, set()).add(record.request_id)
    tied = sum(1 for flows in flows_at.values() if len(flows) > 1)
    assert tied > len(flows_at) // 2
