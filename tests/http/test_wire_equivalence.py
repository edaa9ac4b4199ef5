"""The lazy wire form changes nothing anyone can observe.

Production sends wire snapshots (:func:`repro.http.wire.wire_form`) and
hands owned messages over (:func:`repro.http.wire.handed_form`); the
eager codec is the oracle.  Each scenario here runs twice on identical
seeds — once as shipped, once with both swapped for the codec —
and every observation record, span tree, latency and the recipe outcome
must be equal element by element.  Two oracles: ``roundtrip`` hands the
receiver ``decode(encode(m))`` (the snapshot's definition); ``bytes``
sends ``encode(m)`` so every hop parses real bytes, the stack as it was
before the snapshot existed.
"""

import contextlib
import dataclasses

import pytest

from repro.agent import modify
from repro.apps import build_socialnetwork_app
from repro.campaign import LoadSpec, PlannedRecipe, RecipeExecutor, plan_campaign
from repro.core import (
    AbortCalls,
    FailureScenario,
    FakeSuccess,
    HasBoundedRetries,
    Misconfiguration,
    Recipe,
)
from repro.http import SPAN_ID_HEADER, HttpRequest, HttpResponse, decode, encode, wire
from repro.loadgen import ClosedLoopLoad
from repro.microservice import Application, PolicySpec, ServiceDefinition
from repro.observability.trace import reconstruct
from repro.tracing import RequestIdGenerator

ORACLES = {
    "roundtrip": lambda message: decode(encode(message)),
    "bytes": encode,
}

#: Every recipe here runs on both scheduler lanes.
pytestmark = pytest.mark.usefixtures("deploys_on_lane")

#: Wall-clock fields of an outcome; everything else is simulated.
WALL_CLOCK = ("orchestration_time", "assertion_time", "wall_time")


@pytest.fixture(params=sorted(ORACLES))
def eager_codec(request, monkeypatch):
    """A context manager that puts the whole stack on the oracle codec."""

    @contextlib.contextmanager
    def switched():
        with monkeypatch.context() as patch:
            # Snapshots and hand-offs alike: every hop's send.
            patch.setattr(wire, "wire_form", ORACLES[request.param])
            patch.setattr(wire, "handed_form", ORACLES[request.param])
            yield

    return switched


@dataclasses.dataclass
class Evidence:
    outcome: dict
    records: list
    traces: list
    latencies: list


def observe(factory, planned, prepare=None) -> Evidence:
    """Execute ``planned`` the way a campaign worker does and keep
    everything the run left behind.  ``prepare(deployment)`` runs right
    after deploy (e.g. to switch mirroring on)."""
    deployments = []

    def keeping_the_deployment():
        app = factory()
        deploy = app.deploy

        def deploy_and_keep(*args, **kwargs):
            deployment = deploy(*args, **kwargs)
            if prepare is not None:
                prepare(deployment)
            deployments.append(deployment)
            return deployment

        app.deploy = deploy_and_keep
        return app

    outcome = RecipeExecutor(keeping_the_deployment, timeout=None).execute(planned)
    assert outcome.status not in ("error", "timeout"), outcome.error
    (deployment,) = deployments
    records = deployment.store.all_records()
    request_ids = sorted({record.request_id for record in records if record.request_id})
    document = outcome.to_dict()
    for field in WALL_CLOCK:
        document.pop(field)
    return Evidence(
        outcome=document,
        records=[dataclasses.asdict(record) for record in records],
        traces=[reconstruct(deployment.store, rid).to_dict() for rid in request_ids],
        latencies=list(outcome.latencies),
    )


def assert_same(lazy: Evidence, eager: Evidence) -> None:
    assert lazy.records, "the scenario must put traffic through the sidecars"
    for name in ("records", "traces", "latencies"):
        ours, theirs = getattr(lazy, name), getattr(eager, name)
        assert len(ours) == len(theirs), name
        for position, (mine, reference) in enumerate(zip(ours, theirs)):
            assert mine == reference, f"{name}[{position}]"
    assert lazy.outcome == eager.outcome


def both_lanes(eager_codec, factory, planned, prepare=None):
    lazy = observe(factory, planned, prepare)
    with eager_codec():
        eager = observe(factory, planned, prepare)
    assert_same(lazy, eager)
    return lazy


# -- socialnetwork: the three auto-generated recipe families ------------------------


@pytest.fixture(scope="module")
def socialnetwork_plan():
    return plan_campaign(build_socialnetwork_app, seed=11)


@pytest.mark.parametrize("family", ["overload", "hang", "degrade"])
def test_socialnetwork_recipe(eager_codec, socialnetwork_plan, family):
    planned = next(entry for entry in socialnetwork_plan if entry.pattern == family)
    both_lanes(eager_codec, build_socialnetwork_app, planned)


def test_misconfigured_replies(eager_codec, socialnetwork_plan):
    template = socialnetwork_plan.entries[0]
    scenario = Misconfiguration("post-storage", mode="reply")
    planned = dataclasses.replace(
        template,
        recipe=Recipe("misconfigured-replies", [scenario], template.recipe.checks),
        pattern=scenario.kind,
        service="post-storage",
    )
    lazy = both_lanes(eager_codec, build_socialnetwork_app, planned)
    assert any(record["fault_applied"] for record in lazy.records)


# -- a two-tier app whose bodies show a Modify in either direction -------------------


class ModifyRequests(FailureScenario):
    """Modify on the *request* direction of one edge (the library ships
    the reply direction only, as ``ModifyReplies``/``FakeSuccess``)."""

    kind = "modify_requests"

    def __init__(self, src, dst, pattern, replace_bytes):
        self.src, self.dst = src, dst
        self.pattern, self.replace_bytes = pattern, replace_bytes

    def decompose(self, graph):
        graph.validate_services([self.src, self.dst])
        return [
            modify(
                self.src,
                self.dst,
                pattern=self.pattern,
                replace_bytes=self.replace_bytes,
                on="request",
                id_pattern="test-*",
            )
        ]


def build_echo_app(journal=None, **backend):
    """``front`` posts ``key=alpha`` to ``backend``, which echoes it, so a
    rewrite in either direction reaches a body somebody reads.
    ``journal`` collects what the handlers saw: the body ``backend``
    got, the body ``front`` got back and, after the call, the headers of
    the request object ``front`` handed to its client."""
    journal = [] if journal is None else journal

    def front(ctx, request):
        downstream = HttpRequest("POST", "/store", {"Content-Type": "text/plain"}, b"key=alpha")
        try:
            response = yield from ctx.call("backend", downstream, parent=request)
        finally:
            journal.append(("front sent", list(downstream.headers.items())))
        journal.append(("front got", response.body))
        return HttpResponse(response.status, body=response.body)

    def back(ctx, request):
        yield from ctx.work()
        journal.append(("backend got", request.body))
        return HttpResponse(200, {"X-Stored": "yes"}, b"stored " + request.body + b" key ok")

    app = Application("echo")
    app.add_service(
        ServiceDefinition(
            "front",
            handler=front,
            dependencies={"backend": PolicySpec(timeout=1.0, max_retries=3)},
        )
    )
    app.add_service(ServiceDefinition("backend", handler=back, **backend))
    return app


def echo_recipe(scenario, requests=6):
    return PlannedRecipe(
        index=0,
        recipe=Recipe(
            f"echo-{scenario.kind}", [scenario], [HasBoundedRetries("front", "backend", 5)]
        ),
        seed=23,
        pattern=scenario.kind,
        service="backend",
        load=LoadSpec(entry="front", requests=requests),
        settle=1.0,
    )


@pytest.mark.parametrize(
    "scenario, seen",
    [
        (
            ModifyRequests("front", "backend", "key", "badkey"),
            [("backend got", b"badkey=alpha"), ("front got", b"stored badkey=alpha key ok")],
        ),
        (
            FakeSuccess("backend"),
            [("backend got", b"key=alpha"), ("front got", b"stored badkey=alpha badkey ok")],
        ),
    ],
    ids=["request-direction", "reply-direction"],
)
def test_modify(eager_codec, scenario, seen):
    journal = []
    lazy = both_lanes(eager_codec, lambda: build_echo_app(journal), echo_recipe(scenario))
    assert any("modify" in (record["fault_applied"] or "") for record in lazy.records)
    half = len(journal) // 2
    assert journal[:half] == journal[half:]  # the handlers saw the same bytes in both lanes
    for entry in seen:
        assert entry in journal


def production_load(deployment):
    source = deployment.add_traffic_source("front", name="production")
    load = ClosedLoopLoad(num_requests=5, ids=RequestIdGenerator(prefix="user-"))
    return load.driver(source)


def test_mirrored_flow(eager_codec):
    """Untagged production load next to the test load, mirrored onto the
    shadow pool, with a fault scoped to the mirror copies."""

    def mirror(deployment):
        deployment.agents_of("front")[0].add_mirror("backend")

    planned = echo_recipe(AbortCalls("front", "backend", 503, pattern="shadow-*", max_matches=2))
    planned.recipe = dataclasses.replace(planned.recipe, load=production_load)
    lazy = both_lanes(
        eager_codec, lambda: build_echo_app(canary_instances=1), planned, prepare=mirror
    )
    shadow = [
        record for record in lazy.records if (record["request_id"] or "").startswith("shadow-")
    ]
    # Five mirror copies: two aborted at the sidecar, three delivered to
    # the shadow; each logs a request and a reply.
    assert len(shadow) == 2 * 2 + 3 * 2
    assert sum(1 for record in shadow if record["fault_applied"]) == 2 * 2


def test_retry_resends_the_one_request_object(eager_codec):
    """The sidecar stamps its span ID on *its* copy: the caller's object,
    re-sent by the retry loop, never changes."""
    journal = []
    planned = echo_recipe(AbortCalls("front", "backend", 503, max_matches=2), requests=1)
    lazy = both_lanes(eager_codec, lambda: build_echo_app(journal), planned)
    attempts = [
        record
        for record in lazy.records
        if record["kind"] == "request" and record["src"] == "front"
    ]
    assert len(attempts) == 3  # two aborted, the third got through
    assert len({record["span_id"] for record in attempts}) == 3
    assert len({record["parent_span"] for record in attempts}) == 1
    # What front's object held after the call is what propagate() put
    # there (the enclosing span included) and nothing a sidecar added.
    (lazy_sent, eager_sent) = [headers for what, headers in journal if what == "front sent"]
    assert lazy_sent == eager_sent == [
        ("Content-Type", "text/plain"),
        ("X-Gremlin-Request-Id", attempts[0]["request_id"]),
        (SPAN_ID_HEADER, attempts[0]["parent_span"]),
    ]
