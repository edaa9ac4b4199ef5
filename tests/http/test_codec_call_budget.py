"""The drive path serialises nothing: a budget on codec calls, not on time.

A proxied call used to cost four ``encode_*`` and four ``decode_*``
passes whose bytes nobody read.  Senders now hand the transport a wire
snapshot (:mod:`repro.http.wire`), and the codec runs only where bytes
are really consumed.  These tests count calls into the four codec entry
points — in the spirit of ``tests/test_import_budget.py`` they pin *what*
runs, not how long it takes — so a later change cannot silently put the
eager path back under every message.
"""

import collections
import dataclasses
import sys

import pytest

from repro.apps import build_socialnetwork_app
from repro.campaign import RecipeExecutor, plan_campaign
from repro.core import Misconfiguration, Recipe
from repro.http import HttpRequest, codec

from tests.conftest import run_to_completion

ENTRY_POINTS = ("encode_request", "encode_response", "decode_request", "decode_response")


@pytest.fixture
def codec_calls():
    """Calls into each codec entry point, however the caller got hold of
    it: counted by code object from a profile hook, so an imported-by-name
    copy of a function counts like the original."""
    entry_points = {getattr(codec, name).__code__: name for name in ENTRY_POINTS}
    calls = collections.Counter()

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code in entry_points:
            calls[entry_points[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(None)


@pytest.fixture(scope="module")
def template():
    return plan_campaign(build_socialnetwork_app, seed=11).entries[0]


def verdict(template, name, scenarios):
    planned = dataclasses.replace(
        template, recipe=Recipe(name, scenarios, template.recipe.checks)
    )
    outcome = RecipeExecutor(build_socialnetwork_app, timeout=None).execute(planned)
    assert outcome.status not in ("error", "timeout"), outcome.error
    # The verdict really drove the 28-service app.
    assert len(outcome.latencies) == template.load.requests
    return outcome


def faults_injected(outcome, fault):
    return sum(
        count
        for series, count in outcome.metrics["counters"].items()
        if series.startswith("gremlin_faults_injected_total") and f'fault="{fault}"' in series
    )


def test_fault_free_verdict_never_touches_the_codec(codec_calls, template):
    # A recipe needs a scenario; this one is scoped to a flow nobody sends.
    idle = Misconfiguration("post-storage", mode="endpoint", pattern="no-such-flow-*")
    outcome = verdict(template, "fault-free", [idle])
    assert faults_injected(outcome, "abort") == 0
    assert not codec_calls


def test_modify_verdict_never_touches_the_codec(codec_calls, template):
    outcome = verdict(
        template, "garbage-replies", [Misconfiguration("post-storage", mode="reply")]
    )
    assert faults_injected(outcome, "modify") >= template.load.requests
    assert not codec_calls


@pytest.mark.parametrize("through", ["sidecar", "server"])
def test_raw_bytes_peer_pays_for_its_own_exchange_only(codec_calls, through):
    """A peer that speaks bytes gets them parsed once and is answered in
    bytes once; the fan-out its request causes stays on snapshots."""
    deployment = build_socialnetwork_app().deploy(seed=5)
    source = deployment.add_traffic_source("nginx")
    if through == "sidecar":
        target = source.agent.route_address("nginx")
    else:
        target = deployment.registry.addresses("nginx")[0]

    def raw_client(sim):
        conn = yield source.host.connect(target)
        request = HttpRequest("GET", "/")
        request.request_id = "test-raw"
        conn.send(codec.encode_request(request))
        payload = yield conn.recv()
        conn.close()
        assert isinstance(payload, bytes)
        return codec.decode_response(payload)

    response = run_to_completion(deployment.sim, raw_client(deployment.sim))
    assert response.status == 200
    deployment.pipeline.flush()
    assert len(deployment.store) > 20  # one request, a whole fan-out behind it
    assert codec_calls == dict.fromkeys(ENTRY_POINTS, 1)
