"""What a proxied call costs the interpreter: a budget on Python calls, not on time.

Next to ``test_codec_call_budget.py``, ``test_event_budget.py`` and
``test_garbage_budget.py`` and in the same spirit.  With the codec off
the drive path, the kernel events at their floor and the cycle collector
out of the way, a kernel event is ≈1 µs of the ≈185 µs a proxied call
takes: what is left is how many Python functions a call enters.  That
was ≈252 (≈243 on the recipe below), a good part of them re-deriving
what the previous step already knew; docs/INTERNALS.md "Call ledger"
names every cut.  These tests pin the totals per layer and, by name,
the re-derivations that must not come back.

Calls are counted the benchmark ledger's way (``tests.conftest.CallCount``).
"""

import collections
import dataclasses
import os

import pytest

from repro.agent import proxy
from repro.apps import build_socialnetwork_app
from repro.campaign import RecipeExecutor, plan_campaign
from repro.core import Crash, Misconfiguration, Recipe
from repro.http import Headers, HttpRequest, client, wire
from repro.http.headers import REQUEST_ID_HEADER, SPAN_ID_HEADER
from repro.logstore.query import Query
from repro.network import Network
from repro.observability.attribution import attribute_run
from repro.observability.trace import reconstruct, reconstruct_from_records
from repro.registry import ServiceRegistry
from repro.simulation import Simulator
from repro.tracing import propagate

from tests.conftest import CallCount, SpiedKey

#: Calls per proxied call: two percent above what the call ledger's
#: change measured, and (bar ``logstore``, which it did not move) at least
#: eight percent under the figure before it, given beside each ceiling.
#: The default lane's ``simulation`` and ``total`` were re-pinned when
#: its scheduler became a heap plus a due FIFO and ``event()``,
#: ``timeout()`` and ``Process`` were built in one frame each (middle
#: figure: the call ledger's).  ``logstore`` and ``total`` were re-pinned
#: when a record stopped passing through ``LogPipeline._deliver`` on its
#: way to ``EventStore.append`` (two records per call; last figure).
#: ``total`` and ``network`` on both lanes were re-pinned when a proxied
#: call's two legs became one-shot exchanges instead of connections (the
#: measurement first, then the ceiling each replaced).  ``total``,
#: ``http`` and ``registry`` on both lanes were re-pinned when a proven
#: map's trace headers started travelling as entries, a header key's
#: half of the proof was memoised and the canary pool with it (the
#: measurement first, then the ceiling each replaced).  ``total``,
#: ``http`` and ``registry`` on both lanes were re-pinned again when
#: owned messages started being handed over instead of copied, a call
#: without a deadline stopped going through ``await_with_deadline`` and
#: the canary pool was read before the canary pattern (the measurement
#: first, then the ceiling each replaced).
CEILINGS = {
    ("fault-free", "default"): {
        "total": 154.8,  # 151.77; was 158.6
        "network": 33.2,  # 32.50; was 57.5
        "http": 34.4,  # 33.77; was 37.2
        "simulation": 33.2,  # 32.57, 38.93, was 58.04
        "logstore": 8.4,  # 10.26, 8.26
        "registry": 1.25,  # 1.23; was 2.23
    },
    ("reset", "default"): {
        "total": 154.5,  # 151.46; was 158.6
        "network": 32.9,  # 32.26; was 56.2
        "http": 33.1,  # 32.44; was 36.1
        "simulation": 31.5,  # 30.84, 36.79, was 55.14
        "logstore": 8.5,  # 10.36, 8.36
        "registry": 1.25,  # 1.23; was 2.17
    },
    # The reference lane builds every timeout through its constructor and
    # queues the present on its one heap; the other layers read the same.
    ("fault-free", "heap"): {
        "total": 175.6,  # 172.15; was 179.3
        "network": 33.2,  # 32.50
        "http": 34.4,  # 33.77; was 37.2
        "simulation": 54.8,  # 53.77, was 63.77
        "registry": 1.25,  # 1.23; was 2.23
    },
    ("reset", "heap"): {
        "total": 174.2,  # 170.82; was 178.3
        "network": 32.9,  # 32.26
        "http": 33.1,  # 32.44; was 36.1
        "simulation": 52.2,  # 51.21, was 60.86
        "registry": 1.25,  # 1.23; was 2.17
    },
}


class CountingPairs(dict):
    """``Network._pair_latency`` that counts the lookups reaching it."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


class CountingPartitions(set):
    """``Network._partitions`` that counts the membership tests reaching it."""

    lookups = 0

    def __contains__(self, pair):
        self.lookups += 1
        return super().__contains__(pair)


class CountingSlices(collections.defaultdict):
    """``EventStore._slices`` that counts ingest's ``slices[key]`` lookups
    (the planner reads with ``.get`` and is not counted)."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


class Ledger(CallCount):
    """``CallCount`` plus three things a proxied call must not do more
    often than pinned: copy a header dict (``dict.copy`` called from
    ``repro.http``), match a request ID against a sidecar's canary
    pattern, and wait through ``await_with_deadline`` (the deadlines it
    was given)."""

    _HTTP = os.path.join(CallCount._ROOT, "http") + os.sep

    def __init__(self) -> None:
        super().__init__()
        self.header_copies = 0
        self.canary_matches = 0
        self.deadlines: list = []

    def _hook(self, frame, event, arg) -> None:
        if event == "c_call":
            if (
                arg.__name__ == "copy"
                and type(getattr(arg, "__self__", None)) is dict
                and os.path.abspath(frame.f_code.co_filename).startswith(self._HTTP)
            ):
                self.header_copies += 1
            return
        super()._hook(frame, event, arg)


class CountingPattern:
    """A sidecar's compiled canary pattern that counts its matches."""

    def __init__(self, pattern, ledger: Ledger) -> None:
        self.pattern, self.ledger = pattern, ledger

    def match(self, text):
        self.ledger.canary_matches += 1
        return self.pattern.match(text)


@pytest.fixture(scope="module")
def template():
    return plan_campaign(build_socialnetwork_app, seed=11).entries[0]


def drive(template, name, scheduler):
    """One socialnetwork verdict on ``scheduler`` with the fault tables
    and the slice index swapped for counting ones before any traffic."""
    scenarios = {
        # A recipe needs a scenario; this one is scoped to a flow nobody sends.
        "fault-free": [Misconfiguration("post-storage", mode="endpoint", pattern="no-such-flow-*")],
        # Every call to a crashed callee is reset (Abort, ``Error=-1``).
        "reset": [Crash("post-storage")],
        # The plan's own: a quarter of the calls aborted, most absorbed.
        "overload": template.recipe.scenarios,
    }[name]
    planned = dataclasses.replace(
        template, recipe=Recipe(name, scenarios, template.recipe.checks)
    )
    deployments = []

    class Instrumented:
        def deploy(self, seed):
            sim = Simulator(seed=seed, scheduler=scheduler)
            deployment = build_socialnetwork_app().deploy(sim=sim)
            network, store = deployment.network, deployment.store
            assert not network._pair_latency and not network._partitions
            assert not store._slices
            network._pair_latency = CountingPairs()
            network._partitions = CountingPartitions()
            store._slices = CountingSlices(store._slices.default_factory)
            deployments.append(deployment)
            return deployment

    ledger = Ledger()
    compile_pattern, wait = proxy.compile_id_pattern, client.await_with_deadline

    def counted_pattern(pattern):
        regex = compile_pattern(pattern)
        return None if regex is None else CountingPattern(regex, ledger)

    def noted_wait(sim, event, deadline):
        ledger.deadlines.append(deadline)
        return wait(sim, event, deadline)

    with pytest.MonkeyPatch.context() as patch, ledger as calls:
        patch.setattr(proxy, "compile_id_pattern", counted_pattern)
        patch.setattr(client, "await_with_deadline", noted_wait)
        outcome = RecipeExecutor(Instrumented, timeout=None).execute(planned)
    assert outcome.status not in ("error", "timeout"), outcome.error
    assert len(outcome.latencies) == template.load.requests  # it really drove the app
    (deployment,) = deployments
    return deployment, calls


@pytest.mark.parametrize("scheduler", ["default", "heap"])
@pytest.mark.parametrize("name", ["fault-free", "reset"])
def test_a_verdict_stays_inside_its_per_call_budget(template, name, scheduler):
    deployment, calls = drive(template, name, scheduler)
    proxied = sum(agent.proxied for agent in deployment.agents)
    assert proxied > 300
    per_call = {layer: calls.by_package[layer] / proxied for layer in calls.by_package}
    per_call["total"] = calls.total / proxied
    over = {
        layer: round(per_call[layer], 2)
        for layer, ceiling in CEILINGS[name, scheduler].items()
        if per_call[layer] > ceiling
    }
    assert over == {}

    # Empty fault tables are never looked into: no key is built for them.
    network = deployment.network
    assert (network._pair_latency.lookups, network._partitions.lookups) == (0, 0)

    # A record reaches its three slices through the memo: the index is
    # asked once per identity, not once per record.
    store = deployment.store
    identities = {(r.kind, r.src, r.dst) for r in store.all_records()}
    assert len(store) > 2 * proxied - 10 and len(identities) < len(store) / 5
    assert store._slices.lookups == 3 * len(identities)

    # A destination's canary pool is asked of the registry once, and no
    # destination has one: no request ID is matched against the pattern.
    asked = calls.calls_of(ServiceRegistry.try_instances)
    assert 0 < asked <= len(deployment.registry.services())
    assert calls.canary_matches == 0

    # Owned messages change hands: only the client's send is a wire
    # snapshot, and that snapshot is the one header-dict copy of a call.
    assert calls.calls_of(wire.wire_form) == proxied
    assert calls.header_copies == proxied

    # A call on an edge without a timeout waits on its events directly.
    assert None not in calls.deadlines


def test_propagate_copies_a_proven_map_without_testing_it_again():
    inbound = wire.wire_form(
        HttpRequest("GET", "/in", Headers({REQUEST_ID_HEADER: "test-1", SPAN_ID_HEADER: "a#1"}))
    )
    outgoing = HttpRequest("GET", "/out")
    with CallCount() as calls:
        propagate(inbound, outgoing)
    assert calls.calls_of(Headers.get) == calls.calls_of(Headers.__setitem__) == 0
    assert outgoing.headers.to_dict() == {REQUEST_ID_HEADER: "test-1", SPAN_ID_HEADER: "a#1"}
    # An unproven map still goes header by header.
    inbound.headers["X-Edge"] = " padded"
    with CallCount() as calls:
        propagate(inbound, HttpRequest("GET", "/out"))
    assert calls.calls_of(Headers.get) == calls.calls_of(Headers.__setitem__) == 2


def test_attribution_rebuilds_only_the_failed_traces(template):
    deployment, _calls = drive(template, "overload", "default")
    store = deployment.store
    faulted = {r.request_id for r in store.search_iter(Query(with_faults_only=True))}
    failed = {rid for rid in faulted if reconstruct(store, rid).failed}
    assert 0 < len(failed) < len(faulted)
    with CallCount() as calls:
        attribute_run(store, [])
    assert calls.calls_of(reconstruct_from_records) == len(failed)


def test_installed_fault_tables_are_consulted_again():
    """The guards test the tables as they are: one lookup per message
    once something is installed, none before."""
    net = Network(Simulator(seed=1), default_latency=0.001)
    net._pair_latency, net._partitions = CountingPairs(), CountingPartitions()
    net.latency_between("a", "b")
    net.is_partitioned("a", "b")
    assert (net._pair_latency.lookups, net._partitions.lookups) == (0, 0)
    net.set_latency("a", "c", 0.5)
    net.partition("a", "c")
    assert net.latency_between("a", "b") == 0.001 and net.latency_between("c", "a") == 0.5
    assert net.is_partitioned("c", "a") and not net.is_partitioned("a", "b")
    assert (net._pair_latency.lookups, net._partitions.lookups) == (2, 2)


def test_a_proven_map_is_not_walked_on_any_hop():
    spied = SpiedKey("X-Spied")
    request = HttpRequest("GET", "/x", Headers([(spied, "1"), ("X-Other", "2")]))
    assert spied.tested == 1  # proven where it was stored
    # Exempt: the wire form re-derives it, the stored value travels nowhere.
    request.headers["Content-Length"] = " 999 "
    for hop in range(4):
        # What a sidecar does between two hops: receive the snapshot,
        # stamp one clean header, forward.
        request = wire.wire_form(request)
        assert type(request) is HttpRequest
        request.headers[SPAN_ID_HEADER] = f"svc-1-0#{hop}"
    assert next(iter(request.headers)) is spied  # the very pair travelled
    assert spied.tested == 1


def test_an_unproven_map_is_walked_once_per_send_until_it_passes():
    spied = SpiedKey("X-Spied")
    request = HttpRequest("GET", "/x", Headers([(spied, "1")]))
    request.headers["X-Edge"] = " padded"
    assert spied.tested == 1
    for sends in (1, 2):
        assert type(wire.wire_form(request)) is bytes  # today's fallback
        assert spied.tested == 1 + sends
    del request.headers["X-Edge"]
    assert type(wire.wire_form(request)) is HttpRequest  # the walk that clears the mark
    assert spied.tested == 4
    assert type(wire.wire_form(request)) is HttpRequest
    assert spied.tested == 4
