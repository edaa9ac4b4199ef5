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

import pytest

from repro.apps import build_socialnetwork_app
from repro.campaign import RecipeExecutor, plan_campaign
from repro.core import Crash, Misconfiguration, Recipe
from repro.http import Headers, HttpRequest, wire
from repro.http.headers import SPAN_ID_HEADER
from repro.network import Network
from repro.simulation import Simulator

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
CEILINGS = {
    ("fault-free", "default"): {
        "total": 197.7,  # 195.78, 202.13, was 242.79; 193.78
        "network": 57.5,  # 56.41, was 67.50
        "http": 42.2,  # 41.34, was 49.88
        "simulation": 33.2,  # 32.57, 38.93, was 58.04
        "logstore": 8.4,  # 10.26, 8.26
        "registry": 4.2,  # 4.11, was 6.04
    },
    ("reset", "default"): {
        "total": 196.2,  # 194.36, 200.30, was 239.17; 192.35
        "network": 56.2,  # 55.14, was 65.85
        "http": 40.9,  # 40.14, was 48.14
        "simulation": 31.5,  # 30.84, 36.79, was 55.14
        "logstore": 8.5,  # 10.36, 8.36
        "registry": 4.0,  # 3.93, was 5.73
    },
    # The reference lane builds every timeout through its constructor and
    # queues the present on its one heap; the other layers read the same.
    ("fault-free", "heap"): {
        "total": 218.4,  # 216.98, was 248.53; 214.16
        "simulation": 54.8,  # 53.77, was 63.77
    },
    ("reset", "heap"): {
        "total": 215.9,  # 214.73, was 244.89; 211.71
        "simulation": 52.2,  # 51.21, was 60.86
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

    with CallCount() as calls:
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
