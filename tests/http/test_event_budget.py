"""What a call costs the kernel: a budget on scheduled events, not on time.

Next to ``test_codec_call_budget.py`` and in the same spirit: the drive
path's cost is the number of events a proxied call puts on the kernel's
queue, and docs/INTERNALS.md "Per-hop ledger" argues each one.  A
connection used to cost ten — among them a serve process started at
connect and parked in ``recv()``, the failed ``recv()`` that woke it at
close, and its termination event, none of which anything observed.
These tests pin the seven that are left by name, so a later change
cannot quietly park a process per connection again.

Events are counted the ledger's way: on the heap lane every queue entry
takes one number from ``sim._counter``.
"""

import dataclasses

from repro.apps import build_socialnetwork_app
from repro.campaign import RecipeExecutor, plan_campaign
from repro.core import Misconfiguration, Recipe
from repro.http import HttpClient, HttpResponse, HttpServer
from repro.network import Address, Network
from repro.simulation import Simulator

from tests.conftest import EventCount, run_to_completion


def test_one_call_schedules_exactly_the_events_the_ledger_names():
    sim = Simulator(seed=1, scheduler="heap")
    net = Network(sim, default_latency=0.001)

    def handler(request):
        return HttpResponse(200, body=b"at once")
        yield  # a generator that never waits

    server = HttpServer(net.add_host("server"), 80, handler).start()
    client = HttpClient(net.add_host("client"))
    scheduled = EventCount(sim)

    response = run_to_completion(sim, client.get(Address("server", 80), "/"))
    assert response.body == b"at once" and server.requests_served == 1
    assert scheduled() == sum(
        (
            1,  # the calling process's own bootstrap
            1,  # handshake: one RTT
            1,  # connect event: tells the caller behind what is already due then
            1,  # request: one link latency
            1,  # serve-process bootstrap, where the delivery queues it
            1,  # response: one link latency
            1,  # the caller's pending recv(), triggered by that delivery
            1,  # close: one link latency
        )
    )
    # Nothing at connect, nothing when the close lands, and neither the
    # serve process nor the caller queues an event to end unobserved.


def test_fault_free_verdict_stays_inside_its_per_call_budget():
    """21.4 events per proxied call before the diet, 15.4 after it: two
    connections of seven, the callee's service time, and a deadline timer
    plus ``AnyOf`` on the budgeted edges."""
    template = plan_campaign(build_socialnetwork_app, seed=11).entries[0]
    idle = Misconfiguration("post-storage", mode="endpoint", pattern="no-such-flow-*")
    planned = dataclasses.replace(
        template, recipe=Recipe("fault-free", [idle], template.recipe.checks)
    )
    deployments = []

    class OnHeapLane:
        def deploy(self, seed):
            deployments.append(build_socialnetwork_app().deploy(seed=seed, scheduler="heap"))
            return deployments[-1]

    outcome = RecipeExecutor(OnHeapLane, timeout=None).execute(planned)
    assert outcome.status not in ("error", "timeout"), outcome.error
    (deployment,) = deployments
    events = EventCount(deployment.sim)()
    proxied = sum(agent.proxied for agent in deployment.agents)
    assert proxied > 500  # the verdict really drove the 28-service app
    assert events <= 16 * proxied
