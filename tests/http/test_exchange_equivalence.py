"""One-shot exchanges change nothing anyone can observe.

``HttpClient.call`` and the sidecar's ``_forward`` open
one-shot exchanges (``Network.exchange``): a listener with an exchange
hook — every ``HttpServer`` and every sidecar route — is answered by
two ``ExchangeEnd`` objects instead of a ``Connection``.  A listener
without a hook is reached by a connection, so clearing every hook puts
the whole stack back on connections: the oracle.  Each case here runs a
socialnetwork recipe both ways on identical seeds and compares every
record (spans included), the reconstructed span trees, the metrics, what
the load generator saw, the check results, every timeout scheduled (when,
and for how long), the count of queue entries and ``sim.now`` after the
drain, on both scheduler lanes.
"""

import contextlib
import dataclasses

import pytest

from repro.apps import build_socialnetwork_app
from repro.campaign import plan_campaign
from repro.core import (
    AbortCalls,
    Crash,
    DelayCalls,
    Misconfiguration,
    NetworkPartition,
    Recipe,
    run_faulted,
)
from repro.loadgen import ClosedLoopLoad
from repro.microservice import PolicySpec
from repro.network import UniformLatency
from repro.network.transport import Listener
from repro.observability.trace import reconstruct

from tests.conftest import collector_off

#: Every recipe here runs on both scheduler lanes.
pytestmark = pytest.mark.usefixtures("deploys_on_lane")

#: One-way latencies as the socialnetwork app deploys them: the loopback
#: hop to a sidecar is 10 µs, a link between hosts 500 µs.
LOOPBACK, LINK = 1e-5, 5e-4


@pytest.fixture
def without_exchange_hooks(monkeypatch):
    """A context manager inside which no listener registers an exchange
    hook, so every exchange falls back to a connection."""

    @contextlib.contextmanager
    def cleared():
        with monkeypatch.context() as patch:
            patch.setattr(Listener, "on_exchange", lambda self, hook: None)
            yield

    return cleared


@pytest.fixture(scope="module")
def template():
    return plan_campaign(build_socialnetwork_app, seed=11).entries[0]


@dataclasses.dataclass
class Evidence:
    records: list
    traces: list
    metrics: dict
    samples: list
    checks: list
    timeline: list
    scheduled: int
    now: float
    hooked: set


def observe(planned, app=build_socialnetwork_app, deploy_kwargs=None, prepare=None):
    """Run ``planned`` to idle and keep everything it left behind — with
    no settle time and no drain slices, the clock stops at the last event
    the traffic made.  ``prepare(deployment)`` runs right after deploy.

    The cycle collector is off meanwhile: a flow stuck for good on a
    dropped message is a cycle, and collecting it runs its ``finally``
    blocks, which close its exchange — a timeout scheduled whenever the
    collector happens to come by, on either path."""
    with collector_off():
        return _observe(planned, app, deploy_kwargs, prepare)


def _observe(planned, app, deploy_kwargs, prepare):
    deployment = app().deploy(seed=planned.seed, **(deploy_kwargs or {}))
    sim = deployment.sim
    # When each timeout was scheduled and for how long: every link
    # latency, handshake, close notification, deadline and service time.
    timeline = []
    schedule = sim.timeout

    def timeout(delay, value=None):
        timeline.append((sim.now, delay))
        return schedule(delay, value)

    sim.timeout = timeout
    if prepare is not None:
        prepare(deployment)
    recipe = planned.recipe
    run = run_faulted(deployment, recipe.scenarios, recipe.checks, load=planned.load)
    records = deployment.store.all_records()
    request_ids = sorted({record.request_id for record in records if record.request_id})
    return Evidence(
        records=[record.to_dict() for record in records],
        traces=[reconstruct(deployment.store, rid).to_dict() for rid in request_ids],
        metrics=deployment.metrics_snapshot(),
        samples=[dataclasses.astuple(sample) for sample in run.load.samples],
        checks=[(c.name, c.passed, c.detail, c.data, c.inconclusive) for c in run.checks],
        timeline=timeline,
        # Queue entries numbered so far: every one on the heap lane, the
        # future ones on the default lane.
        scheduled=next(sim._counter),
        now=sim.now,
        hooked=hooked(deployment),
    )


def hooked(deployment) -> set:
    """Whether each bound listener has an exchange hook: ``{True}`` as
    shipped, ``{False}`` with the hooks cleared."""
    network = deployment.network
    return {
        listener._on_exchange is not None
        for host in network.hosts
        for listener in host._listeners.values()
    }


def assert_same(shipped: Evidence, oracle: Evidence) -> None:
    assert shipped.hooked == {True} and oracle.hooked == {False}
    for name in ("records", "traces", "samples", "timeline"):
        ours, theirs = getattr(shipped, name), getattr(oracle, name)
        assert len(ours) == len(theirs), name
        for position, (mine, reference) in enumerate(zip(ours, theirs)):
            assert mine == reference, f"{name}[{position}]"
    assert shipped.metrics == oracle.metrics
    assert shipped.checks == oracle.checks
    assert (shipped.scheduled, shipped.now) == (oracle.scheduled, oracle.now)


def both_ways(without_exchange_hooks, planned, **kwargs) -> Evidence:
    shipped = observe(planned, **kwargs)
    with without_exchange_hooks():
        oracle = observe(planned, **kwargs)
    assert_same(shipped, oracle)
    return shipped


def with_scenarios(template, name, *scenarios):
    return dataclasses.replace(
        template, recipe=Recipe(name, list(scenarios), template.recipe.checks)
    )


SCENARIOS = {
    # Scoped to a flow nobody sends: a recipe needs a scenario.
    "fault-free": Misconfiguration("post-storage", mode="endpoint", pattern="no-such-flow-*"),
    "delay": DelayCalls("compose-post", "post-storage", interval="20ms"),
    "abort-503": AbortCalls("compose-post", "post-storage", 503),
    "abort-reset": AbortCalls("compose-post", "post-storage", -1),
    "crash": Crash("post-storage"),
    "partition": NetworkPartition(["compose-post"], ["post-storage", "text-service"]),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recipe(without_exchange_hooks, template, name):
    evidence = both_ways(without_exchange_hooks, with_scenarios(template, name, SCENARIOS[name]))
    assert len(evidence.records) > 100
    if name != "fault-free":
        assert any(record["fault_applied"] for record in evidence.records)


def test_uniform_latency_on_links_and_loopback(without_exchange_hooks, template):
    """Every message draws its own latency: the same draws, in the same
    order, land on the same messages."""

    def jittery_loopback(deployment):
        deployment.network.loopback_latency = UniformLatency(LOOPBACK / 2, 2 * LOOPBACK)

    both_ways(
        without_exchange_hooks,
        with_scenarios(template, "jitter", SCENARIOS["delay"]),
        deploy_kwargs={"default_link_latency": UniformLatency(LINK / 2, 2 * LINK)},
        prepare=jittery_loopback,
    )


def test_a_partition_drops_messages_in_flight(without_exchange_hooks, template):
    """The hosts of post-storage and post-store are cut apart while a
    request between them is on the wire: it is dropped, post-storage's
    per-attempt timeout gives up on it, and the retries' exchanges time
    out at connect until the cut heals."""
    edge = ("post-storage", "post-store")
    planned = with_scenarios(template, "cut", SCENARIOS["fault-free"])
    first = next(r for r in observe(planned).records if (r["src"], r["dst"]) == edge)
    # The sidecar took that request at ``timestamp``, then handshook for
    # one round trip; 1.25 ms in, the request is halfway to post-store.
    cut_at = first["timestamp"] + 2.5 * LINK

    def cut_for_a_while(deployment):
        sim, network = deployment.sim, deployment.network
        (caller,) = deployment.instances_of(edge[0])
        (callee,) = deployment.instances_of(edge[1])

        def outage():
            yield sim.timeout(cut_at)
            network.partition(caller.host.name, callee.host.name)
            yield sim.timeout(0.4)
            network.heal_all()

        sim.process(outage())

    evidence = both_ways(without_exchange_hooks, planned, prepare=cut_for_a_while)
    on_the_edge = [r for r in evidence.records if (r["src"], r["dst"]) == edge]
    dropped = next(r for r in on_the_edge if r["request_id"] == first["request_id"])
    assert (dropped["status"], dropped["error"]) == (None, None)  # no reply, ever
    assert any(r["error"] == "timeout" for r in on_the_edge)


def with_timeouts(timeout):
    """The socialnetwork app with a per-attempt ``timeout`` and two
    retries on every edge."""
    app = build_socialnetwork_app()
    for definition in app.definitions.values():
        for dependency in definition.dependencies:
            definition.dependencies[dependency] = PolicySpec(timeout=timeout, max_retries=2)
    return app


#: Where a caller's deadline lands.  Behind a sidecar the caller waits on
#: the loopback leg (a 20 µs handshake, then the reply) while the sidecar
#: works the leg to the callee (a 1 ms handshake that starts 30 µs in,
#: then the reply), and gives up on the loopback leg only.
BEHIND_A_SIDECAR = {
    "loopback-handshake": LOOPBACK * 1.5,
    "loopback-reply-wait, far-handshake": LINK,
    "loopback-reply-wait, far-reply-wait": LINK * 3.6,
}


@pytest.mark.parametrize("where", sorted(BEHIND_A_SIDECAR))
def test_deadline_behind_a_sidecar(without_exchange_hooks, template, where):
    timeout = BEHIND_A_SIDECAR[where]
    evidence = both_ways(
        without_exchange_hooks,
        with_scenarios(template, "deadline", SCENARIOS["fault-free"]),
        app=lambda: with_timeouts(timeout),
    )
    # The entry service's calls gave up, so the load got errors back.
    assert any(r["src"] == "user" and r["status"] != 200 for r in evidence.records)


#: Without sidecars the caller's deadline lands on the 1 ms leg itself.
#: Nothing is recorded there, so what the load saw, the metrics and the
#: clock are the evidence.
DIRECT = {"handshake": LINK, "reply-wait": LINK * 3.6}


@pytest.mark.parametrize("where", sorted(DIRECT))
def test_deadline_on_a_direct_leg(without_exchange_hooks, where):
    def drive():
        timeout = DIRECT[where]
        deployment = with_timeouts(timeout).deploy(seed=11, sidecars=False)
        source = deployment.add_traffic_source("nginx")
        result = ClosedLoopLoad(num_requests=20, think_time=0.05).run(source)
        samples = [dataclasses.astuple(sample) for sample in result.samples]
        return samples, deployment.metrics_snapshot(), deployment.sim.now, hooked(deployment)

    *shipped, with_hooks = drive()
    with without_exchange_hooks():
        *oracle, without_hooks = drive()
    assert (with_hooks, without_hooks) == ({True}, {False})
    assert shipped == oracle
    samples = shipped[0]
    assert len(samples) == 20 and any(status != 200 for _, _, _, status, _ in samples)


def test_agent_stopped_mid_handshake(without_exchange_hooks, template):
    """nginx's sidecar goes away while nginx is handshaking with it: the
    handshake is refused, and nginx's later calls find the sidecar back."""
    planned = with_scenarios(template, "stopped", SCENARIOS["fault-free"])
    undisturbed = observe(planned)
    first = next(r for r in undisturbed.records if r["src"] == "nginx")
    # That request reached nginx's sidecar one loopback latency after the
    # 20 µs handshake it rode on completed: stop halfway through.
    stop_at = first["timestamp"] - LOOPBACK - LOOPBACK

    def stop_mid_handshake(deployment):
        sim = deployment.sim
        (agent,) = deployment.agents_of("nginx")

        def stop_and_restart():
            yield sim.timeout(stop_at)
            agent.stop()
            yield sim.timeout(0.01)
            agent.start()

        sim.process(stop_and_restart())

    evidence = both_ways(without_exchange_hooks, planned, prepare=stop_mid_handshake)
    # The refused call never reached the sidecar; the next ones did.
    counter = f'gremlin_requests_total{{dst="{first["dst"]}",src="nginx"}}'
    proxied = [run.metrics["counters"][counter] for run in (undisturbed, evidence)]
    assert proxied[1] == proxied[0] - 1 > 0
