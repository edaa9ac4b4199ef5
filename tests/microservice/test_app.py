"""Tests for Application/Deployment assembly and the service runtime."""

import pytest

from repro.errors import RecipeError
from repro.http import HttpRequest, HttpResponse
from repro.loadgen import ClosedLoopLoad
from repro.microservice import (
    Application,
    PolicySpec,
    ServiceDefinition,
    fanout_handler,
    static_handler,
)
from repro.simulation import Simulator

from tests.conftest import run_to_completion


def build_chain_app():
    app = Application("chain")
    app.add_service(
        ServiceDefinition(
            "front",
            handler=fanout_handler(["mid"]),
            dependencies={"mid": PolicySpec(timeout=2.0)},
        )
    )
    app.add_service(
        ServiceDefinition(
            "mid",
            handler=fanout_handler(["back"]),
            dependencies={"back": PolicySpec(timeout=2.0)},
        )
    )
    app.add_service(ServiceDefinition("back"))
    return app


class TestApplicationDefinition:
    def test_duplicate_service_rejected(self):
        app = Application("x")
        app.add_service(ServiceDefinition("a"))
        with pytest.raises(RecipeError):
            app.add_service(ServiceDefinition("a"))

    def test_undefined_dependency_rejected_at_deploy(self):
        app = Application("x")
        app.add_service(
            ServiceDefinition("a", dependencies={"ghost": PolicySpec.naive()})
        )
        with pytest.raises(RecipeError, match="ghost"):
            app.deploy()

    def test_logical_graph_derived(self):
        graph = build_chain_app().logical_graph()
        assert graph.dependents("back") == ["mid"]
        assert graph.dependencies("front") == ["mid"]

    def test_definition_validation(self):
        with pytest.raises(ValueError):
            ServiceDefinition("")
        with pytest.raises(ValueError):
            ServiceDefinition("a", instances=0)
        with pytest.raises(ValueError):
            ServiceDefinition("a", worker_pool=0)


class TestDeployment:
    def test_instances_and_agents_created(self):
        app = build_chain_app()
        deployment = app.deploy(seed=3)
        assert len(deployment.instances_of("front")) == 1
        # front and mid have dependencies -> sidecars; back does not.
        assert len(deployment.agents) == 2
        assert deployment.agents_of("back") == []

    def test_replicas_get_distinct_hosts(self):
        app = Application("x")
        app.add_service(ServiceDefinition("a", instances=3))
        deployment = app.deploy()
        hosts = {instance.host.name for instance in deployment.instances_of("a")}
        assert len(hosts) == 3

    def test_registry_contains_all_instances(self):
        app = Application("x")
        app.add_service(ServiceDefinition("a", instances=2))
        deployment = app.deploy()
        assert len(deployment.registry.instances("a")) == 2

    def test_unknown_service_lookup_raises(self):
        deployment = build_chain_app().deploy()
        with pytest.raises(RecipeError):
            deployment.instances_of("ghost")
        with pytest.raises(RecipeError):
            deployment.agents_of("ghost")

    def test_heap_lane_is_a_simulator_not_a_deploy_knob(self):
        app = build_chain_app()
        with pytest.raises(TypeError):
            app.deploy(seed=3, scheduler="heap")
        heap = Simulator(seed=3, scheduler="heap")
        assert app.deploy(sim=heap).sim.scheduler == "heap"

    def test_end_to_end_chain_call(self):
        deployment = build_chain_app().deploy(seed=1)
        source = deployment.add_traffic_source("front")
        result = ClosedLoopLoad(num_requests=3).run(source)
        assert result.success_rate == 1.0
        # Every hop was observed by a sidecar.
        assert len(deployment.store) > 0
        front_mid = [
            r
            for r in deployment.store.all_records()
            if r.src == "front" and r.dst == "mid"
        ]
        assert len(front_mid) == 6  # 3 requests + 3 replies

    def test_round_robin_across_replicas(self):
        app = Application("x")
        app.add_service(
            ServiceDefinition(
                "front",
                handler=fanout_handler(["back"]),
                dependencies={"back": PolicySpec.naive()},
            )
        )
        app.add_service(ServiceDefinition("back", instances=2))
        deployment = app.deploy()
        source = deployment.add_traffic_source("front")
        ClosedLoopLoad(num_requests=4).run(source)
        served = [
            instance.server.requests_served
            for instance in deployment.instances_of("back")
        ]
        assert served == [2, 2]

    def test_traffic_source_in_graph_and_agents(self):
        deployment = build_chain_app().deploy()
        deployment.add_traffic_source("front", name="user")
        assert "user" in deployment.graph
        assert len(deployment.agents_of("user")) == 1

    def test_duplicate_traffic_source_rejected(self):
        deployment = build_chain_app().deploy()
        deployment.add_traffic_source("front")
        with pytest.raises(RecipeError):
            deployment.add_traffic_source("front")

    def test_traffic_source_unknown_target_rejected(self):
        deployment = build_chain_app().deploy()
        with pytest.raises(RecipeError):
            deployment.add_traffic_source("ghost")


class TestWorkerPool:
    def test_worker_pool_queues_excess_requests(self):
        app = Application("x")
        app.add_service(
            ServiceDefinition("slow", service_time=1.0, worker_pool=1)
        )
        deployment = app.deploy()
        source = deployment.add_traffic_source("slow")
        sim = deployment.sim
        finish_times = []

        def one(sim):
            request = HttpRequest("GET", "/x")
            request.request_id = "test-1"
            yield from source.client.call(request)
            finish_times.append(sim.now)

        sim.process(one(sim))
        sim.process(one(sim))
        sim.run()
        # Second request waited for the single worker: ~2s not ~1s.
        assert sorted(round(t) for t in finish_times) == [1, 2]
        assert deployment.instances_of("slow")[0].queued_requests == 1


class TestServiceContext:
    def test_undeclared_dependency_raises(self):
        app = Application("x")

        def handler(ctx, request):
            yield from ctx.work()
            yield from ctx.call("ghost", HttpRequest("GET", "/x"))
            return HttpResponse(200)

        app.add_service(ServiceDefinition("a", handler=handler))
        deployment = app.deploy()
        source = deployment.add_traffic_source("a")
        result = ClosedLoopLoad(num_requests=1).run(source)
        # KeyError inside the handler surfaces as a 500 to the caller.
        assert result.statuses == [500]

    def test_state_shared_across_requests(self):
        app = Application("x")

        def handler(ctx, request):
            yield from ctx.work()
            count = ctx.state.get("hits", 0) + 1
            ctx.state["hits"] = count
            return HttpResponse(200, body=str(count).encode())

        app.add_service(ServiceDefinition("counter", handler=handler))
        deployment = app.deploy()
        source = deployment.add_traffic_source("counter")
        load = ClosedLoopLoad(num_requests=3)
        load.run(source)
        assert [s.status for s in load.result.samples] == [200, 200, 200]
        instance = deployment.instances_of("counter")[0]
        assert instance.ctx.state["hits"] == 3

    def test_request_id_propagates_through_chain(self):
        deployment = build_chain_app().deploy()
        source = deployment.add_traffic_source("front")
        sim = deployment.sim

        def one(sim):
            request = HttpRequest("GET", "/x")
            request.request_id = "test-777"
            yield from source.client.call(request)

        run_to_completion(sim, one(sim))
        mid_back = [
            r
            for r in deployment.store.all_records()
            if r.src == "mid" and r.dst == "back"
        ]
        assert mid_back
        assert all(r.request_id == "test-777" for r in mid_back)
