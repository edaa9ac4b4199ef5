"""A stored record's outcome is written once, in one step, from pending to final.

A standing check (``Gremlin.check``) re-reads only the requests that
were pending when it last read a scope, so it relies on this: the agent
writes a record's outcome fields (``status``, ``error``, ``latency``,
``injected_delay``, ``fault_applied``, ``gremlin_generated``) either
before the record is stored, or after it in one synchronous step — no
kernel event in between — that takes it from pending (no status, no
error) to final, and never again; identity fields are never written
after the store has it.  Pinned over real runs of both DeathStarBench-
class apps with one scenario of every kind, shadow mirroring on every
edge, and a stopped shadow pool.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps import build_hotelreservation_app, build_socialnetwork_app
from repro.core import Gremlin
from repro.core.scenarios import SCENARIO_KINDS
from repro.loadgen import ClosedLoopLoad
from repro.logstore import ObservationRecord
from repro.microservice import Application
from repro.tracing import RequestIdGenerator

OUTCOME_FIELDS = {
    "status", "error", "latency", "injected_delay", "fault_applied", "gremlin_generated",
}


def _with_shadow_pools(app: Application) -> Application:
    shadowed = Application(app.name)
    for definition in app.definitions.values():
        shadowed.add_service(dataclasses.replace(definition, canary_instances=1))
    return shadowed


def _scenario(kind, entry: str, target: str):
    """One scenario of ``kind`` on the edge ``entry -> target``."""
    given = {
        "src": entry, "dst": target, "service": target,
        "service1": entry, "service2": target,
        "group_a": [entry], "group_b": [target],
        "interval": 0.2, "pattern": "a", "replace_bytes": "b",
    }
    required = {
        field.name: given[field.name]
        for field in dataclasses.fields(kind)
        if field.default is dataclasses.MISSING
    }
    return kind(**required)


@pytest.mark.parametrize(
    "build", [build_socialnetwork_app, build_hotelreservation_app], ids=lambda b: b.__name__
)
def test_outcomes_are_written_once_from_pending_to_final(build, monkeypatch):
    deployment = _with_shadow_pools(build()).deploy(seed=11)
    graph = deployment.graph
    entry = graph.entry_services()[0]
    target = graph.dependencies(entry)[0]
    source = deployment.add_traffic_source(entry)
    for agent in deployment.agents:
        for dst in graph.dependencies(agent.owner_service) or [entry]:
            agent.add_mirror(dst)
    gremlin = Gremlin(deployment)
    sim, store = deployment.sim, deployment.store

    step = [0]
    stored: dict[int, tuple[ObservationRecord, bool]] = {}
    writes: dict[int, list[tuple[str, int]]] = {}
    append = store.append

    def storing(record):
        pending = record.status is None and record.error is None
        stored[id(record)] = record, pending
        append(record)

    def spy(record, name, value):
        object.__setattr__(record, name, value)
        if id(record) in stored:
            writes.setdefault(id(record), []).append((name, step[0]))

    monkeypatch.setattr(store, "append", storing)
    monkeypatch.setattr(ObservationRecord, "__setattr__", spy)

    def drive(*loads):
        for index, load in enumerate(loads):
            sim.process(load.driver(source), name=f"load/{index}")
        while sim.peek() != float("inf"):
            sim.step()
            step[0] += 1

    def users():
        return ClosedLoopLoad(num_requests=3, ids=RequestIdGenerator(prefix="user-"))

    for kind in SCENARIO_KINDS.values():
        gremlin.inject(_scenario(kind, entry, target))
        drive(ClosedLoopLoad(num_requests=3), users())
        gremlin.clear()
    for shadow in deployment.canaries_of(target):
        shadow.stop()
    drive(users())

    later = 0
    for key, fields in writes.items():
        record, pending = stored[key]
        assert {name for name, _ in fields} <= OUTCOME_FIELDS, record
        assert len({when for _, when in fields}) == 1, record  # one step
        assert pending, record  # a final record is never written again
        assert record.status is not None or record.error is not None, record
        later += 1
    records = [record for record, _ in stored.values()]
    requests = [record for record in records if record.is_request]
    assert [r for r in requests if r.status is None and r.error is None] == []
    # Not vacuous: outcomes written after storing, mirrored copies that
    # reached their shadow and ones that did not, faults of every kind.
    assert later > 100
    shadows = [r for r in requests if r.request_id and r.request_id.startswith("shadow-")]
    assert {r.error for r in shadows} >= {None, "refused"}
    assert any(r.fault_applied for r in records)
