"""A dropped deployment gives its records back at once, and loses none silently.

A deployment's hosts, listeners, servers and agents reference one another,
so that skeleton waits for the cycle collector — but the record store they
reach through the log pipeline grows with traffic (≈20k records in the
``chained_session`` benchmark) and must not wait with them.  Nothing refers
back to the ``Deployment``, so it dies by reference count, and when it does
the pipeline is unplugged from the store (docs/INTERNALS.md "Object
lifetimes").  All of this is checked with the collector switched off.
"""

import gc

import pytest

from repro.apps import build_socialnetwork_app
from repro.core.gremlin import Gremlin
from repro.errors import SimulationError
from repro.loadgen import ClosedLoopLoad
from repro.logstore.record import ObservationRecord

from tests.conftest import collector_off


@pytest.fixture(autouse=True)
def no_collector(deploys_on_lane):
    """Every test runs with the collector off, on both scheduler lanes."""
    with collector_off():
        yield


def live_records() -> int:
    return sum(isinstance(obj, ObservationRecord) for obj in gc.get_objects())


def driven_deployment(requests=5):
    deployment = build_socialnetwork_app().deploy(seed=3)
    source = deployment.add_traffic_source("nginx")
    result = ClosedLoopLoad(num_requests=requests).run(source)
    assert result.success_rate == 1.0
    return deployment, source


def test_dropping_the_deployment_frees_every_record_without_a_collection():
    before = live_records()
    deployment, source = driven_deployment()
    gremlin = Gremlin(deployment)
    stored = len(deployment.store)
    assert stored > 100 and live_records() == before + stored

    del deployment, source, gremlin

    assert live_records() == before


def test_a_store_somebody_holds_is_left_alone():
    before = live_records()
    deployment, source = driven_deployment()
    store = deployment.store
    stored = len(store)
    expected = [record.to_dict() for record in store.all_records()]

    del deployment, source

    assert len(store) == stored
    assert [record.to_dict() for record in store.all_records()] == expected
    del store, expected
    assert live_records() == before


def test_traffic_driven_after_the_drop_fails_loudly():
    """A source and its simulator can outlive the deployment; records they
    would cause have no store to land in, so the run fails instead of
    logging into the void."""
    deployment, source = driven_deployment()
    sim = source.sim
    assert deployment.traffic_source("user") is source
    del deployment

    with pytest.raises(SimulationError, match="deployment 'socialnetwork' was discarded"):
        ClosedLoopLoad(num_requests=1).run(source)
    assert sim.unhandled_failures


def test_the_source_does_not_keep_the_deployment_alive():
    deployment, source = driven_deployment(requests=1)
    pipeline = deployment.pipeline
    store = deployment.store
    assert pipeline.store is store
    del deployment
    assert pipeline.store is not store
    assert source.sim is pipeline.sim
