"""Unit tests for the log-shipping pipeline."""

import pytest

from repro.logstore import EventStore, LogPipeline

from tests.conftest import run_to_completion
from tests.logstore.test_record import make_record


class TestImmediatePipeline:
    def test_zero_delay_lands_immediately(self, sim):
        store = EventStore()
        pipeline = LogPipeline(sim, store)
        pipeline.emit(make_record())
        assert len(store) == 1
        assert pipeline.in_flight == 0

    def test_drained_succeeds_immediately_when_empty(self, sim):
        pipeline = LogPipeline(sim, EventStore())
        assert pipeline.drained().triggered


class TestDelayedPipeline:
    def test_records_land_after_shipping_delay(self, sim):
        store = EventStore()
        pipeline = LogPipeline(sim, store, shipping_delay=0.5)
        pipeline.emit(make_record())
        assert len(store) == 0
        assert pipeline.in_flight == 1
        sim.run()
        assert len(store) == 1
        assert sim.now == 0.5

    def test_drained_event_waits_for_landing(self, sim):
        store = EventStore()
        pipeline = LogPipeline(sim, store, shipping_delay=1.0)

        def scenario(sim):
            pipeline.emit(make_record())
            pipeline.emit(make_record(timestamp=2.0))
            yield pipeline.drained()
            return (sim.now, len(store))

        assert run_to_completion(sim, scenario(sim)) == (1.0, 2)

    def test_emitted_counter(self, sim):
        pipeline = LogPipeline(sim, EventStore(), shipping_delay=0.1)
        for _ in range(3):
            pipeline.emit(make_record())
        assert pipeline.emitted == 3

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            LogPipeline(sim, EventStore(), shipping_delay=-1)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, sim, delay):
        # NaN would fail only at the first emit, inside a proxied call;
        # inf would land records at now == inf and drag the clock there.
        with pytest.raises(ValueError, match="finite"):
            LogPipeline(sim, EventStore(), shipping_delay=delay)
