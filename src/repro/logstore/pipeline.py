"""Log shipping pipeline (the logstash stand-in).

Agents emit observation records into a :class:`LogPipeline`, which
delivers them to the :class:`~repro.logstore.store.EventStore` — either
immediately or after a configurable shipping delay, modelling the
collection latency a real logstash -> Elasticsearch hop adds.  The
Assertion Checker can wait for the pipeline to drain before running
queries, mirroring how the paper's checker runs *after* the failure
window so logs have landed.  Each record lands through one
:meth:`EventStore.append`.
"""

from __future__ import annotations

import math

from repro.logstore.record import ObservationRecord
from repro.logstore.store import EventStore
from repro.simulation.events import SimEvent
from repro.simulation.kernel import Simulator

__all__ = ["LogPipeline"]


class LogPipeline:
    """Ships records from agents to the central store.

    Parameters
    ----------
    shipping_delay:
        Virtual seconds between emission at the agent and visibility in
        the store; finite and ``>= 0``.  0 (default) makes records
        visible immediately, which keeps unit tests simple; benchmarks
        that model pipeline lag set it explicitly.
    loss_probability:
        Fraction of records dropped in transit (a lossy UDP shipper or
        an overloaded collector).  Drawn from the simulator's seeded
        RNG, so lossy runs are still reproducible.  Robustness tests
        use this to verify that missing observations make checks
        *inconclusive* rather than silently wrong.
    """

    def __init__(
        self,
        sim: Simulator,
        store: EventStore,
        shipping_delay: float = 0.0,
        loss_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= shipping_delay < math.inf:
            raise ValueError(
                f"shipping_delay must be finite and >= 0, got {shipping_delay}"
            )
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        self.sim = sim
        self.store = store
        self.shipping_delay = shipping_delay
        self.loss_probability = loss_probability
        self._rng = sim.rng("logpipeline.loss")
        self._shipping = 0
        self._emitted = 0
        self._lost = 0
        self._drain_waiters: list[SimEvent] = []

    @property
    def emitted(self) -> int:
        """Total records emitted into the pipeline so far."""
        return self._emitted

    @property
    def in_flight(self) -> int:
        """Records emitted but not yet visible in the store."""
        return self._shipping

    @property
    def lost(self) -> int:
        """Records dropped in transit so far."""
        return self._lost

    def emit(self, record: ObservationRecord) -> None:
        """Accept one record from an agent."""
        self._emitted += 1
        if self.loss_probability > 0.0 and self._rng.random() < self.loss_probability:
            self._lost += 1
            return
        if self.shipping_delay == 0.0:
            self.store.append(record)
            return
        self._shipping += 1

        def _land(_: SimEvent) -> None:
            self._shipping -= 1
            self.store.append(record)
            if self._shipping == 0:
                waiters, self._drain_waiters = self._drain_waiters, []
                for waiter in waiters:
                    waiter.succeed()

        self.sim.timeout(self.shipping_delay).callbacks.append(_land)

    def drained(self) -> SimEvent:
        """Event that succeeds once no records are in flight.

        By the time the event fires every emitted-and-not-lost record is
        queryable.  Succeeds immediately if the pipeline is already
        empty.
        """
        ev = self.sim.event()
        if self._shipping == 0:
            ev.succeed()
        else:
            self._drain_waiters.append(ev)
        return ev

    def __repr__(self) -> str:
        return (
            f"<LogPipeline emitted={self._emitted} in_flight={self.in_flight}"
            f" delay={self.shipping_delay}>"
        )
