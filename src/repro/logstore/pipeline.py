"""Log shipping pipeline (the logstash stand-in).

Agents emit observation records into a :class:`LogPipeline`, which
delivers them to the :class:`~repro.logstore.store.EventStore` — either
immediately or after a configurable shipping delay, modelling the
collection latency a real logstash -> Elasticsearch hop adds.  The
Assertion Checker can wait for the pipeline to drain before running
queries, mirroring how the paper's checker runs *after* the failure
window so logs have landed.

Delivery into the store can additionally be *batched*
(``flush_size > 1``): records accumulate in a buffer and land through
one :meth:`EventStore.extend` call per batch, amortizing the store's
index maintenance the way a bulk-indexing logstash output amortizes
Elasticsearch writes.  :meth:`drained` flushes the buffer, so the
checker's drain-then-query discipline always sees every record.
"""

from __future__ import annotations

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
        the store.  0 (default) makes records visible immediately,
        which keeps unit tests simple; benchmarks that model pipeline
        lag set it explicitly.
    loss_probability:
        Fraction of records dropped in transit (a lossy UDP shipper or
        an overloaded collector).  Drawn from the simulator's seeded
        RNG, so lossy runs are still reproducible.  Robustness tests
        use this to verify that missing observations make checks
        *inconclusive* rather than silently wrong.
    flush_size:
        Records buffered before one batched store write.  1 (default)
        delivers each record the moment it arrives — the seed
        behaviour every existing test relies on.  Larger sizes trade
        visibility lag inside a batch for amortized index maintenance;
        call :meth:`flush` (or :meth:`drained`, which flushes) before
        querying.
    """

    def __init__(
        self,
        sim: Simulator,
        store: EventStore,
        shipping_delay: float = 0.0,
        loss_probability: float = 0.0,
        flush_size: int = 1,
    ) -> None:
        if shipping_delay < 0:
            raise ValueError(f"shipping_delay must be >= 0, got {shipping_delay}")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        if flush_size < 1:
            raise ValueError(f"flush_size must be >= 1, got {flush_size}")
        self.sim = sim
        self.store = store
        self.shipping_delay = shipping_delay
        self.loss_probability = loss_probability
        self.flush_size = flush_size
        self._rng = sim.rng("logpipeline.loss")
        self._buffer: list[ObservationRecord] = []
        self._shipping = 0
        self._emitted = 0
        self._lost = 0
        self._flushes = 0
        self._drain_waiters: list[SimEvent] = []

    @property
    def emitted(self) -> int:
        """Total records emitted into the pipeline so far."""
        return self._emitted

    @property
    def in_flight(self) -> int:
        """Records emitted but not yet visible in the store.

        Counts both records still traversing the shipping delay and
        records sitting in an unflushed batch buffer.
        """
        return self._shipping + len(self._buffer)

    @property
    def lost(self) -> int:
        """Records dropped in transit so far."""
        return self._lost

    @property
    def flushes(self) -> int:
        """Batched store writes performed so far (0 when unbatched)."""
        return self._flushes

    def emit(self, record: ObservationRecord) -> None:
        """Accept one record from an agent."""
        self._emitted += 1
        if self.loss_probability > 0.0 and self._rng.random() < self.loss_probability:
            self._lost += 1
            return
        if self.shipping_delay == 0.0:
            self._deliver(record)
            return
        self._shipping += 1

        def _land(_: SimEvent) -> None:
            self._shipping -= 1
            self._deliver(record)
            if self._shipping == 0:
                self.flush()
                waiters, self._drain_waiters = self._drain_waiters, []
                for waiter in waiters:
                    waiter.succeed()

        self.sim.timeout(self.shipping_delay).callbacks.append(_land)

    def flush(self) -> int:
        """Write any buffered batch to the store; returns records landed."""
        if not self._buffer:
            return 0
        batch, self._buffer = self._buffer, []
        self.store.extend(batch)
        self._flushes += 1
        return len(batch)

    def drained(self) -> SimEvent:
        """Event that succeeds once no records are in flight.

        Flushes the batch buffer, so by the time the event fires every
        emitted-and-not-lost record is queryable.  Succeeds immediately
        if the pipeline is already empty.
        """
        ev = self.sim.event()
        if self._shipping == 0:
            self.flush()
            ev.succeed()
        else:
            self._drain_waiters.append(ev)
        return ev

    # -- internals ------------------------------------------------------------

    def _deliver(self, record: ObservationRecord) -> None:
        if self.flush_size == 1:
            self.store.append(record)
            return
        self._buffer.append(record)
        if len(self._buffer) >= self.flush_size:
            self.flush()

    def __repr__(self) -> str:
        return (
            f"<LogPipeline emitted={self._emitted} in_flight={self.in_flight}"
            f" delay={self.shipping_delay} flush_size={self.flush_size}>"
        )
