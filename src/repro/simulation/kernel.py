"""The discrete-event simulator: virtual clock, event scheduler, run loop.

Why a simulator at all?  The paper staged failures against live Docker
deployments and measured multi-second behaviours (e.g. a 4 s injected
delay, a one-hour ``Hang``).  Re-running those on a laptop in wall-clock
time would be slow and non-deterministic.  Everything that is *timing
logic* — injected delays, client timeouts, retry backoff, breaker
recovery windows — runs here on a virtual clock instead, so a scenario
spanning hours of virtual time executes in milliseconds and every run
is bit-for-bit reproducible from its seed.

Scheduler
---------
Two interchangeable schedulers implement the same total order
``(timestamp, schedule sequence)``:

* ``"default"`` — a binary heap of ``(when, seq, event)`` for the
  future plus a FIFO (``_due``) for the present.  The heap holds only
  timestamps strictly after ``now``; ``_due`` holds only events at
  ``now``, in schedule order.  Advancing the clock pops the earliest
  heap entry and moves every entry with that same timestamp into
  ``_due`` before any callback runs, so anything scheduled at ``now``
  afterwards — ``succeed``/``fail``, a timeout whose delay vanishes in
  ``now + delay``, ``_schedule_at(now)`` — appends behind it without
  touching the heap.  Request traffic has ≈1.7 events per distinct
  timestamp, so this is one heap push per future event and nothing
  else.

* ``"heap"`` — the single binary heap the kernel started with, kept as
  the reference lane: everything, present included, goes through it.
  The scheduler-equivalence suite (tests/simulation/
  test_scheduler_equivalence.py) pins both to bit-for-bit identical
  event order, RNG draws, and outcomes.

Both break same-timestamp ties by schedule order: the heap lane stores
an explicit counter; the default lane numbers heap entries the same way
and keeps the present in a FIFO, whose entries all follow the heap
entries that were moved into it (they were scheduled after the clock
reached their timestamp).

The two wall-clock benchmarks of the paper (orchestration time, Fig 7;
rule-matching overhead, Fig 8) do *not* use virtual time: they measure
the real execution cost of our control-plane and matcher code.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random as _random
import typing as _t
from collections import deque

from repro.errors import SimulationError
from repro.simulation.events import PENDING as _PENDING
from repro.simulation.events import AllOf, AnyOf, SimEvent, Timeout
from repro.simulation.process import Process

__all__ = ["SCHEDULERS", "DEFAULT_SCHEDULER", "Simulator"]

#: The interchangeable scheduler implementations.
SCHEDULERS = ("default", "heap")

#: Process-wide default, overridable for CI equivalence smokes without
#: threading a parameter through every deployment factory.
DEFAULT_SCHEDULER = os.environ.get("REPRO_SCHEDULER", "default")

_new = object.__new__


def _refuse(when: float, now: float) -> _t.NoReturn:
    """The error for a schedule time that is not ``>= now``."""
    if when != when:
        raise ValueError(f"cannot schedule an event at {when} (now={now})")
    raise SimulationError(f"cannot schedule event in the past ({when} < now={now})")


class Simulator:
    """A deterministic discrete-event simulation environment.

    Parameters
    ----------
    seed:
        Master seed.  Each named RNG stream obtained via :meth:`rng`
        derives deterministically from this seed and its name, so adding
        a new randomized component does not perturb existing streams.
    strict:
        When True (default), :meth:`run` raises at the end if any event
        failed and nobody consumed the failure — the simulation
        equivalent of "errors should never pass silently".
    scheduler:
        ``"default"`` or ``"heap"``; see the module docstring.  Outcomes
        are bit-for-bit identical either way.

    Example
    -------
    ::

        sim = Simulator(seed=42)

        def hello(sim):
            yield sim.timeout(3.0)
            return "done at %.1f" % sim.now

        proc = sim.process(hello(sim))
        sim.run()
        assert proc.value == "done at 3.0"
    """

    _lane = "default"

    def __new__(
        cls,
        seed: int = 0,
        strict: bool = True,
        scheduler: _t.Optional[str] = None,
    ) -> "Simulator":
        chosen = DEFAULT_SCHEDULER if scheduler is None else scheduler
        if chosen not in SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {chosen!r}; expected one of {SCHEDULERS}"
            )
        if cls is Simulator and chosen == "heap":
            return super().__new__(_HeapSimulator)
        return super().__new__(cls)

    def __init__(
        self,
        seed: int = 0,
        strict: bool = True,
        scheduler: _t.Optional[str] = None,
    ) -> None:
        self._now = 0.0
        self._seed = seed
        self._strict = strict
        self._counter = itertools.count()
        self._rngs: dict[str, _random.Random] = {}
        #: Failures that no process consumed; populated as they are seen.
        self.unhandled_failures: list[SimEvent] = []
        #: The future: ``(when, seq, event)`` with ``when > now``.
        self._heap: list[tuple[float, int, SimEvent]] = []
        #: The present: events at ``now`` in schedule order.  Events test
        #: it for None to pick their lane, so the heap lane sets None.
        self._due: _t.Optional[deque[SimEvent]] = deque()

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time (arbitrary units; we use seconds)."""
        return self._now

    @property
    def seed(self) -> int:
        """The master seed this simulator was created with."""
        return self._seed

    @property
    def scheduler(self) -> str:
        """Which scheduler implementation this simulator runs on."""
        return self._lane

    # -- randomness ------------------------------------------------------------

    def rng(self, stream: str) -> _random.Random:
        """Return the named deterministic RNG stream.

        Separate components (e.g. each fault rule's probability draw,
        each latency model) should use separate stream names so their
        draws do not interleave and perturb one another across runs.
        """
        if stream not in self._rngs:
            self._rngs[stream] = _random.Random(f"{self._seed}/{stream}")
        return self._rngs[stream]

    # -- event construction ----------------------------------------------------
    #
    # A proxied call builds ≈17 kernel objects, so ``event()`` and
    # ``timeout()`` set the slots themselves: one frame each instead of a
    # constructor frame under the method frame.

    def event(self) -> SimEvent:
        """Create a fresh, untriggered event bound to this simulator."""
        ev = _new(SimEvent)
        ev.sim = self
        ev.callbacks = []
        ev._value = _PENDING
        ev._ok = None
        ev.defused = False
        return ev

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """Create an event that succeeds ``delay`` time units from now."""
        if not delay >= 0:  # also refuses NaN
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        ev = _new(Timeout)
        ev.sim = self
        ev.callbacks = []
        ev._ok = True
        ev._value = value
        ev.defused = False
        ev.delay = delay
        now = self._now
        when = now + delay
        if when > now:
            heapq.heappush(self._heap, (when, next(self._counter), ev))
        else:
            self._due.append(ev)
        return ev

    def process(self, generator: _t.Generator, name: str | None = None) -> Process:
        """Start a new process from ``generator``; returns the Process."""
        return Process(self, generator, name=name)

    def any_of(self, events: _t.Sequence[SimEvent]) -> AnyOf:
        """Condition that triggers when any of ``events`` succeeds."""
        return AnyOf(self, events)

    def all_of(self, events: _t.Sequence[SimEvent]) -> AllOf:
        """Condition that triggers when all of ``events`` succeed."""
        return AllOf(self, events)

    # -- scheduling (kernel internal, used by events) -------------------------

    def _schedule_at(self, when: float, event: SimEvent) -> None:
        now = self._now
        if not when >= now:
            _refuse(when, now)
        if when > now:
            heapq.heappush(self._heap, (when, next(self._counter), event))
        else:
            self._due.append(event)

    # -- run loop -----------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event in the queue.

        Semantically identical to one iteration of :meth:`run`'s loop
        (the cross-check suite in tests/simulation/test_step_run_parity
        pins this).
        """
        due = self._due
        if due:
            event = due.popleft()
        else:
            heap = self._heap
            if not heap:
                raise IndexError("step() from an empty schedule")
            when, _seq, event = heapq.heappop(heap)
            self._now = when
            while heap and heap[0][0] == when:
                due.append(heapq.heappop(heap)[2])
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            self.unhandled_failures.append(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._due:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: float | None = None) -> None:
        """Run until the event queue drains or virtual time ``until``.

        With ``until`` given, the clock is advanced exactly to ``until``
        even if the queue drains earlier, so back-to-back ``run`` calls
        compose predictably.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        limit = float("inf") if until is None else until
        # This loop dominates every simulation's profile, so its state is
        # bound to locals; any semantic change here must land in ``step``
        # too — the two are one algorithm in two shapes.  Nothing in
        # ``_due`` can be past ``limit``: it holds ``now``.
        heap = self._heap
        due = self._due
        popleft = due.popleft
        append = due.append
        pop = heapq.heappop
        unhandled = self.unhandled_failures
        while True:
            if due:
                event = popleft()
            elif heap and heap[0][0] <= limit:
                when, _seq, event = pop(heap)
                self._now = when
                while heap and heap[0][0] == when:
                    append(pop(heap)[2])
            else:
                break
            callbacks = event.callbacks
            event.callbacks = None
            assert callbacks is not None, "event processed twice"
            # The detached list cannot grow mid-iteration (add_callback on
            # a processed event invokes immediately), so the common
            # single-waiter case skips the iterator.
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event.defused:
                unhandled.append(event)
        if until is not None:
            self._now = max(self._now, until)
        if self._strict and self.unhandled_failures:
            failures = ", ".join(repr(ev.value) for ev in self.unhandled_failures[:5])
            raise SimulationError(
                f"{len(self.unhandled_failures)} unhandled event failure(s): {failures}"
            )

    def _pending(self) -> int:
        return len(self._due) + len(self._heap)

    def __repr__(self) -> str:
        return f"<Simulator now={self._now:.6f} pending={self._pending()}>"


class _HeapSimulator(Simulator):
    """The original scheduler: one binary heap ordered by ``(timestamp,
    sequence)``, the present included.

    Kept as the reference implementation the equivalence suite compares
    the default lane against; request it with
    ``Simulator(scheduler="heap")`` or ``REPRO_SCHEDULER=heap``.  It
    builds every timeout through its constructor — this lane optimizes
    for being obviously correct.
    """

    _lane = "heap"

    def __init__(
        self,
        seed: int = 0,
        strict: bool = True,
        scheduler: _t.Optional[str] = None,
    ) -> None:
        super().__init__(seed, strict, scheduler="heap")
        self._due = None

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def _schedule_at(self, when: float, event: SimEvent) -> None:
        if not when >= self._now:
            _refuse(when, self._now)
        heapq.heappush(self._heap, (when, next(self._counter), event))

    def step(self) -> None:
        when, _seq, event = heapq.heappop(self._heap)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            self.unhandled_failures.append(event)

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: float | None = None) -> None:
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        heap = self._heap
        pop = heapq.heappop
        unhandled = self.unhandled_failures
        limit = float("inf") if until is None else until
        while heap:
            if heap[0][0] > limit:
                break
            when, _seq, event = pop(heap)
            self._now = when
            callbacks = event.callbacks
            event.callbacks = None
            assert callbacks is not None, "event processed twice"
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused:
                unhandled.append(event)
        if until is not None:
            self._now = max(self._now, until)
        if self._strict and self.unhandled_failures:
            failures = ", ".join(repr(ev.value) for ev in self.unhandled_failures[:5])
            raise SimulationError(
                f"{len(self.unhandled_failures)} unhandled event failure(s): {failures}"
            )

    def _pending(self) -> int:
        return len(self._heap)
