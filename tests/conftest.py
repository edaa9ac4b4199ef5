"""Shared pytest fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import typing as _t

import pytest

from repro.simulation import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


def run_to_completion(sim: Simulator, generator: _t.Generator, until: float | None = None):
    """Run ``generator`` as a process to completion; return its value.

    Raises the process's failure exception, so tests read naturally::

        response = run_to_completion(sim, client.get(addr, "/x"))
    """
    process = sim.process(generator)
    # The helper consumes the outcome itself, so a failure must not
    # also trip the simulator's strict unhandled-failure accounting.
    process.defused = True
    sim.run(until=until)
    if process.is_alive:
        raise AssertionError(f"process still alive at t={sim.now}")
    if not process.ok:
        raise process.value
    return process.value


class EventCount:
    """Events a heap-lane simulator has queued so far.

    The heap lane numbers every queue entry (``next(sim._counter)``: one
    increment per scheduled event, the method of docs/INTERNALS.md
    "Per-hop ledger"); reading the counter consumes a number too, which
    this corrects for, so readings can be subtracted from one another.
    """

    def __init__(self, sim: Simulator) -> None:
        assert sim.scheduler == "heap", "only the heap lane numbers every event"
        self._counter = sim._counter
        self._reads = 0

    def __call__(self) -> int:
        self._reads += 1
        return next(self._counter) - (self._reads - 1)


@contextlib.contextmanager
def collector_off():
    """The cycle collector switched off (after one full collection) and
    restored on exit: inside, whatever a ``gc.collect()`` finds is exactly
    what reference counting did not free, on any interpreter's schedule."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def live_fleet_workers() -> list:
    """Fleet worker processes still alive (none may outlive its fleet)."""
    return [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("fleet-worker-")
    ]


@pytest.fixture(scope="session", autouse=True)
def no_fleet_worker_outlives_the_session():
    yield
    assert not live_fleet_workers()
