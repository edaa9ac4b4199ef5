"""Shared pytest fixtures and helpers for the test suite."""

from __future__ import annotations

import collections
import contextlib
import gc
import multiprocessing
import os
import sys
import typing as _t

import pytest

import repro
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


class CallCount:
    """Python calls into the program while the block runs, by package.

    The benchmark ledger's definition of ``<layer>.calls`` (bench/layers.py),
    taken with a ``sys.setprofile`` hook instead of ``cProfile``: every
    ``call`` event whose code object lives under ``src/repro`` counts for
    the package directory it is in — so a generator resume counts like a
    call, and a C builtin does not count at all.  The numbers repeat
    exactly from run to run.
    """

    _ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

    def __init__(self) -> None:
        self.by_package: _t.Counter[str] = collections.Counter()
        self._package_of: dict = {}

    @property
    def total(self) -> int:
        return sum(self.by_package.values())

    def _hook(self, frame, event, _arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        try:
            package = self._package_of[code]
        except KeyError:
            filename = os.path.abspath(code.co_filename)
            package = None
            if filename.startswith(self._ROOT):
                package = filename[len(self._ROOT):].split(os.sep, 1)[0]
            self._package_of[code] = package
        if package is not None:
            self.by_package[package] += 1

    def __enter__(self) -> "CallCount":
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *_exc) -> None:
        sys.setprofile(None)


class SpiedKey(str):
    """A header key that counts how often the header proof's predicate
    reads it (``":" in key``): once when the pair is stored, and once
    for every walk ``wire_form`` makes over the map holding it."""

    tested = 0

    def __contains__(self, item: object) -> bool:
        self.tested += item == ":"
        return super().__contains__(item)


@contextlib.contextmanager
def collector_off():
    """The cycle collector switched off (after full collections until one
    finds nothing) and restored on exit: inside, whatever a
    ``gc.collect()`` finds is exactly what reference counting did not
    free, on any interpreter's schedule.  One pass is not enough: a
    deployment held only by garbage (a class defined in an earlier test
    closes over it) dies inside that pass, and its ``weakref.finalize``
    lets go of the pipeline — and the skeleton behind it — only then, to
    be counted as this block's garbage."""
    while gc.collect():
        pass
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
