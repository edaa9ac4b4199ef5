"""Shared pytest fixtures and helpers for the test suite."""

from __future__ import annotations

import collections
import contextlib
import functools
import gc
import glob
import hashlib
import json
import os
import sys
import typing as _t

import pytest

import repro
import repro.microservice.app as app_module
from repro.campaign.processes import _BOOTSTRAP, _shut_down_fork_servers
from repro.simulation import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def lane(request) -> str:
    """The scheduler lane a test runs on.  A test that asks for it, or
    for :func:`sim_on_lane`, runs twice: under its own name on the
    default lane and with a ``heap`` suffix on the heap reference lane
    (see :func:`pytest_collection_modifyitems`)."""
    return getattr(request.node, "lane", "default")


@pytest.fixture
def sim_on_lane(lane: str) -> Simulator:
    """:func:`sim` on the test's lane; a module that imports it as
    ``sim`` runs every test taking ``sim`` on both lanes."""
    return Simulator(seed=1234, scheduler=lane)


@contextlib.contextmanager
def deploying_on(lane: str):
    """Inside, ``Application.deploy()`` without a ``sim`` builds its
    simulator on ``lane`` — for drivers that deploy out of reach."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(app_module, "Simulator", functools.partial(Simulator, scheduler=lane))
        yield


@pytest.fixture
def deploys_on_lane(lane: str):
    """:func:`deploying_on` the test's lane, for the whole test."""
    with deploying_on(lane):
        yield lane


def pytest_collection_modifyitems(items) -> None:
    """Add a heap-lane twin right after every test that asks for ``lane``.

    The default-lane item keeps its name, so parametrising a test over
    lanes adds a test instead of renaming one."""
    collected = []
    for item in items:
        collected.append(item)
        callspec = getattr(item, "callspec", None)
        if "lane" not in getattr(item, "fixturenames", ()) or (
            callspec is not None and "lane" in callspec.params
        ):
            continue
        name = item.name[:-1] + "-heap]" if callspec else item.name + "[heap]"
        twin = pytest.Function.from_parent(
            item.parent,
            name=name,
            callspec=callspec,
            fixtureinfo=item._fixtureinfo,
            originalname=item.originalname,
        )
        twin.lane = "heap"
        collected.append(twin)
    items[:] = collected


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
        #: The same calls by code object, for :meth:`calls_of`.
        self.by_code: _t.Counter[_t.Any] = collections.Counter()
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
            self.by_code[code] += 1

    def calls_of(self, function: _t.Callable) -> int:
        """Calls into ``function`` (a plain function or one defined in a
        class body) while the block ran."""
        return self.by_code[function.__code__]

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


def _fleet_processes() -> list[tuple[int, bool]]:
    """Every descendant of this process that is a fleet process, as
    ``(pid, is a worker)``.

    The tree is walked as the kernel lists children
    (``/proc/<pid>/task/*/children``, which is how ``bench/run.py``'s
    ``child_pids`` reads them), all the way down: workers are forked by
    a fork server, so they are grandchildren of the process that runs
    the fleet.  A fleet process runs the fleet's bootstrap; the fork
    server is one whose parent does not, a worker one whose parent does.
    A descendant that exited without being waited for counts as a
    worker too: a zombie's command line reads empty, and nothing else
    in the suite leaves a child unwaited.
    """
    found = []
    pending = [("self", False)]
    while pending:
        pid, parent_is_fleet = pending.pop()
        children = []
        for listing in glob.glob(f"/proc/{pid}/task/*/children"):
            try:
                with open(listing) as handle:
                    children += [int(child) for child in handle.read().split()]
            except OSError:  # a thread or process that ended meanwhile
                pass
        for child in children:
            try:
                with open(f"/proc/{child}/cmdline", "rb") as handle:
                    argv = handle.read().split(b"\0")
                with open(f"/proc/{child}/stat") as handle:
                    state = handle.read().rpartition(")")[2].split()[0]
            except (OSError, IndexError):  # reaped meanwhile
                continue
            fleet = _BOOTSTRAP.encode() in argv
            if fleet or state == "Z":
                found.append((child, parent_is_fleet or state == "Z"))
            pending.append((child, fleet))
    return found


def live_fleet_workers() -> list[int]:
    """Fleet worker processes not yet reaped (none may outlive its pool):
    forked workers and unwaited zombies among this process's descendants,
    the fork server itself aside."""
    return [pid for pid, worker in _fleet_processes() if worker]


@pytest.fixture(scope="session", autouse=True)
def no_fleet_worker_outlives_the_session():
    yield
    assert not live_fleet_workers()
    # What interpreter exit does: the fork server is told to go, and
    # goes, since no worker is left to wait for.
    _shut_down_fork_servers()
    assert not _fleet_processes()


def sealed(header: dict, lines: _t.Sequence[str]) -> str:
    """Artifact file text of raw body ``lines`` under ``header``, with a
    matching trailer: what a writer that got the envelope right but a
    record wrong would leave, so the reader's record checks are reached."""
    compact = functools.partial(json.dumps, separators=(",", ":"))
    text = "".join(line + "\n" for line in [compact(header), *lines])
    digest = hashlib.sha256(text.encode()).hexdigest()
    return text + compact({"count": len(lines), "sha256": digest}) + "\n"
