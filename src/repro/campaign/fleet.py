"""The one worker fleet: drain independent jobs through N threads or processes.

Everything above a single verdict — a campaign, an exploration, a fuzz
corpus — is "run these independent jobs, get ordered outcomes, crashed
ones marked".  :class:`Fleet` is that job, written once, with one
calling convention on both backends:

* A :class:`ProcessWorkerSpec` says how a job runs:
  ``target(worker_id, job, context)`` produces its result,
  ``on_crash(job, detail)`` builds the failed-result shape for a job
  that could not produce one.
* Jobs are independent: a result depends only on the job payload,
  never on which worker ran it, how many workers there were, which
  backend executed it, or the drain order.  The fleet preserves this
  by keying results by job *position* — :meth:`Fleet.run` returns
  exactly one slot per dispatched job.
* A job that yields no result is an ``on_crash`` result on either
  backend, and the worker keeps draining: a target that raises
  (``detail`` is ``"ValueError: …"``), and on the process lane also a
  worker process that dies holding the job or a result that cannot be
  pickled home.  Without an ``on_crash`` handler :meth:`Fleet.run`
  raises :class:`~repro.errors.CampaignError` instead.  Wrapping
  failures into the result type inside the target, as
  :class:`~repro.campaign.runner.RecipeExecutor` does, still carries
  more detail than a crash-converted result.
* ``stop_when`` implements fail-fast: once any completed job's result
  satisfies it, no further jobs are dispatched.  Jobs already running
  finish normally; undispatched positions are simply absent from the
  result map.  At that moment the fleet sets its ``stop_event``, which
  in-process jobs that wait on the wall clock (a paced recipe sleeping
  out its floor) wait on instead, so they wake with it; every
  :meth:`Fleet.run` starts by clearing it.
* A fleet is reusable: callers with several waves of jobs (a
  campaign's main pass and its flake reruns, an exploration's waves)
  hold one open and :meth:`~Fleet.close` it — or leave its ``with``
  block — when done.

Two interchangeable backends:

- ``"threads"`` — workers are threads pulling from a shared queue.
  The simulated control/data plane is pure CPU, so under the GIL
  thread workers canNOT speed up compute-bound suites; they exist to
  overlap anything that genuinely waits on the wall clock (pacing
  floors, operator I/O) at zero serialization cost.
- ``"processes"`` — workers are processes held warm by a
  :class:`~repro.campaign.processes.ProcessPool`, each forked from the
  process's one fork server; that module, loaded only by this backend,
  says how.  This is the backend that parallelizes CPU-bound work
  across cores.  ``target`` must be importable and ``context``
  picklable.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import threading
import typing as _t

from repro.errors import CampaignError

__all__ = [
    "BACKENDS",
    "Fleet",
    "ProcessWorkerSpec",
    "check_backend",
    "resolve_workers",
]

#: The execution backends every fleet-driven harness accepts.
BACKENDS = ("threads", "processes")


def check_backend(backend: str) -> None:
    """Refuse a backend the fleet does not have."""
    if backend not in BACKENDS:
        raise CampaignError(f"unknown fleet backend {backend!r}; expected one of {BACKENDS}")


R = _t.TypeVar("R")
J = _t.TypeVar("J")


def _usable_cpus() -> int:
    """CPUs this process may run on, which an affinity mask or a
    container's cpuset can make fewer than the machine has."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        count = os.process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):  # not on macOS / Windows
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count()
    return max(1, count or 1)


def resolve_workers(workers: _t.Union[int, str]) -> int:
    """Resolve a worker-count knob to a concrete fleet size.

    ``"auto"`` (the CLI default) gives one worker per CPU the process
    may run on — not per CPU of the machine, which would oversubscribe
    an affinity-limited container.  Integers (or integer strings, as
    argparse delivers them) pass through validated; a bool or a number
    with a fractional part is refused, never truncated.
    """
    if workers == "auto":
        return _usable_cpus()
    try:
        value = int(workers)
    except (TypeError, ValueError, OverflowError):
        value = None
    if (
        value is None
        or isinstance(workers, bool)
        or (not isinstance(workers, str) and value != workers)
    ):
        raise CampaignError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        )
    if value < 1:
        raise CampaignError(f"workers must be >= 1, got {workers!r}")
    return value


@dataclasses.dataclass(frozen=True)
class ProcessWorkerSpec:
    """How a fleet runs one job, on either backend.

    ``target(worker_id, job, context)`` produces the job's result.  On
    the ``processes`` backend it must be an *importable* (module-level)
    callable: worker processes re-import it by qualified name, so
    lambdas and closures are rejected by pickle.  ``context`` is handed
    to every call — the place for the campaign's recipe executor; the
    thread lane passes the object itself, the process
    lane pickles it once per worker.  ``on_crash(job, detail)`` runs in
    the dispatching process when ``job`` produced no result (its target
    raised, its worker process died, its result could not be shipped
    back); it must build the caller's failed-result shape.
    """

    target: _t.Callable[[int, _t.Any, _t.Any], _t.Any]
    context: _t.Any = None
    on_crash: _t.Optional[_t.Callable[[_t.Any, str], _t.Any]] = None

    def crash_result(self, job: _t.Any, detail: str) -> _t.Any:
        """The result of a ``job`` that produced none, or — with no
        ``on_crash`` handler — a :class:`CampaignError`."""
        if self.on_crash is None:
            raise CampaignError(
                f"fleet job produced no result ({detail}) and no on_crash"
                " handler was provided"
            )
        return self.on_crash(job, detail)


class Fleet:
    """``workers`` threads or processes draining jobs for one ``spec``.

    The fleet validates ``backend`` and ``workers`` (an int or
    ``"auto"``) once, for every harness built on it.  Workers start on
    the first :meth:`run` and, on the process lane, stay warm until
    :meth:`close`.  ``stop_event`` is the event the fleet sets when
    ``stop_when`` trips; a caller whose in-process jobs wait on it
    passes in the one their ``spec.context`` already holds.
    """

    def __init__(
        self,
        spec: ProcessWorkerSpec,
        *,
        workers: _t.Union[int, str] = 1,
        backend: str = "threads",
        stop_event: _t.Optional[threading.Event] = None,
    ) -> None:
        check_backend(backend)
        self.spec = spec
        self.workers = resolve_workers(workers)
        self.stop_event = stop_event if stop_event is not None else threading.Event()
        self._pool = None
        if backend == "processes":
            from repro.campaign.processes import ProcessPool

            self._pool = ProcessPool(spec, size=self.workers)
        self._closed = False

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        jobs: _t.Sequence[J],
        stop_when: _t.Optional[_t.Callable[[R], bool]] = None,
    ) -> dict[int, R]:
        """Drain ``jobs``; results come back keyed by the job's position
        in ``jobs``.  Positions missing from the map were never
        dispatched (``stop_when`` stopped the fleet first)."""
        if self._closed:
            raise CampaignError("cannot run jobs on a closed Fleet")
        self.stop_event.clear()

        def stop_and_signal(result: R) -> bool:
            stop = stop_when(result)
            if stop:
                self.stop_event.set()
            return stop

        tripped = stop_and_signal if stop_when is not None else None
        if self._pool is not None:
            return self._pool.run(jobs, stop_when=tripped)
        return self._run_threads(jobs, tripped)

    def close(self) -> None:
        """Release the workers (bounded, see
        :meth:`~repro.campaign.processes.ProcessPool.close`).
        Idempotent; a closed fleet rejects further runs."""
        self._closed = True
        if self._pool is not None:
            self._pool.close()

    def _run_threads(
        self,
        jobs: _t.Sequence[J],
        tripped: _t.Optional[_t.Callable[[R], bool]],
    ) -> dict[int, R]:
        queue: collections.deque = collections.deque(enumerate(jobs))
        lock = threading.Lock()
        spec, stop = self.spec, self.stop_event
        results: dict[int, R] = {}
        errors: list[BaseException] = []

        def drain(worker_id: int) -> None:
            while True:
                with lock:
                    if stop.is_set() or not queue:
                        return
                    key, job = queue.popleft()
                try:
                    result = spec.target(worker_id, job, spec.context)
                except Exception as exc:  # noqa: BLE001 - a result, as on the process lane
                    result = spec.crash_result(job, f"{type(exc).__name__}: {exc}")
                with lock:
                    results[key] = result
                if tripped is not None:
                    tripped(result)

        def drain_in_thread(worker_id: int) -> None:
            # What the drain loop itself raises (no on_crash handler, a
            # raising stop_when) must reach the caller, not die with
            # the thread: stop the siblings and re-raise after the join.
            try:
                drain(worker_id)
            except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
                errors.append(exc)
                stop.set()

        fleet_size = min(self.workers, len(jobs))
        if fleet_size <= 1:
            drain(0)
            return results
        threads = [
            threading.Thread(
                target=drain_in_thread,
                args=(i,),
                name=f"fleet-worker-{i}",
                daemon=True,
            )
            for i in range(fleet_size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results
