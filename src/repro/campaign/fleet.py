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
- ``"processes"`` — workers are spawn-started interpreter processes
  held warm by a :class:`ProcessPool`.  Each job is pickled to a
  worker, one job per pipe message, executed in an isolated
  interpreter, and its pickled result streams back to the parent.
  This is the backend that parallelizes CPU-bound work across cores;
  a dead worker is replaced, so a crash can neither hang the fleet
  nor silently shrink it.  ``target`` must be importable and
  ``context`` picklable.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import threading
import time
import typing as _t

from repro.errors import CampaignError

__all__ = [
    "BACKENDS",
    "Fleet",
    "ProcessPool",
    "ProcessWorkerSpec",
    "resolve_workers",
]

#: The execution backends every fleet-driven harness accepts.
BACKENDS = ("threads", "processes")

#: multiprocessing start method of every worker: spawn is the only one
#: that is safe on every platform and never inherits parent state, and
#: the one the determinism check relies on.
START_METHOD = "spawn"

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
    argparse delivers them) pass through validated.
    """
    if workers == "auto":
        return _usable_cpus()
    try:
        value = int(workers)
    except (TypeError, ValueError):
        raise CampaignError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        ) from None
    if value < 1:
        raise CampaignError(f"workers must be >= 1, got {value}")
    return value


@dataclasses.dataclass(frozen=True)
class ProcessWorkerSpec:
    """How a fleet runs one job, on either backend.

    ``target(worker_id, job, context)`` produces the job's result.  On
    the ``processes`` backend it must be an *importable* (module-level)
    callable: spawn-started workers re-import it by qualified name, so
    lambdas and closures are rejected by pickle.  ``context`` is handed
    to every call — the place for the recipe executor or an app
    registry; the thread lane passes the object itself, the process
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
        if backend not in BACKENDS:
            raise CampaignError(
                f"unknown fleet backend {backend!r}; expected one of {BACKENDS}"
            )
        self.spec = spec
        self.workers = resolve_workers(workers)
        self.stop_event = stop_event if stop_event is not None else threading.Event()
        self._pool = (
            ProcessPool(spec, size=self.workers) if backend == "processes" else None
        )
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
        """Release the workers (bounded, see :meth:`ProcessPool.close`).
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


# -- process backend ----------------------------------------------------------


def _process_worker_main(conn, target, context, worker_id: int) -> None:
    """Loop of one worker process: recv a job, run it, send its result.

    Runs in the child.  Each message from the parent is one ``(job,)``
    tuple and ``None`` is the shutdown signal; each answer is one
    ``(kind, payload)`` tuple.  A raising target or a result that
    cannot be pickled is reported as an error message rather than
    killing the worker, so one odd payload cannot eat the rest of the
    queue.
    """
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            try:
                answer = ("ok", target(worker_id, message[0], context))
            except BaseException as exc:  # noqa: BLE001 - ship, don't die
                answer = ("error", f"{type(exc).__name__}: {exc}")
            try:
                conn.send(answer)
            except Exception as exc:  # noqa: BLE001 - e.g. unpicklable result
                conn.send(("error", f"result not serializable: {exc}"))
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        conn.close()


class _ProcessWorker:
    """Parent-side handle of one spawned worker process."""

    __slots__ = ("worker_id", "process", "conn", "held")

    def __init__(self, ctx, spec: ProcessWorkerSpec, worker_id: int) -> None:
        self.worker_id = worker_id
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_process_worker_main,
            args=(child_conn, spec.target, spec.context, worker_id),
            name=f"fleet-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        #: ``(key, job)`` of the dispatched-but-unanswered job, or None
        #: when idle: one job per message, so a crash costs exactly it.
        self.held: _t.Optional[tuple[int, _t.Any]] = None

    def send(self, key: int, job: _t.Any) -> None:
        # ``Connection.send`` pickles the whole message before it writes
        # a byte, so a job that fails to pickle never reached the
        # worker: recording it first would leave an idle worker marked
        # busy, and the next ``run`` waiting on it forever.
        self.conn.send((job,))
        self.held = (key, job)

    def shut_down(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError, ValueError):
            pass

    def reap(self, timeout: float = 5.0) -> None:
        """Escalating teardown: join politely, then ``terminate()``,
        then — the last resort a hung or signal-blocking child cannot
        dodge — ``kill()``.  A straggler can therefore never stall
        interpreter exit for more than ``timeout`` + two grace joins.
        """
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(1.0)
        if self.process.is_alive():  # pragma: no cover - SIGTERM ignored
            self.process.kill()
            self.process.join(1.0)


class ProcessPool:
    """A warm, reusable fleet of spawn-started worker processes — the
    ``processes`` lane of :class:`Fleet`.

    Spawning an interpreter and re-importing the target costs far more
    than most individual jobs, so the pool keeps its workers alive
    between :meth:`run` calls: callers issuing several waves of jobs
    (a campaign's main pass followed by its flake-detection reruns,
    an exploration's waves) reuse the same warm interpreters instead
    of paying the spawn tax per wave.  One job travels per pipe
    message and one result streams back per job, so crash attribution
    and fail-fast are exact.

    The pool is also the shutdown-hardening point: :meth:`close` asks
    every worker to exit, joins within a bounded timeout, and escalates
    terminate -> kill for stragglers, so a hung worker can never wedge
    the parent on exit.
    """

    def __init__(self, spec: ProcessWorkerSpec, size: int) -> None:
        import multiprocessing

        if size < 1:
            raise CampaignError(f"pool size must be >= 1, got {size}")
        self.spec = spec
        self.size = size
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._workers: list[_ProcessWorker] = []
        self._next_id = 0
        self._closed = False

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def workers_alive(self) -> int:
        """Live worker processes currently held warm by the pool."""
        return sum(1 for worker in self._workers if worker.process.is_alive())

    def _spawn(self) -> _ProcessWorker:
        worker = _ProcessWorker(self._ctx, self.spec, self._next_id)
        self._next_id += 1
        self._workers.append(worker)
        return worker

    def run(
        self,
        jobs: _t.Sequence[J],
        *,
        stop_when: _t.Optional[_t.Callable[[R], bool]] = None,
    ) -> dict[int, R]:
        """Drain ``jobs`` through the pool; results keyed by position.

        Workers survive the call: a subsequent :meth:`run` reuses them
        warm.  A worker whose pipe hits EOF died holding exactly its
        unanswered job; that becomes an ``on_crash`` result and — while
        undispatched work remains — a replacement worker is spawned,
        keeping the pool at full strength.
        """
        from multiprocessing.connection import wait as _wait_connections

        if self._closed:
            raise CampaignError("cannot run jobs on a closed ProcessPool")
        results: dict[int, R] = {}
        if not jobs:
            return results
        queue: collections.deque = collections.deque(enumerate(jobs))
        stopping = False

        # Cull workers that died while idle between runs, and any still
        # holding a job of a run that raised (its late answer would be
        # keyed into this run's positions), then bring the pool up to
        # strength (never more workers than jobs).
        for worker in list(self._workers):
            if worker.held is not None or not worker.process.is_alive():
                worker.reap(timeout=0.1)
                self._workers.remove(worker)
        while len(self._workers) < min(self.size, len(jobs)):
            self._spawn()

        for worker in self._workers:
            if queue:
                worker.send(*queue.popleft())

        while True:
            busy = [worker for worker in self._workers if worker.held is not None]
            if not busy:
                return results
            ready = _wait_connections([worker.conn for worker in busy])
            for worker in busy:
                if worker.conn not in ready:
                    continue
                key, job = worker.held
                worker.held = None
                try:
                    kind, payload = worker.conn.recv()
                except (EOFError, OSError):
                    # The child died holding this job: fail it, replace
                    # the worker while there is still work left to do.
                    # EOF can precede the child becoming reapable, so
                    # give it a moment or the exit code reads as None.
                    worker.process.join(timeout=1.0)
                    exitcode = worker.process.exitcode
                    results[key] = self.spec.crash_result(
                        job, f"worker process exited with code {exitcode}"
                    )
                    worker.reap(timeout=1.0)
                    self._workers.remove(worker)
                    if queue and not stopping:
                        self._spawn().send(*queue.popleft())
                    continue
                if kind == "ok":
                    results[key] = payload
                else:
                    results[key] = self.spec.crash_result(job, payload)
                if (
                    not stopping
                    and stop_when is not None
                    and stop_when(results[key])
                ):
                    stopping = True
                if queue and not stopping:
                    worker.send(*queue.popleft())

    def close(self, timeout: float = 5.0) -> None:
        """Shut the pool down, hard-bounded in wall-clock time.

        Every worker gets the polite shutdown message, then is joined
        against a shared ``timeout`` deadline; anything still alive is
        terminated and, failing that, killed (see
        :meth:`_ProcessWorker.reap`).  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.shut_down()
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.reap(timeout=max(0.1, deadline - time.monotonic()))
