"""Generic worker-fleet: drain a job queue through N threads or processes.

Extracted from :class:`~repro.campaign.runner.CampaignRunner` so every
parallel harness in the codebase (campaigns, the differential fuzzer)
shares one fleet implementation with one contract:

* Jobs are independent: a result depends only on the job payload,
  never on which worker ran it, how many workers there were, which
  backend executed it, or the drain order.  The fleet preserves this
  by keying results by job *position* — callers get back exactly one
  slot per submitted job.
* Two interchangeable backends:

  - ``"threads"`` — workers are threads pulling from a shared queue.
    The simulated control/data plane is pure CPU, so under the GIL
    thread workers canNOT speed up compute-bound suites; they exist to
    overlap anything that genuinely waits on the wall clock (pacing
    floors, operator I/O) at zero serialization cost.
  - ``"processes"`` — workers are spawn-started interpreter processes
    (:class:`ProcessWorkerSpec`) managed by a :class:`ProcessPool`.
    Job payloads are serialized to the worker — up to ``batch_size``
    jobs per pipe message, amortizing the dispatch round-trip for
    cheap jobs — executed in an isolated interpreter, and each compact
    serialized result streams back to the parent as it finishes.  This
    is the backend that parallelizes CPU-bound work across cores; it
    additionally contains worker *crashes*: jobs whose process dies
    are converted to failed results via ``on_crash`` and the dead
    worker is replaced, so a crash can neither hang the fleet nor
    silently shrink it.  Callers with several waves of jobs can hold a
    :class:`ProcessPool` open across waves and reuse warm workers
    instead of paying the interpreter-spawn tax per wave.

* ``stop_when`` implements fail-fast: once any completed job's result
  satisfies it, no further jobs are dispatched.  Jobs already running
  finish normally; undispatched jobs are simply absent from the result
  map.  With the thread backend, an optional ``stop_signal`` event is
  set at the same moment so paced executors can cut their sleep short.

``execute`` / ``ProcessWorkerSpec.target`` must never raise — wrap
failures into the result type, as
:class:`~repro.campaign.runner.RecipeExecutor` does — because a raised
exception would otherwise take a worker down with it.  (The process
backend survives even that, via the crash path, but a crash-converted
result carries less detail than a properly wrapped one.)
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
    "ProcessPool",
    "ProcessWorkerSpec",
    "resolve_workers",
    "run_fleet",
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
    """How the ``processes`` backend runs one job in a worker process.

    ``target(worker_id, job, context)`` must be an *importable*
    (module-level) callable: spawn-started workers re-import it by
    qualified name, so lambdas and closures are rejected by pickle.
    ``context`` is pickled once per worker and handed to every call —
    the place for the deployment factory, executor knobs, or an app
    registry.  ``on_crash(job, detail)`` runs in the *parent* when a
    worker process dies (or its result cannot be shipped back) while
    holding ``job``; it must build the backend's failed-result shape.
    """

    target: _t.Callable[[int, _t.Any, _t.Any], _t.Any]
    context: _t.Any = None
    on_crash: _t.Optional[_t.Callable[[_t.Any, str], _t.Any]] = None


def run_fleet(
    jobs: _t.Sequence[J],
    execute: _t.Optional[_t.Callable[[int, J], R]],
    *,
    workers: _t.Union[int, str] = 1,
    stop_when: _t.Optional[_t.Callable[[R], bool]] = None,
    backend: str = "threads",
    process_spec: _t.Optional[ProcessWorkerSpec] = None,
    stop_signal: _t.Optional[threading.Event] = None,
    batch_size: int = 1,
) -> dict[int, R]:
    """Drain ``jobs`` through a fleet of ``workers`` threads or processes.

    With the (default) thread backend, ``execute(worker_id, job)`` runs
    each job in-process.  With ``backend="processes"``, ``execute`` is
    unused, ``process_spec`` describes the spawn-side entry point, and
    up to ``batch_size`` jobs ship per dispatch (results still stream
    back one per job, pickled over the worker's pipe).  Either way
    results come back keyed by the job's position in ``jobs``;
    positions missing from the map were never dispatched (fail-fast
    stopped the fleet first).
    """
    if backend not in BACKENDS:
        raise CampaignError(
            f"unknown fleet backend {backend!r}; expected one of {BACKENDS}"
        )
    fleet_size = resolve_workers(workers)
    if backend == "processes":
        if process_spec is None:
            raise CampaignError("backend='processes' requires a process_spec")
        pool = ProcessPool(process_spec, size=fleet_size, batch_size=batch_size)
        try:
            return pool.run(jobs, stop_when=stop_when)
        finally:
            pool.close()
    if execute is None:
        raise CampaignError("backend='threads' requires an execute callable")
    return _run_thread_fleet(
        jobs,
        execute,
        workers=fleet_size,
        stop_when=stop_when,
        stop_signal=stop_signal,
    )


# -- thread backend -----------------------------------------------------------


def _run_thread_fleet(
    jobs: _t.Sequence[J],
    execute: _t.Callable[[int, J], R],
    *,
    workers: int,
    stop_when: _t.Optional[_t.Callable[[R], bool]],
    stop_signal: _t.Optional[threading.Event],
) -> dict[int, R]:
    queue: collections.deque = collections.deque(enumerate(jobs))
    lock = threading.Lock()
    # The caller may supply the stop event so in-flight executors (e.g.
    # a paced recipe sleeping out its wall-clock floor) observe
    # fail-fast the moment it trips instead of at their next dispatch.
    stop = stop_signal if stop_signal is not None else threading.Event()
    results: dict[int, R] = {}

    def worker(worker_id: int) -> None:
        while True:
            with lock:
                if stop.is_set() or not queue:
                    return
                key, job = queue.popleft()
            result = execute(worker_id, job)
            with lock:
                results[key] = result
            if stop_when is not None and stop_when(result):
                stop.set()

    fleet_size = max(1, min(workers, len(jobs)))
    if fleet_size == 1:
        worker(0)
    else:
        threads = [
            threading.Thread(
                target=worker, args=(i,), name=f"fleet-worker-{i}", daemon=True
            )
            for i in range(fleet_size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return results


# -- process backend ----------------------------------------------------------


def _process_worker_main(conn, target, context, worker_id: int) -> None:
    """Loop of one worker process: recv a batch of jobs, run, stream results.

    Runs in the child.  Each message from the parent is a list of
    ``(key, job)`` pairs — batching amortizes the per-dispatch pickle
    and pipe round-trip — and ``None`` is the shutdown signal.  Results
    stream back one ``(key, kind, payload)`` tuple per job as each
    finishes, so crash attribution and fail-fast stay per-job even when
    dispatch is batched.  A result that cannot be pickled is reported
    as an error message rather than killing the worker, so one odd
    payload cannot eat the rest of the queue.
    """
    try:
        while True:
            batch = conn.recv()
            if batch is None:
                return
            for key, job in batch:
                try:
                    payload = (key, "ok", target(worker_id, job, context))
                except BaseException as exc:  # noqa: BLE001 - ship, don't die
                    payload = (key, "error", f"{type(exc).__name__}: {exc}")
                try:
                    conn.send(payload)
                except Exception as exc:  # noqa: BLE001 - e.g. unpicklable result
                    conn.send((key, "error", f"result not serializable: {exc}"))
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        conn.close()


class _ProcessWorker:
    """Parent-side handle of one spawned worker process."""

    __slots__ = ("worker_id", "process", "conn", "outstanding")

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
        #: key -> job for every dispatched-but-unanswered job.  Results
        #: stream back per job, so a crash costs exactly the unanswered
        #: slice of the last batch — with ``batch_size=1`` that is the
        #: classic exactly-one-job guarantee.
        self.outstanding: dict[int, _t.Any] = {}

    @property
    def busy(self) -> bool:
        return bool(self.outstanding)

    def send_batch(self, batch: list[tuple[int, _t.Any]]) -> None:
        # ``Connection.send`` pickles the whole message before it writes
        # a byte, so a batch that fails to pickle never reached the
        # worker: recording it first would leave an idle worker marked
        # busy, and the next ``run`` waiting on it forever.
        self.conn.send(batch)
        self.outstanding.update(batch)

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
    """A warm, reusable fleet of spawn-started worker processes.

    Spawning an interpreter and re-importing the target costs far more
    than most individual jobs, so the pool keeps its workers alive
    between :meth:`run` calls: callers issuing several waves of jobs
    (a campaign's main pass followed by its flake-detection reruns,
    successive fuzz generations) reuse the same warm interpreters
    instead of paying the spawn tax per wave.  Dispatch is batched —
    up to ``batch_size`` jobs per pipe message — amortizing
    pickle/pipe round-trips for cheap jobs, while results still stream
    back one per job so crash attribution and fail-fast stay precise.

    The pool is also the shutdown-hardening point: :meth:`close` asks
    every worker to exit, joins within a bounded timeout, and escalates
    terminate -> kill for stragglers, so a hung worker can never wedge
    the parent on exit.
    """

    def __init__(
        self,
        spec: ProcessWorkerSpec,
        size: int,
        *,
        batch_size: int = 1,
    ) -> None:
        import multiprocessing

        if size < 1:
            raise CampaignError(f"pool size must be >= 1, got {size}")
        if batch_size < 1:
            raise CampaignError(f"batch_size must be >= 1, got {batch_size}")
        self.spec = spec
        self.size = size
        self.batch_size = batch_size
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

    def _crash_result(self, job: _t.Any, detail: str) -> _t.Any:
        if self.spec.on_crash is None:
            raise CampaignError(
                f"fleet worker process died ({detail}) and no on_crash"
                " handler was provided"
            )
        return self.spec.on_crash(job, detail)

    def run(
        self,
        jobs: _t.Sequence[J],
        *,
        stop_when: _t.Optional[_t.Callable[[R], bool]] = None,
    ) -> dict[int, R]:
        """Drain ``jobs`` through the pool; results keyed by position.

        Workers survive the call: a subsequent :meth:`run` reuses them
        warm.  A worker whose pipe hits EOF mid-batch died holding
        exactly its unanswered jobs; those become ``on_crash`` results
        and — while undispatched work remains — a replacement worker is
        spawned, keeping the pool at full strength.
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
        # holding jobs of a run that raised (their late answers would
        # be keyed into this run's positions), then bring the pool up
        # to strength (never more workers than jobs).
        for worker in list(self._workers):
            if worker.busy or not worker.process.is_alive():
                worker.reap(timeout=0.1)
                self._workers.remove(worker)
        while len(self._workers) < min(self.size, len(jobs)):
            self._spawn()

        def dispatch(worker: _ProcessWorker) -> None:
            batch = []
            while queue and len(batch) < self.batch_size:
                batch.append(queue.popleft())
            if batch:
                worker.send_batch(batch)

        for worker in self._workers:
            if queue and not worker.busy:
                dispatch(worker)

        while any(worker.busy for worker in self._workers):
            ready = _wait_connections(
                [worker.conn for worker in self._workers if worker.busy]
            )
            for worker in list(self._workers):
                if worker.conn not in ready or not worker.busy:
                    continue
                try:
                    key, kind, payload = worker.conn.recv()
                except (EOFError, OSError):
                    # The child died holding the unanswered slice of its
                    # batch: fail those jobs, replace the worker while
                    # there is still work left to do.  EOF can precede
                    # the child becoming reapable, so give it a moment
                    # or the exit code reads as None.
                    worker.process.join(timeout=1.0)
                    exitcode = worker.process.exitcode
                    detail = f"worker process exited with code {exitcode}"
                    for lost_key, lost_job in worker.outstanding.items():
                        results[lost_key] = self._crash_result(lost_job, detail)
                    worker.outstanding.clear()
                    worker.reap(timeout=1.0)
                    self._workers.remove(worker)
                    if queue and not stopping:
                        dispatch(self._spawn())
                    continue
                job = worker.outstanding.pop(key)
                if kind == "ok":
                    results[key] = payload
                else:
                    results[key] = self._crash_result(job, payload)
                if (
                    not stopping
                    and stop_when is not None
                    and stop_when(results[key])
                ):
                    stopping = True
                if not worker.busy and queue and not stopping:
                    dispatch(worker)
        return results

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
