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
- ``"processes"`` — workers are fresh interpreter processes, launched
  by the fleet itself and held warm by a :class:`ProcessPool`.  Each
  job is pickled to a worker, one job per message, executed in an
  isolated interpreter, and its pickled result streams back to the
  parent.  This is the backend that parallelizes CPU-bound work across
  cores; a dead worker is replaced, so a crash can neither hang the
  fleet nor silently shrink it.  ``target`` must be importable and
  ``context`` picklable.  A worker imports what its pickles name and
  nothing else: the parent's ``__main__`` only when a pickle refers to
  it.  POSIX only (the child inherits its end of the connection by
  ``pass_fds``).
"""

from __future__ import annotations

import collections
import dataclasses
import io
import os
import pickle
import sys
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


#: What a worker interpreter runs (``python -c``).  The connection's file
#: descriptor is its first argument; the first message on it carries the
#: parent's ``sys.path``, a reference to the parent's main module, the
#: pickled ``(target, context, worker_id)``, the parent's code bundle
#: (:class:`_CodeBundle`) as ``(fd, index)`` or None, and whether this
#: worker reports the code it compiles.  For either of the last two a
#: path hook placed first loads each indexed module from the bundle while
#: its file's mtime and size still match, and otherwise compiles it from
#: source, keeping the code to report when asked to.  Nothing outside the
#: standard library is imported before that is in place.
_BOOTSTRAP = """\
import sys
from multiprocessing.connection import Connection
conn = Connection(int(sys.argv[1]))
sys.path[:], main, spec, bundle, report = conn.recv()
compiled = [] if report else None
if bundle or report:
    import marshal, os
    from importlib import machinery
    fd, index = bundle or (None, {})
    stamps = {}
    class BundleLoader(machinery.SourceFileLoader):
        def get_code(self, fullname):
            stat = os.stat(self.path)
            stamp = (stat.st_mtime_ns, stat.st_size)
            entry = index.get(self.path)
            if entry is not None and entry[:2] == stamp:
                return marshal.loads(os.pread(fd, entry[3], entry[2]))
            stamps[self.path] = stamp
            return super().get_code(fullname)
        def source_to_code(self, data, path, *, _optimize=-1):
            code = super().source_to_code(data, path, _optimize=_optimize)
            stamp = stamps.pop(path, None)
            if compiled is not None and stamp is not None:
                compiled.append((path, *stamp, marshal.dumps(code)))
            return code
    sys.path_hooks.insert(0, machinery.FileFinder.path_hook(
        (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES),
        (BundleLoader, machinery.SOURCE_SUFFIXES),
        (machinery.SourcelessFileLoader, machinery.BYTECODE_SUFFIXES),
    ))
    sys.path_importer_cache.clear()
from repro.campaign.fleet import _serve
_serve(conn, main, spec, compiled)
"""


class _CodeBundle:
    """Compiled code of the modules process workers compiled from source,
    kept for the life of the process so that later workers load it
    instead of compiling again.

    No worker of a process's first pool waits on it: that pool's first
    worker compiles what it imports as it would anyway, keeps each code
    object the loader built from source, and ships them home with its
    answers (:func:`_serve`); :meth:`add` stores them.  Every worker
    spawned after that gets the bundle, and each pool's first worker
    reports only what the bundle lacked, so a fleet with other imports
    grows it.  Where ``.pyc`` files exist nothing is compiled, so the
    bundle stays empty.

    The code lives in one anonymous in-memory file (``memfd_create``),
    appended to and never rewritten; a worker inherits its descriptor
    and reads a module's bytes only when it imports that module.  So
    launching a worker writes nothing but its small first message, and
    the parent keeps no copy.  ``index`` maps a source path to the
    ``(st_mtime_ns, st_size)`` taken before the file was read, then the
    code's offset and length in the file.  Where the platform has no
    ``memfd_create``, no worker reports and the bundle stays empty.
    """

    def __init__(self) -> None:
        self.file: _t.Optional[_t.BinaryIO] = None
        #: Replaced, never mutated, so a worker's first message can carry
        #: it while another thread adds to the bundle.
        self.index: dict[str, tuple[int, int, int, int]] = {}
        self._lock = threading.Lock()

    def handoff(self) -> _t.Optional[tuple[int, dict[str, tuple[int, int, int, int]]]]:
        """``(fd, index)`` for a worker's first message; None while empty."""
        index = self.index
        return (self.file.fileno(), index) if index else None

    def add(self, modules: list[tuple[str, int, int, bytes]]) -> None:
        """Append each ``(path, st_mtime_ns, st_size, marshalled code)``
        and index it, replacing an older entry of the same path."""
        with self._lock:
            if self.file is None:
                self.file = open(os.memfd_create("repro-code"), "w+b")
            index = dict(self.index)
            for path, mtime_ns, size, code in modules:
                offset = self.file.seek(0, os.SEEK_END)
                self.file.write(code)
                index[path] = (mtime_ns, size, offset, len(code))
            self.file.flush()
            self.index = index


#: The process's code bundle; None where workers cannot share one.
_bundle: _t.Optional[_CodeBundle] = (
    _CodeBundle() if hasattr(os, "memfd_create") else None
)


def _main_reference() -> _t.Optional[tuple[str, str]]:
    """How a worker can import the parent's ``__main__``, found the way
    ``multiprocessing``'s spawn finds it: by module name (``python -m
    pkg.mod``) or by file path.  None for an interactive session and for
    a package's ``__main__.py``, whose main-only code runs unguarded."""
    main = sys.modules.get("__main__")
    name = getattr(getattr(main, "__spec__", None), "name", None)
    if name is not None:
        if name == "__main__" or name.endswith(".__main__"):
            return None
        return ("name", name)
    path = getattr(main, "__file__", None)
    return None if path is None else ("path", os.path.abspath(path))


def _import_parent_main(main: _t.Optional[tuple[str, str]]) -> None:
    """Run the parent's main module, once, as ``__mp_main__`` and make it
    this worker's ``__main__``, as spawn does: its ``if __name__ ==
    "__main__":`` block stays unrun."""
    import runpy
    import types

    if main is None or sys.modules["__main__"].__name__ == "__mp_main__":
        return
    kind, ref = main
    if kind == "name":
        content = runpy.run_module(ref, run_name="__mp_main__", alter_sys=True)
    else:
        content = runpy.run_path(ref, run_name="__mp_main__")
    module = types.ModuleType("__mp_main__")
    module.__dict__.update(content)
    sys.modules["__main__"] = sys.modules["__mp_main__"] = module


class _WorkerUnpickler(pickle.Unpickler):
    """Unpickles in a worker: the parent's main module is imported only
    when the pickle names ``__main__``."""

    def __init__(self, data: bytes, main: _t.Optional[tuple[str, str]]) -> None:
        super().__init__(io.BytesIO(data))
        self.main = main

    def find_class(self, module: str, name: str) -> _t.Any:
        if module == "__main__":
            _import_parent_main(self.main)
        return super().find_class(module, name)


def _serve(
    conn,
    main: _t.Optional[tuple[str, str]],
    spec: bytes,
    compiled: _t.Optional[list],
) -> None:
    """Loop of one worker process: recv a job, run it, send its result.

    Runs in the child.  Each message from the parent is one ``(job,)``
    tuple and ``None`` is the shutdown signal; each answer is one
    ``(kind, payload)`` tuple, followed, when the worker reports code
    and has compiled modules since its last answer, by the list of them
    (:class:`_CodeBundle`).  A raising target, a job that cannot be
    unpickled or a result that cannot be pickled is reported as an error
    message rather than killing the worker, so one odd payload cannot
    eat the rest of the queue.  So is a spec that cannot be loaded: every
    job is answered with that reason, and the pool keeps this worker
    instead of replacing it after every job.  On the shutdown signal the
    worker flushes its output and leaves without interpreter teardown.
    """
    try:
        target, context, worker_id = _WorkerUnpickler(spec, main).load()
        unloadable = None
    except Exception as exc:  # noqa: BLE001 - the answer to every job
        unloadable = f"cannot load worker spec: {type(exc).__name__}: {exc}"
    try:
        while True:
            data = conn.recv_bytes()
            try:
                message = _WorkerUnpickler(data, main).load()
                if message is None:
                    break
                if unloadable is not None:
                    answer = ("error", unloadable)
                else:
                    answer = ("ok", target(worker_id, message[0], context))
            except BaseException as exc:  # noqa: BLE001 - ship, don't die
                answer = ("error", f"{type(exc).__name__}: {exc}")
            code = ()
            if compiled:
                code = (compiled[:],)
                del compiled[:]
            try:
                conn.send((*answer, *code))
            except Exception as exc:  # noqa: BLE001 - e.g. unpicklable result
                conn.send(("error", f"result not serializable: {exc}", *code))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        conn.close()
        return
    conn.close()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(0)


class _ProcessWorker:
    """Parent-side handle of one worker interpreter, a ``Popen`` child
    speaking over one end of a socket pair.  A pool's first worker
    (``worker_id`` 0) reports the code it compiles (:class:`_CodeBundle`)."""

    __slots__ = ("worker_id", "process", "conn", "held")

    def __init__(self, spec: ProcessWorkerSpec, worker_id: int) -> None:
        import subprocess
        from multiprocessing.connection import Pipe

        self.worker_id = worker_id
        payload = pickle.dumps(
            (spec.target, spec.context, worker_id), pickle.HIGHEST_PROTOCOL
        )
        path = [entry or os.getcwd() for entry in sys.path]
        bundle = _bundle.handoff() if _bundle is not None else None
        report = _bundle is not None and worker_id == 0
        parent_conn, child_conn = Pipe()
        fd = child_conn.fileno()
        try:
            self.process = subprocess.Popen(
                [
                    sys.executable,
                    *subprocess._args_from_interpreter_flags(),
                    "-c",
                    _BOOTSTRAP,
                    str(fd),
                ],
                pass_fds=(fd,) if bundle is None else (fd, bundle[0]),
                stdin=subprocess.DEVNULL,
            )
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        self.conn = parent_conn
        self._post((path, _main_reference(), payload, bundle, report))
        #: ``(key, job)`` of the dispatched-but-unanswered job, or None
        #: when idle: one job per message, so a crash costs exactly it.
        self.held: _t.Optional[tuple[int, _t.Any]] = None

    def _post(self, message: _t.Any) -> None:
        # A child that is already gone refuses the write; it reads as
        # EOF in ``ProcessPool.run``, which fails the job it holds.
        try:
            self.conn.send(message)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def send(self, key: int, job: _t.Any) -> None:
        # ``Connection.send`` pickles the whole message before it writes
        # a byte, so a job that fails to pickle never reached the
        # worker: recording it first would leave an idle worker marked
        # busy, and the next ``run`` waiting on it forever.
        self._post((job,))
        self.held = (key, job)

    def shut_down(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError, ValueError):
            pass

    def exit_code(self, timeout: float) -> _t.Optional[int]:
        """The worker's exit code, after waiting up to ``timeout`` seconds
        for it to end; None if it is still running."""
        import subprocess

        try:
            return self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            return None

    def reap(self, timeout: float = 5.0) -> None:
        """Escalating teardown: wait politely, then ``terminate()``,
        then — the last resort a hung or signal-blocking child cannot
        dodge — ``kill()``.  A straggler can therefore never stall
        interpreter exit for more than ``timeout`` + two grace waits.
        """
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        if self.exit_code(timeout) is None:  # pragma: no cover - stuck worker
            self.process.terminate()
            if self.exit_code(1.0) is None:  # pragma: no cover - SIGTERM ignored
                self.process.kill()
                self.exit_code(1.0)


class ProcessPool:
    """A warm, reusable fleet of worker interpreters — the ``processes``
    lane of :class:`Fleet`.

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
        if size < 1:
            raise CampaignError(f"pool size must be >= 1, got {size}")
        self.spec = spec
        self.size = size
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
        return sum(1 for worker in self._workers if worker.process.poll() is None)

    def _spawn(self) -> _ProcessWorker:
        worker = _ProcessWorker(self.spec, self._next_id)
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
            if worker.held is not None or worker.process.poll() is not None:
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
                    kind, payload, *code = worker.conn.recv()
                except (EOFError, OSError):
                    # The child died holding this job: fail it, replace
                    # the worker while there is still work left to do.
                    # EOF can precede the child becoming reapable, so
                    # give it a moment or the exit code reads as None.
                    results[key] = self.spec.crash_result(
                        job,
                        f"worker process exited with code {worker.exit_code(1.0)}",
                    )
                    worker.reap(timeout=1.0)
                    self._workers.remove(worker)
                    if queue and not stopping:
                        self._spawn().send(*queue.popleft())
                    continue
                if code:
                    _bundle.add(code[0])
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
