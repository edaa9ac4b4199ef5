"""The process lane of :class:`~repro.campaign.fleet.Fleet`: worker
processes forked from one fork server per process, spoken to over
socket pairs.

Only ``Fleet(..., backend="processes")`` and the fork server import this
module, so a CLI launch, a serial run or a thread-lane fleet never loads
it.  Each worker is forked from the process's fork server (a fresh
interpreter the fleet launches itself on the first spawn, which imports
what the pool's pickled spec names and forks every worker of every pool
from there).  Each job is pickled to a worker, one job per message, and
its pickled result streams back to the parent; a dead worker is
replaced, so a crash can neither hang the fleet nor silently shrink it.
A worker imports what its pickles name and nothing else: the parent's
``__main__`` only when a pickle refers to it.  Linux only (descriptors
travel by ``SCM_RIGHTS``, workers are watched through pidfds).
"""

from __future__ import annotations

import collections
import io
import os
import pickle
import sys
import threading
import time
import typing as _t

from repro.campaign.fleet import J, ProcessWorkerSpec, R
from repro.errors import CampaignError

__all__ = ["ProcessPool"]


#: What the fork server runs (``python -c``).  Its control socket's file
#: descriptor is its first argument, and the first message on that socket
#: (framed as :func:`_send` frames it) is the parent's ``sys.path``.  It is
#: applied before anything outside the standard library is imported, so the
#: server imports ``repro`` from wherever the parent does, a ``sys.path``
#: insert included.
_BOOTSTRAP = """\
import pickle, socket, sys
control = socket.socket(fileno=int(sys.argv[1]))
size = int.from_bytes(control.recv(8, socket.MSG_WAITALL), "little")
sys.path[:] = pickle.loads(control.recv(size, socket.MSG_WAITALL))
from repro.campaign.processes import _fork_server
_fork_server(control)
"""


def _send(sock, message: _t.Any, fds: _t.Sequence[int] = ()) -> None:
    """Write ``message``, pickled, to the control socket ``sock``: an
    8-byte length header carrying ``fds`` (``SCM_RIGHTS``), then the body."""
    import array
    import socket

    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    rights = [(socket.SOL_SOCKET, socket.SCM_RIGHTS, array.array("i", fds))]
    sock.sendmsg([len(data).to_bytes(8, "little")], rights if fds else [])
    sock.sendall(data)


def _recv(sock) -> tuple[_t.Any, list[int]]:
    """One message of :func:`_send` and the descriptors that came with it;
    ``EOFError`` once the peer has closed."""
    import socket

    header, fds, _, _ = socket.recv_fds(sock, 8, 8, socket.MSG_CMSG_CLOEXEC)
    if len(header) == 8:
        size = int.from_bytes(header, "little")
        data = sock.recv(size, socket.MSG_WAITALL)
        if len(data) == size:
            return pickle.loads(data), fds
    for fd in fds:
        os.close(fd)
    raise EOFError("fork server control socket closed")


def _named_modules(data: bytes) -> list[str]:
    """The modules whose globals the pickle ``data`` names, read off its
    opcodes: what unpickling it would import, without building anything.

    ``STACK_GLOBAL`` takes its module and name from the two values pushed
    just before it (``MEMOIZE`` aside), strings or memo reads of strings.
    """
    import pickletools

    memo: dict[int, _t.Any] = {}
    pushed: list[_t.Any] = [None, None]
    modules = []
    for opcode, arg, _ in pickletools.genops(data):
        name = opcode.name
        if name == "MEMOIZE":
            memo[len(memo)] = pushed[-1]
            continue
        if name.endswith("PUT"):
            memo[arg] = pushed[-1]
            continue
        if name in ("GLOBAL", "INST"):
            modules.append(arg.partition(" ")[0])
        elif name == "STACK_GLOBAL" and isinstance(pushed[-2], str):
            modules.append(pushed[-2])
        value = arg if "UNICODE" in name else memo.get(arg) if name.endswith("GET") else None
        pushed = [pushed[-1], value]
    return modules


def _fork_server(control) -> None:
    """Loop of the fork server ("zygote"), one per parent process.

    Runs in the process :data:`_BOOTSTRAP` starts, single-threaded.  Each
    request on ``control`` is ``(sys.path, main reference, cwd, modules,
    pickled spec, stdio targets)`` with the worker's descriptors riding
    on it: its end of the job connection, the write end of its status
    pipe, then the parent's current stdout/stderr for the targets listed.
    ``modules`` are those the spec's pickle names, ``__main__`` aside
    (:func:`_named_modules`, run in the parent while the server boots).
    The server imports them (it builds no spec object: each child
    unpickles its own), forks, and answers ``(pid, stamps)`` with a pidfd
    of the child; ``stamps`` holds ``(st_mtime_ns, st_size)`` of each
    module file it has not reported before.  It reaps every child it
    forked, writing the exit code to the child's status pipe, and exits
    once ``control`` is at EOF and its last child is gone.
    """
    from multiprocessing.connection import wait

    children: dict[int, tuple[int, int]] = {}  # pidfd -> (pid, status fd)
    stamped: set[str] = set()
    try:
        while control is not None or children:
            ready = wait([control, *children] if control is not None else [*children])
            for pidfd in [fd for fd in ready if fd in children]:
                pid, status = children.pop(pidfd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                try:
                    os.write(status, str(code).encode())
                except OSError:  # the parent closed its end already
                    pass
                os.close(status)
                os.close(pidfd)
            if control is None or control not in ready:
                continue
            try:
                request, fds = _recv(control)
            except (EOFError, OSError):
                control.close()
                control = None
                continue
            stamps = _import_named(request[0], request[3], stamped)
            pid = os.fork()
            if pid == 0:
                _become_worker(control, children, request, fds)
            for fd in (fds[0], *fds[2:]):
                os.close(fd)
            pidfd = os.pidfd_open(pid)
            children[pidfd] = (pid, fds[1])
            try:
                _send(control, (pid, stamps), [pidfd])
            except OSError:  # the parent went away; EOF comes next
                pass
    except KeyboardInterrupt:
        pass
    # As a worker does: no interpreter teardown for the parent to wait out.
    _flush_stdio()
    os._exit(0)


def _import_named(
    path: list[str], modules: list[str], stamped: set[str]
) -> dict[str, tuple[int, int]]:
    """In the fork server, before a fork: import ``modules`` from
    ``path``, and return the stamp of each module file not in ``stamped``
    (which it extends).  A module that fails to import is left to the
    child, which meets the error again when it unpickles its spec and
    answers every job with it."""
    import importlib

    sys.path[:] = path
    for name in modules:
        if name not in sys.modules:
            try:
                importlib.import_module(name)
            except Exception:  # noqa: BLE001 - the child reports it
                pass
    stamps = {}
    for module in list(sys.modules.values()):
        file = getattr(module, "__file__", None)
        if file and file not in stamped:
            stamped.add(file)
            try:
                stat = os.stat(file)
            except OSError:
                continue
            stamps[file] = (stat.st_mtime_ns, stat.st_size)
    # Nothing buffered here may be written again by a child.
    _flush_stdio()
    return stamps


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except (OSError, ValueError):
                pass


def _become_worker(control, children, request, fds) -> _t.NoReturn:
    """Runs in a child the fork server just forked: drop the server's
    descriptors, take the parent's stdout, stderr, cwd and ``sys.path``,
    then serve jobs.  Never returns into the server's loop."""
    try:
        path, main, cwd, _, spec, targets = request
        conn, status, *streams = fds
        control.close()
        for pidfd, (_, other) in children.items():
            os.close(pidfd)
            os.close(other)
        os.close(status)
        for target, stream in zip(targets, streams):
            os.dup2(stream, target)
            os.close(stream)
        os.chdir(cwd)
        sys.path[:] = path
        from multiprocessing.connection import Connection

        _serve(Connection(conn), main, spec)
    except BaseException:  # noqa: BLE001 - reported as a launched child would
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(1)


class _ForkServer:
    """Parent-side handle of the fork server: a ``python -c _BOOTSTRAP``
    child started with ``Popen`` and spoken to over a socket pair."""

    def __init__(self) -> None:
        import socket
        import subprocess

        ours, theirs = socket.socketpair()
        try:
            self.process = subprocess.Popen(
                [
                    sys.executable,
                    *subprocess._args_from_interpreter_flags(),
                    "-c",
                    _BOOTSTRAP,
                    str(theirs.fileno()),
                ],
                pass_fds=(theirs.fileno(),),
                stdin=subprocess.DEVNULL,
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self.control = ours
        #: What a worker forked from here shares with the server rather
        #: than taking from its request: a change to any retires it.
        self.environ = dict(os.environ)
        self.cwd = os.getcwd()
        self.path = _search_path()
        #: ``{path: (st_mtime_ns, st_size)}`` of each module file the
        #: server imported, as it stood after the import.
        self.stamps: dict[str, tuple[int, int]] = {}
        #: Workers forked here whose handles are not reaped yet.
        self.workers = 0
        _send(ours, self.path)

    def stale(self) -> bool:
        """Whether a worker forked from here could differ from one the
        parent launched now: the server exited, the environment, cwd or
        ``sys.path`` moved, or a module file it imported changed."""
        if (
            self.process.poll() is not None
            or os.environ != self.environ
            or os.getcwd() != self.cwd
            or _search_path() != self.path
        ):
            return True
        for path, stamp in self.stamps.items():
            try:
                stat = os.stat(path)
            except OSError:
                return True
            if (stat.st_mtime_ns, stat.st_size) != stamp:
                return True
        return False

    def fork(self, request: tuple, fds: list[int]) -> tuple[int, int]:
        """``(pid, pidfd)`` of a worker forked for ``request``."""
        _send(self.control, request, fds)
        (pid, stamps), pidfds = _recv(self.control)
        self.stamps.update(stamps)
        self.workers += 1
        return pid, pidfds[0]


#: The process's fork server, started by the first worker spawn; servers
#: retired since, which exit once their last worker has; and the lock
#: that serializes spawn requests from several threads.
_server: _t.Optional[_ForkServer] = None
_retired: list[_ForkServer] = []
_server_lock = threading.Lock()


def _forget_fork_servers() -> None:
    # A child forked from this process shares none of its servers.
    global _server, _retired, _server_lock
    _server, _retired, _server_lock = None, [], threading.Lock()


os.register_at_fork(after_in_child=_forget_fork_servers)


def _retire_server() -> None:
    """Close the current server's control socket: it exits once its
    workers have."""
    global _server
    if _server is not None:
        _server.control.close()
        _retired.append(_server)
        _server = None


def _wait_retired(timeout: float = 5.0) -> None:
    """Wait, up to ``timeout`` seconds in all, for each retired server
    with no worker left: at EOF it exits at once."""
    import subprocess

    deadline = time.monotonic() + timeout
    for server in [server for server in _retired if not server.workers]:
        try:
            server.process.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            continue
        _retired.remove(server)


def _release(server: _ForkServer) -> None:
    """A worker of ``server`` has been reaped; a retired server whose
    last worker that was is waited for."""
    with _server_lock:
        server.workers -= 1
        if server is not _server:
            _wait_retired()


def _fork_worker(
    payload: bytes, conn: int, status: int
) -> tuple[_ForkServer, int, int]:
    """``(server, pid, pidfd)`` of a worker forked by the process's fork
    server for the pickled spec ``payload``, with ``conn`` its end of the
    job connection and ``status`` the write end of its status pipe.  The
    server is started first, or afresh when :meth:`_ForkServer.stale`;
    one that dies before answering is replaced once."""
    global _server
    import atexit

    with _server_lock:
        for attempt in (1, 2):
            if _server is not None and _server.stale():
                _retire_server()
                _wait_retired()
            if _server is None:
                atexit.unregister(_shut_down_fork_servers)
                atexit.register(_shut_down_fork_servers)
                _server = _ForkServer()
            # Built once the server is booting, which it does meanwhile.
            request, streams = _spawn_request(payload)
            try:
                return (_server, *_server.fork(request, [conn, status, *streams]))
            except (EOFError, OSError):
                code = _server.process.poll()
                _retire_server()
                if attempt == 2:
                    raise CampaignError(
                        f"the fleet's fork server exited (code {code})"
                        " before forking a worker"
                    ) from None


def _spawn_request(payload: bytes) -> tuple[tuple, list[int]]:
    """A spawn request for the pickled spec ``payload`` (see
    :func:`_fork_server`) and the stdio descriptors to send with it:
    those of stdout and stderr that are open here."""
    streams = []
    for fd in (1, 2):
        try:
            os.fstat(fd)
        except OSError:  # closed here, so closed in a launched child too
            continue
        streams.append(fd)
    modules = [name for name in _named_modules(payload) if name != "__main__"]
    path, main, cwd = _search_path(), _main_reference(), os.getcwd()
    return (path, main, cwd, modules, payload, streams), streams


def _shut_down_fork_servers(timeout: float = 5.0) -> None:
    """Retire the fork server and wait, up to ``timeout`` seconds, for
    each server of the process with no worker left to exit.  A server
    whose workers belong to pools still open exits after them, once this
    process has gone and they see EOF.  Registered with ``atexit`` when a
    server starts."""
    with _server_lock:
        _retire_server()
        _wait_retired(timeout)


def _search_path() -> list[str]:
    """The parent's ``sys.path``, with ``''`` made absolute as spawn does."""
    return [entry or os.getcwd() for entry in sys.path]


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


def _serve(conn, main: _t.Optional[tuple[str, str]], spec: bytes) -> _t.NoReturn:
    """Loop of one worker process: recv a job, run it, send its result.

    Runs in the child.  Each message from the parent is one ``(job,)``
    tuple and ``None`` is the shutdown signal; each answer is one
    ``(kind, payload)`` tuple.  A raising target, a job that cannot be
    unpickled or a result that cannot be pickled is reported as an error
    message rather than killing the worker, so one odd payload cannot
    eat the rest of the queue.  So is a spec that cannot be loaded: every
    job is answered with that reason, and the pool keeps this worker
    instead of replacing it after every job.  On the shutdown signal, and
    at EOF when the parent went away, the worker flushes its output and
    leaves by ``os._exit(0)``: it never returns, so a child forked from
    the fork server can never run on in the server's loop.
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
            try:
                conn.send(answer)
            except Exception as exc:  # noqa: BLE001 - e.g. unpicklable result
                conn.send(("error", f"result not serializable: {exc}"))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    conn.close()
    _flush_stdio()
    os._exit(0)


def _ready(fd: int, timeout: _t.Optional[float]) -> bool:
    from multiprocessing.connection import wait

    return bool(wait([fd], timeout))


class _ProcessWorker:
    """Parent-side handle of one worker process, forked by the fork
    server and speaking over one end of a socket pair.  ``pid``,
    :meth:`poll`, :meth:`kill` and ``returncode`` stand where a ``Popen``'s
    would: the server reaps the worker and writes its exit code to a
    status pipe, and a pidfd the server opened before any reap could
    happen is the only way the parent signals it, so a reused pid is
    never signalled."""

    __slots__ = (
        "worker_id", "pid", "conn", "held", "returncode", "_server", "_pidfd", "_status"
    )

    def __init__(self, spec: ProcessWorkerSpec, worker_id: int) -> None:
        from multiprocessing.connection import Pipe

        self.worker_id = worker_id
        payload = pickle.dumps(
            (spec.target, spec.context, worker_id), pickle.HIGHEST_PROTOCOL
        )
        parent_conn, child_conn = Pipe()
        status, status_end = os.pipe()
        try:
            self._server, self.pid, self._pidfd = _fork_worker(
                payload, child_conn.fileno(), status_end
            )
        except BaseException:
            parent_conn.close()
            os.close(status)
            raise
        finally:
            child_conn.close()
            os.close(status_end)
        self.conn = parent_conn
        self._status: _t.Optional[int] = status
        self.returncode: _t.Optional[int] = None
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

    @property
    def alive(self) -> bool:
        """Whether the worker process has not ended yet."""
        return self._pidfd is not None and not _ready(self._pidfd, 0)

    def exit_code(self, timeout: _t.Optional[float]) -> _t.Optional[int]:
        """The worker's exit code, after waiting up to ``timeout`` seconds
        for it to end; None while it runs, and for a worker whose fork
        server died before reaping it."""
        if (
            self.returncode is None
            and self._pidfd is not None
            and _ready(self._pidfd, timeout)
            and _ready(self._status, 5.0)
        ):
            data = os.read(self._status, 16)
            if data:
                self.returncode = int(data)
        return self.returncode

    def poll(self) -> _t.Optional[int]:
        """The exit code if the worker has ended, else None."""
        return self.exit_code(0)

    def kill(self, signum: _t.Optional[int] = None) -> None:
        """Send ``signum`` (default ``SIGKILL``) through the pidfd; a
        worker already reaped is not signalled."""
        import signal

        try:
            signal.pidfd_send_signal(self._pidfd, signum or signal.SIGKILL)
        except ProcessLookupError:
            pass

    def reap(self, timeout: float = 5.0) -> None:
        """Escalating teardown: wait politely, then ``SIGTERM``, then —
        the last resort a hung or signal-blocking child cannot dodge —
        ``SIGKILL``.  A straggler can therefore never stall interpreter
        exit for more than ``timeout`` + two grace waits.
        """
        import signal

        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        if self._pidfd is None:
            return
        if self.exit_code(timeout) is None and self.alive:  # a stuck worker
            self.kill(signal.SIGTERM)
            if self.exit_code(1.0) is None and self.alive:  # SIGTERM ignored
                self.kill(signal.SIGKILL)
                self.exit_code(1.0)
        os.close(self._pidfd)
        os.close(self._status)
        self._pidfd = self._status = None
        _release(self._server)


class ProcessPool:
    """A warm, reusable fleet of worker processes — the ``processes``
    lane of :class:`~repro.campaign.fleet.Fleet`.

    Every worker, replacements included, is forked from the process's
    fork server (:func:`_fork_worker`), which imports the target's
    closure once per process.  Even a fork costs more than most
    individual jobs, so the pool keeps its workers alive between
    :meth:`run` calls: callers issuing several waves of jobs (a
    campaign's main pass followed by its flake-detection reruns, an
    exploration's waves) reuse the same warm workers instead of paying
    the spawn tax per wave.  One job travels per pipe
    message and one result streams back per job, so crash attribution
    and fail-fast are exact.

    The pool is also the shutdown-hardening point: :meth:`close` asks
    every worker to exit, joins within a bounded timeout, and escalates
    ``SIGTERM`` -> ``SIGKILL`` for stragglers, so a hung worker can never
    wedge the parent on exit.
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
        return sum(1 for worker in self._workers if worker.alive)

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
        # keyed into this run's positions), hand the others a job each,
        # then bring the pool up to strength (never more workers than
        # jobs), each new worker taking its job as soon as it is forked.
        for worker in list(self._workers):
            if worker.held is not None or not worker.alive:
                worker.reap(timeout=0.1)
                self._workers.remove(worker)
        for worker in self._workers:
            if queue:
                worker.send(*queue.popleft())
        while len(self._workers) < min(self.size, len(jobs)):
            self._spawn().send(*queue.popleft())

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
                    results[key] = self.spec.crash_result(
                        job,
                        f"worker process exited with code {worker.exit_code(1.0)}",
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
