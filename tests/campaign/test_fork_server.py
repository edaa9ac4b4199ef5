"""The fork server: every process-lane worker is forked from one
pre-imported server per process.

The first spawn of a process starts the server (``processes._server``), a
``python -c _BOOTSTRAP`` child.  For each spawn request it imports the
modules the pool's pickled spec names, then forks the worker; so a
process's later pools, and every replacement, pay a fork instead of an
interpreter start and an import.  None of that may show in a result,
and a forked worker must see what a launched one saw: the tests below
compare against the thread lane, a serial run or a freshly launched
interpreter, and change what the server shares with its workers
(environment, cwd, a module file) between pools.

The fresh-interpreter tests run with ``PYTHONDONTWRITEBYTECODE=1``.
``probe_module.py`` and ``probe_late.py`` are written into each test's
own directory; the probe's ``VALUE`` line is what the tests edit.  An
edit that keeps the file's size and mtime cannot be seen, so a worker
that still answers with the old value was forked from a server that
imported the probe before the edit.

The fault tests (a killed server, a killed parent, a worker that exits
mid-job or ignores ``SIGTERM``, a worker whose parent goes away) use
test-only seams: targets defined here, and the pool's own handles.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.campaign import processes
from repro.campaign.fleet import Fleet, ProcessWorkerSpec
from repro.campaign.processes import ProcessPool
from tests.conftest import live_fleet_workers

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

PROBE = '''\
import os
import signal
import sys
import traceback

VALUE = "old"


def value(worker_id, job, context):
    if job == "die":
        os._exit(17)
    if job == "late":
        import probe_late

        return probe_late.VALUE
    if job == "has late":
        return "probe_late" in sys.modules
    if job == "where":
        return [os.getpid(), os.getppid()]
    if job == "env":
        return os.environ.get("PROBE_ENV")
    if job == "cwd":
        return os.getcwd()
    return VALUE


def raising(worker_id, job, context):
    raise ValueError(f"bad job {job!r}")


def traceback_of(worker_id, job, context):
    try:
        raising(worker_id, job, context)
    except ValueError:
        return traceback.format_exc()


def _record_unpickling(path):
    with open(path, "a") as log:
        log.write(f"{os.getpid()}\\n")
    return Traced(path)


class Traced:
    """A context that notes, in a file, every process that unpickles it."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (_record_unpickling, (self.path,))


def pid_of(worker_id, job, context):
    return os.getpid()


def say(worker_id, job, context):
    print(f"worker says {job}", end="")
    return job
'''

LATE = 'VALUE = "late"\n'

#: Shared by every script: the probe's path, an edit of the probe that
#: keeps or moves its mtime, a fleet run that reports each job's result
#: or crash, and the pid of the process's fork server.
PRELUDE = '''\
import json, os, sys
from repro.campaign import fleet, processes
import probe_module

PROBE = probe_module.__file__


def edit(old, new, keep_stamp):
    stat = os.stat(PROBE)
    with open(PROBE, encoding="utf-8") as source:
        text = source.read()
    with open(PROBE, "w", encoding="utf-8") as source:
        source.write(text.replace(old, new))
    if keep_stamp:
        os.utime(PROBE, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    else:
        os.utime(PROBE, ns=(stat.st_atime_ns, stat.st_mtime_ns + 2_000_000_000))


def run(target, jobs, workers=1, backend="processes", context=None):
    spec = fleet.ProcessWorkerSpec(
        target=target, context=context, on_crash=lambda job, detail: ["crashed", detail]
    )
    with fleet.Fleet(spec, workers=workers, backend=backend) as pool:
        results = pool.run(jobs)
    return [results[key] for key in range(len(jobs))]


def server():
    return processes._server.process.pid
'''


def write_probes(tmp_path):
    for name, text in [("probe_module.py", PROBE), ("probe_late.py", LATE)]:
        if not (tmp_path / name).exists():
            (tmp_path / name).write_text(text, encoding="utf-8")


def probe_environment(tmp_path, **env):
    environment = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    environment.update(env, PYTHONPATH=os.pathsep.join([SRC, str(tmp_path)]))
    return environment


def run_fresh(tmp_path, script, **env):
    """Run ``script`` after :data:`PRELUDE` in a fresh interpreter whose
    path holds ``src`` and the test's ``probe_module.py`` and
    ``probe_late.py``, written on the first call; its last stdout line,
    read as JSON."""
    write_probes(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(script)],
        cwd=tmp_path,
        env=probe_environment(tmp_path, **env),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def gone_within(pids, seconds):
    """Whether every process of ``pids`` has exited within ``seconds``
    (a pidfd turns readable when its process exits, whoever reaps it)."""
    import select

    pidfds = []
    for pid in pids:
        try:
            pidfds.append(os.pidfd_open(pid))
        except ProcessLookupError:  # gone already
            pass
    deadline = time.monotonic() + seconds
    try:
        while pidfds:
            ready, _, _ = select.select(pidfds, [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                return False
            for pidfd in ready:
                pidfds.remove(pidfd)
                os.close(pidfd)
        return True
    finally:
        for pidfd in pidfds:
            os.close(pidfd)


# -- outcomes and code, in fresh interpreters ---------------------------------


def test_outcomes_and_digests_equal_in_a_first_pool_a_later_pool_and_on_threads(tmp_path):
    """The first campaign's fleet starts the server, the second forks
    from it warm, the third runs on threads."""
    report = run_fresh(
        tmp_path,
        """
        from repro.apps import build_twotier
        from repro.campaign import CampaignRunner, dumps, plan_campaign

        VOLATILE = ("wall_time", "orchestration_time", "assertion_time",
                    "worker", "workers", "sha256")

        def campaign(backend):
            plan = plan_campaign(build_twotier, seed=9, requests=5, max_recipes=6)
            result = CampaignRunner(
                build_twotier, workers=2, timeout=None, backend=backend,
                rerun_failures=2,
            ).run(plan)
            lines = []
            for line in dumps(result).splitlines():
                doc = json.loads(line)
                for key in VOLATILE:
                    doc.pop(key, None)
                lines.append(json.dumps(doc, sort_keys=True))
            return [result.scorecard().text(), lines]

        first = campaign("processes")
        started = server()
        later = campaign("processes")
        print(json.dumps([started == server(), first, later, campaign("threads")]))
        """,
    )
    same_server, first, later, threads = report
    assert same_server
    assert first == threads
    assert later == threads


def test_an_unchanged_stamp_keeps_the_fork_server(tmp_path):
    """The control for the stamp tests below: an edit that keeps the
    probe's mtime and size leaves the server as it is, so its workers
    still run the code it imported."""
    assert run_fresh(
        tmp_path,
        """
        before = run(probe_module.value, ["x"])
        started = server()
        edit('VALUE = "old"', 'VALUE = "new"', keep_stamp=True)
        unseen = run(probe_module.value, ["x"])
        print(json.dumps(before + unseen + [server() == started]))
        """,
    ) == ["old", "old", True]


def test_a_later_pool_reuses_the_server_and_its_imports(tmp_path):
    """A module a job imports is the worker's own: the server never saw
    it, and a later pool's workers import it afresh, from the same
    server, which reports no new module."""
    report = run_fresh(
        tmp_path,
        """
        answers = run(probe_module.value, ["x", "late"])
        started, stamps = server(), dict(processes._server.stamps)
        answers += run(probe_module.value, ["has late", "late", "x"])
        print(json.dumps([
            answers, PROBE in stamps, server() == started,
            processes._server.stamps == stamps,
        ]))
        """,
    )
    answers, probe_stamped, same_server, no_new_stamps = report
    assert answers == ["old", "late", False, "late", "old"]
    assert probe_stamped and same_server and no_new_stamps


def test_an_edited_source_is_picked_up_between_pools(tmp_path):
    """The edit retires the server; the fresh one imports the edited
    module, so a later edit it cannot see runs the first edit."""
    assert run_fresh(
        tmp_path,
        """
        before = run(probe_module.value, ["x"])
        started = server()
        edit('VALUE = "old"', 'VALUE = "edited"', keep_stamp=False)
        edited = run(probe_module.value, ["x"])
        fresh = server()
        edit('VALUE = "edited"', 'VALUE = "unseen"', keep_stamp=True)
        print(json.dumps(before + edited + run(probe_module.value, ["x"])
                         + [fresh != started, server() == fresh]))
        """,
    ) == ["old", "edited", "edited", True, True]


@pytest.mark.parametrize(
    "new, keep_stamp", [('"new"', False), ('"newer"', True)], ids=["mtime", "size"]
)
def test_either_half_of_the_stamp_is_checked(tmp_path, new, keep_stamp):
    assert run_fresh(
        tmp_path,
        f"""
        first = run(probe_module.value, ["x"])
        edit('VALUE = "old"', 'VALUE = {new}', keep_stamp={keep_stamp})
        print(json.dumps(first + run(probe_module.value, ["x"])))
        """,
    ) == ["old", new.strip('"')]


def test_a_raising_target_crashes_alike_and_its_traceback_shows_the_source(tmp_path):
    report = run_fresh(
        tmp_path,
        """
        jobs = ["a", "b"]
        run(probe_module.value, ["x"])
        forked = [run(probe_module.raising, jobs), run(probe_module.traceback_of, jobs)]
        threads = [run(probe_module.raising, jobs, backend="threads"),
                   run(probe_module.traceback_of, jobs, backend="threads")]
        print(json.dumps([PROBE, forked, threads]))
        """,
    )
    probe, forked, threads = report
    assert forked == threads
    crashes, tracebacks = forked
    assert crashes == [
        ["crashed", "ValueError: bad job 'a'"],
        ["crashed", "ValueError: bad job 'b'"],
    ]
    line = PROBE.splitlines().index('    raise ValueError(f"bad job {job!r}")') + 1
    assert f'File "{probe}", line {line}, in raising' in tracebacks[0]
    assert 'raise ValueError(f"bad job {job!r}")' in tracebacks[0]


def test_with_bytecode_caches_workers_answer_alike(tmp_path):
    """Every module has a cache (written under a prefix of the test's
    own): the server loads it instead of compiling, and the answers do
    not change."""
    environment = {"PYTHONPYCACHEPREFIX": str(tmp_path / "pycache")}
    script = """
        answers = run(probe_module.value, ["x", "y"], workers=2)
        answers += run(probe_module.value, ["late", "x"], workers=2)
        print(json.dumps(answers))
        """
    # The first interpreter writes the caches, the second only reads them.
    run_fresh(tmp_path, script, PYTHONDONTWRITEBYTECODE="", **environment)
    assert run_fresh(tmp_path, script, **environment) == ["old", "old", "late", "old"]


def test_a_replacement_worker_is_forked_after_a_crash(tmp_path):
    report = run_fresh(
        tmp_path,
        """
        first = run(probe_module.value, ["x"])
        edit('VALUE = "old"', 'VALUE = "new"', keep_stamp=True)
        # The first worker dies holding "die"; its replacement answers.
        answers = run(probe_module.value, ["die", "where", "x"])
        print(json.dumps([first + answers, server()]))
        """,
    )
    answers, server_pid = report
    assert answers[:2] == ["old", ["crashed", "worker process exited with code 17"]]
    assert answers[2][1] == server_pid  # forked by the server, not launched
    assert answers[3] == "old"  # ... which imported the probe before the edit


def test_an_environment_change_starts_a_fresh_server(tmp_path):
    assert run_fresh(
        tmp_path,
        """
        before = run(probe_module.value, ["env"])
        started = server()
        os.environ["PROBE_ENV"] = "set"
        after = run(probe_module.value, ["env"])
        fresh = server()
        after += run(probe_module.value, ["env"])
        print(json.dumps(before + after + [fresh != started, server() == fresh]))
        """,
    ) == [None, "set", "set", True, True]


def test_a_cwd_change_starts_a_fresh_server_and_cwd_travels(tmp_path):
    (tmp_path / "elsewhere").mkdir()
    report = run_fresh(
        tmp_path,
        """
        before = run(probe_module.value, ["cwd"])
        started = server()
        os.chdir("elsewhere")
        after = run(probe_module.value, ["cwd"])
        print(json.dumps(before + after + [server() != started]))
        """,
    )
    assert report == [str(tmp_path), str(tmp_path / "elsewhere"), True]


def test_a_worker_writes_to_the_parents_current_stdout(tmp_path):
    """stdout redirected after the server started: a worker forked
    afterwards prints where the parent's stdout points now, as a child
    launched then would."""
    captured = tmp_path / "captured.txt"
    report = run_fresh(
        tmp_path,
        f"""
        run(probe_module.value, ["x"])
        started = server()
        saved = os.dup(1)
        with open({str(captured)!r}, "w") as target:
            os.dup2(target.fileno(), 1)
        try:
            run(probe_module.say, ["hello"])
        finally:
            os.dup2(saved, 1)
        print(json.dumps(server() == started))
        """,
    )
    assert report is True
    assert captured.read_text() == "worker says hello"


def test_no_spec_object_is_built_in_the_server(tmp_path):
    """The server imports what the spec's pickle names and nothing
    more: only the workers unpickle it, each its own copy."""
    log = tmp_path / "unpickled.log"
    report = run_fresh(
        tmp_path,
        f"""
        context = probe_module.Traced({str(log)!r})
        pids = run(probe_module.pid_of, ["a", "b", "c", "d"], workers=2, context=context)
        print(json.dumps([sorted(set(pids)), server()]))
        """,
    )
    workers, server_pid = report
    unpicklers = sorted(int(pid) for pid in log.read_text().split())
    assert server_pid not in unpicklers
    assert unpicklers == workers


def test_importing_repro_starts_no_server(tmp_path):
    write_probes(tmp_path)
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import glob, json, repro, repro.cli\n"
            "from repro.campaign import processes\n"
            "children = [open(p).read().split() for p in"
            " glob.glob('/proc/self/task/*/children')]\n"
            "print(json.dumps([processes._server is None, sum(children, [])]))\n",
        ],
        env=probe_environment(tmp_path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [True, []]


def test_the_server_is_single_threaded_and_exits_with_its_parent(tmp_path):
    """Started lazily by the first pool, the server holds one thread; it
    goes when the parent's interpreter exits (``atexit`` closes its
    control socket) and so does every worker."""
    write_probes(tmp_path)
    script = PRELUDE + textwrap.dedent(
        """
        spec = fleet.ProcessWorkerSpec(target=probe_module.value)
        pool = processes.ProcessPool(spec, size=2)
        pool.run(["where", "where"])
        with open(f"/proc/{server()}/status") as status:
            threads = [line.split()[1] for line in status if line.startswith("Threads:")]
        workers = [worker.pid for worker in pool._workers]
        print(json.dumps([server(), workers, threads]), flush=True)
        sys.stdin.read()  # until the test closes our stdin; the pool stays open
        """
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=probe_environment(tmp_path),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        server_pid, workers, threads = json.loads(parent.stdout.readline())
        assert threads == ["1"]
        pidfds = [os.pidfd_open(pid) for pid in [server_pid, *workers]]
        parent.stdin.close()
        assert parent.wait(30) == 0
        import select

        deadline = time.monotonic() + 10.0
        while pidfds and time.monotonic() < deadline:
            ready, _, _ = select.select(pidfds, [], [], 0.1)
            for pidfd in ready:
                pidfds.remove(pidfd)
                os.close(pidfd)
        assert not pidfds, "a fleet process outlived its parent"
    finally:
        parent.kill()
        parent.wait()


# -- fault tests, in this process ---------------------------------------------


def double_target(worker_id, job, context):
    return job * 2


def where_target(worker_id, job, context):
    if job == "die":
        os._exit(17)
    if job == "wedge":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(300)
    return [os.getpid(), os.getppid()]


def on_crash(job, detail):
    return ("crashed", job, detail)


def server_pid():
    return processes._server.process.pid


def test_a_server_killed_between_two_pools_is_replaced():
    from repro.apps import build_twotier
    from repro.campaign import CampaignRunner, plan_campaign

    plan = plan_campaign(build_twotier, seed=5, requests=4, max_recipes=6)
    serial = CampaignRunner(build_twotier, timeout=None, rerun_failures=1).run(plan)

    def statuses(result):
        return [(o.name, o.status, o.attempts, o.classification) for o in result.outcomes]

    spec = ProcessWorkerSpec(target=where_target, on_crash=on_crash)
    with ProcessPool(spec, size=1) as pool:
        pool.run(["x"])
    killed = server_pid()
    processes._server.process.kill()
    processes._server.process.wait()
    result = CampaignRunner(
        build_twotier, workers=2, backend="processes", timeout=None, rerun_failures=1
    ).run(plan)
    assert server_pid() != killed
    assert statuses(result) == statuses(serial)
    assert not live_fleet_workers()


def test_a_killed_parent_takes_its_server_and_workers_with_it(tmp_path):
    """SIGKILL a process mid-campaign: each worker sees EOF on its
    connection and exits, and the server sees EOF on its control socket
    and exits once they have."""
    write_probes(tmp_path)
    script = PRELUDE + textwrap.dedent(
        """
        spec = fleet.ProcessWorkerSpec(target=probe_module.value)
        pool = processes.ProcessPool(spec, size=2)
        pool.run(["x", "y", "z"])
        print(json.dumps([server(), [worker.pid for worker in pool._workers]]), flush=True)
        import time
        time.sleep(300)
        """
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=probe_environment(tmp_path),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        server, workers = json.loads(parent.stdout.readline())
        assert len(workers) == 2
        parent.kill()
        parent.wait()
        assert gone_within([server, *workers], 10.0)
    finally:
        parent.kill()
        parent.wait()


def test_close_is_bounded_for_a_worker_ignoring_sigterm_with_the_server_dead():
    """With the server alive this is ``test_process_fleet.py``'s
    ``test_close_force_kills_a_wedged_worker``; without it, the worker's
    exit code is lost, but ``SIGKILL`` still reaches it through its
    pidfd."""
    spec = ProcessWorkerSpec(target=where_target, on_crash=on_crash)
    pool = ProcessPool(spec, size=1)
    assert pool.run(["warm"])[0][0] > 0
    worker = pool._workers[0]
    worker.send(0, "wedge")
    time.sleep(0.5)  # let the child install its SIGTERM ignore
    processes._server.process.kill()
    processes._server.process.wait()
    started = time.monotonic()
    pool.close(timeout=1.0)
    assert time.monotonic() - started < 10.0
    assert gone_within([worker.pid], 5.0)
    assert worker.returncode is None


def test_serve_leaves_by_exit_on_eof_and_never_returns(monkeypatch):
    """A forked child must not run on in the server's loop: ``_serve``
    leaves by ``os._exit`` at EOF as on the shutdown signal."""
    import pickle
    from multiprocessing.connection import Pipe

    class Exited(BaseException):
        pass

    def exit_(code):
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", exit_)
    spec = pickle.dumps((double_target, None, 0))
    for last in ["eof", "shutdown"]:
        ours, theirs = Pipe()
        ours.send((3,))
        if last == "shutdown":
            ours.send(None)
        else:
            ours.close()
        with pytest.raises(Exited) as exited:
            processes._serve(theirs, None, spec)
        assert exited.value.args == (0,)
        if last == "shutdown":
            assert ours.recv() == ("ok", 6)
            ours.close()


def test_spawn_requests_from_several_threads_are_serialized():
    """Pools opened at once from several threads each get their workers,
    all forked by one server."""
    spec = ProcessWorkerSpec(target=where_target, on_crash=on_crash)
    results, errors = [], []

    def one_pool():
        try:
            with ProcessPool(spec, size=2) as pool:
                results.append(pool.run(["a", "b", "c"]))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=one_pool) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors
    assert len(results) == 4
    parents = {answer[1] for result in results for answer in result.values()}
    assert parents == {server_pid()}
    assert not live_fleet_workers()


def describe_signals(worker_id, job, context):
    """Each signal's disposition, and the blocked mask, as seen here."""
    dispositions = {}
    for signum in signal.valid_signals():
        try:
            handler = signal.getsignal(signum)
        except (OSError, ValueError):
            continue
        if not isinstance(handler, int) and handler is not None:
            handler = handler.__name__
        dispositions[int(signum)] = None if handler is None else str(handler)
    blocked = sorted(int(s) for s in signal.pthread_sigmask(signal.SIG_BLOCK, []))
    return {"dispositions": dispositions, "blocked": blocked}


def test_a_forked_worker_has_a_launched_workers_signal_dispositions():
    spec = ProcessWorkerSpec(target=describe_signals)
    with ProcessPool(spec, size=1) as pool:
        forked = pool.run([None])[0]
    root = str(pathlib.Path(__file__).resolve().parents[2])
    launched = subprocess.run(
        [
            sys.executable,
            *subprocess._args_from_interpreter_flags(),
            "-c",
            "import json\n"
            "from tests.campaign.test_fork_server import describe_signals\n"
            "print(json.dumps(describe_signals(0, None, None)))\n",
        ],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, root])),
        capture_output=True,
        text=True,
        timeout=120,
        stdin=subprocess.DEVNULL,
    )
    assert launched.returncode == 0, launched.stderr
    expected = json.loads(launched.stdout)
    expected["dispositions"] = {int(k): v for k, v in expected["dispositions"].items()}
    assert forked == expected
