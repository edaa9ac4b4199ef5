"""Interrupting a CLI fleet run while jobs are in flight.

An operator stops a ``repro campaign run``, ``repro fuzz run`` or
``repro fuzz explore`` with Ctrl-C (SIGINT to the CLI, or to its whole
process group as a terminal sends it) or a supervisor stops it with
SIGTERM.  Either way the CLI ends promptly, writes no output file —
not even a half-written ``*.tmp`` beside it — and leaves neither its
fork server nor a worker running.  Ctrl-C reads as one stderr line and
exit code 130; SIGTERM keeps Python's default, death by the signal.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from tests.campaign.test_fork_server import gone_within
from tests.conftest import _fleet_processes

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def fleet_of(cli, before, seconds=120.0):
    """``(server, workers)`` of ``cli``'s fleet once both of its workers
    are up, each holding its first job: the fleet processes among this
    process's descendants that were not there ``before``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        assert cli.poll() is None, "the CLI ended before it was interrupted"
        found = [(pid, worker) for pid, worker in _fleet_processes() if pid not in before]
        workers = [pid for pid, worker in found if worker]
        if len(workers) == 2:
            return [pid for pid, worker in found if not worker], workers
        time.sleep(0.02)
    raise AssertionError("the CLI's workers never came up")


SIGNALS = pytest.mark.parametrize(
    "signum, group, code",
    [
        (signal.SIGINT, False, 130),
        (signal.SIGINT, True, 130),
        (signal.SIGTERM, False, -signal.SIGTERM),
    ],
    ids=["sigint-pid", "sigint-group", "sigterm-pid"],
)


def interrupt(tmp_path, argv, signum, group, code):
    """Run ``repro *argv`` from ``tmp_path``, signal it once both of its
    workers hold a job, and check how it ended.  Its output files go
    under ``tmp_path / "out"``, which must be left empty.

    A thread-lane run has no worker process to wait for: it is signalled
    once it has printed its plan, which it does just before its fleet
    starts, and given the same 0.3 s to get into its jobs."""
    out = tmp_path / "out"
    out.mkdir()
    threads = "threads" in argv
    before = {pid for pid, _ in _fleet_processes()}
    with open(tmp_path / "stderr.txt", "w") as stderr:
        cli = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1"),
            stdout=subprocess.PIPE if threads else subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,  # its own group, as a terminal's job is
            text=True,
        )
    try:
        if threads:
            servers, workers = [], []
            assert cli.stdout.readline().startswith("campaign "), "no plan printed"
        else:
            servers, workers = fleet_of(cli, before)
            assert len(servers) == 1
        time.sleep(0.3)  # well into the workers' first jobs
        sent = time.monotonic()
        if group:
            os.killpg(cli.pid, signum)
        else:
            cli.send_signal(signum)
        assert cli.wait(timeout=10.0) == code
        # A thread-lane run has nothing to close but the interpreter: a
        # worker thread that kept it alive would drain the plan first.
        assert time.monotonic() - sent < (2.0 if threads else 10.0)
    finally:
        cli.kill()
        cli.wait()
        if cli.stdout is not None:
            cli.stdout.close()
    # Zombies reparented to PID 1 count as gone: a pidfd turns readable
    # when its process exits, whoever reaps it.
    assert gone_within([*servers, *workers], 10.0)
    assert [pid for pid, _ in _fleet_processes() if pid not in before] == []
    assert os.listdir(out) == []
    stderr = (tmp_path / "stderr.txt").read_text()
    if signum == signal.SIGINT:
        assert stderr.splitlines() == ["repro: interrupted"]
    else:
        assert stderr == ""


@SIGNALS
def test_an_interrupted_campaign_ends_leaving_no_dump_and_no_process(
    tmp_path, signum, group, code
):
    interrupt(
        tmp_path,
        [
            "campaign", "run", "socialnetwork",
            "--backend", "processes", "--workers", "2", "--out", "out/d.jsonl",
        ],
        signum, group, code,
    )


@SIGNALS
def test_an_interrupted_exploration_ends_leaving_no_report_and_no_process(
    tmp_path, signum, group, code
):
    # All three seeded apps at the default budget run for seconds, so
    # the signal lands inside the first app's waves.
    interrupt(
        tmp_path,
        [
            "fuzz", "explore", "all", "--budget", "150",
            "--backend", "processes", "--workers", "2", "--coverage-out", "out/c.json",
        ],
        signum, group, code,
    )


@SIGNALS
def test_an_interrupted_thread_lane_campaign_ends_leaving_no_dump(
    tmp_path, signum, group, code
):
    # The workers are daemon threads of the CLI itself: nothing of the
    # run may keep the interpreter alive once the interrupt is raised.
    interrupt(
        tmp_path,
        [
            "campaign", "run", "socialnetwork",
            "--backend", "threads", "--workers", "2", "--out", "out/d.jsonl",
        ],
        signum, group, code,
    )


@SIGNALS
def test_an_interrupted_fuzz_run_ends_leaving_no_artifact_and_no_process(
    tmp_path, signum, group, code
):
    # 100 cases take a few seconds on two workers; 2 000 outlast the
    # signal by far.  Failing cases would be written into ``out``.
    interrupt(
        tmp_path,
        [
            "fuzz", "run", "--cases", "2000",
            "--backend", "processes", "--workers", "2", "--artifacts", "out",
        ],
        signum, group, code,
    )


#: Run ``repro.cli.main`` on ``sys.argv[1:]`` with a test-only seam in
#: ``repro.artifact.write_atomic``: the temp file's handle writes half
#: of the text, flushes it, prints ``held`` and blocks there.
HELD_WRITE = """
import sys, time
import repro.artifact as artifact

class Held:
    def __init__(self, handle):
        self.handle = handle
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        self.handle.close()
    def fileno(self):
        return self.handle.fileno()
    def flush(self):
        self.handle.flush()
    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        self.handle.flush()
        print("held", flush=True)
        while True:
            time.sleep(1)

artifact.open = lambda fd, mode: Held(open(fd, mode))
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


@SIGNALS
def test_a_signal_during_the_dump_write_leaves_no_torn_dump_and_no_temp_file(
    tmp_path, signum, group, code
):
    """The signal lands while ``write_atomic`` holds a temp file with half
    of the dump in it: the dump is absent (or complete), and no ``*.tmp``
    is left beside it."""
    out = tmp_path / "out"
    out.mkdir()
    with open(tmp_path / "stderr.txt", "w") as stderr:
        cli = subprocess.Popen(
            [
                sys.executable, "-c", HELD_WRITE,
                "campaign", "run", "twotier", "--max-recipes", "2",
                "--backend", "threads", "--workers", "1", "--out", "out/d.jsonl",
            ],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1"),
            stdout=subprocess.PIPE,
            stderr=stderr,
            start_new_session=True,
            text=True,
        )
    try:
        assert "held\n" in iter(cli.stdout.readline, ""), "the dump write never started"
        assert [path.name for path in out.iterdir() if path.suffix == ".tmp"]
        if group:
            os.killpg(cli.pid, signum)
        else:
            cli.send_signal(signum)
        assert cli.wait(timeout=10.0) == code
    finally:
        cli.kill()
        cli.wait()
        cli.stdout.close()
    left = sorted(path.name for path in out.iterdir())
    assert left in ([], ["d.jsonl"])
    if left:
        from repro.campaign.io import load_jsonl

        assert load_jsonl(out / "d.jsonl").outcomes
    stderr = (tmp_path / "stderr.txt").read_text()
    if signum == signal.SIGINT:
        assert stderr.splitlines() == ["repro: interrupted"]
    else:
        assert stderr == ""


def test_a_reader_that_closes_stdout_early_ends_the_cli_quietly(tmp_path):
    """``repro campaign run ... | head -1``: the reader takes the plan
    line and goes.  The campaign still runs and writes its dump; printing
    the scorecard into the closed pipe then ends the CLI with exit code
    141, no traceback, and the dump complete."""
    from repro.campaign.io import load_jsonl
    from repro.cli import EXIT_STDOUT_CLOSED

    with open(tmp_path / "stderr.txt", "w") as stderr:
        cli = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run", "socialnetwork",
                "--max-recipes", "6", "--workers", "1", "--out", "d.jsonl",
            ],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1"),
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
        )
    try:
        assert cli.stdout.readline().startswith("campaign ")
        cli.stdout.close()
        assert cli.wait(timeout=120.0) == EXIT_STDOUT_CLOSED
    finally:
        cli.kill()
        cli.wait()
    assert (tmp_path / "stderr.txt").read_text() == ""
    assert len(load_jsonl(tmp_path / "d.jsonl").outcomes) == 6
    assert sorted(path.name for path in tmp_path.iterdir()) == ["d.jsonl", "stderr.txt"]
