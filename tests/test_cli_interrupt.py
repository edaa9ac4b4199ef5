"""Interrupting a process-lane ``repro campaign run`` while jobs are in flight.

An operator stops a campaign with Ctrl-C (SIGINT to the CLI, or to its
whole process group as a terminal sends it) or a supervisor stops it
with SIGTERM.  Either way the CLI ends promptly, writes no dump — not
even a half-written ``*.tmp`` beside ``--out`` — and leaves neither its
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
        assert cli.poll() is None, "the campaign ended before it was interrupted"
        found = [(pid, worker) for pid, worker in _fleet_processes() if pid not in before]
        workers = [pid for pid, worker in found if worker]
        if len(workers) == 2:
            return [pid for pid, worker in found if not worker], workers
        time.sleep(0.02)
    raise AssertionError("the campaign's workers never came up")


@pytest.mark.parametrize(
    "signum, group, code",
    [
        (signal.SIGINT, False, 130),
        (signal.SIGINT, True, 130),
        (signal.SIGTERM, False, -signal.SIGTERM),
    ],
    ids=["sigint-pid", "sigint-group", "sigterm-pid"],
)
def test_an_interrupted_campaign_ends_leaving_no_dump_and_no_process(
    tmp_path, signum, group, code
):
    out = tmp_path / "out"
    out.mkdir()
    before = {pid for pid, _ in _fleet_processes()}
    with open(tmp_path / "stderr.txt", "w") as stderr:
        cli = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run", "socialnetwork",
                "--backend", "processes", "--workers", "2", "--out", str(out / "d.jsonl"),
            ],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,  # its own group, as a terminal's job is
        )
    try:
        servers, workers = fleet_of(cli, before)
        assert len(servers) == 1
        time.sleep(0.3)  # well into the workers' first jobs
        sent = time.monotonic()
        if group:
            os.killpg(cli.pid, signum)
        else:
            cli.send_signal(signum)
        assert cli.wait(timeout=10.0) == code
        assert time.monotonic() - sent < 10.0
    finally:
        cli.kill()
        cli.wait()
    # Zombies reparented to PID 1 count as gone: a pidfd turns readable
    # when its process exits, whoever reaps it.
    assert gone_within([*servers, *workers], 10.0)
    assert os.listdir(out) == []
    stderr = (tmp_path / "stderr.txt").read_text()
    if signum == signal.SIGINT:
        assert stderr.splitlines() == ["repro: interrupted"]
    else:
        assert stderr == ""
