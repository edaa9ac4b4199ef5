"""Cold start stays on the standard library.

Every CLI launch and every spawn-started fleet worker pays the package's
import time before it does any work (scipy alone was ~1 s of a ~1.3 s
start).  These tests pin *what* gets imported, not how long it takes:
third-party packages load at their call site or not at all.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BANNED = {"numpy", "scipy", "networkx", "hypothesis", "pytest"}


def fresh_interpreter(*args):
    """Run ``python *args`` with only ``src/`` on the path; return stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def top_level(modules):
    return {name.partition(".")[0] for name in modules}


def test_importing_the_cli_loads_no_third_party_package():
    modules = json.loads(
        fresh_interpreter(
            "-c", "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))"
        )
    )
    assert "repro.campaign.diff" in modules  # the module that used to pull scipy in
    assert not top_level(modules) & BANNED


def test_fleet_worker_runs_a_recipe_on_the_stdlib_alone():
    report = json.loads(fresh_interpreter(str(ROOT / "tests" / "import_budget_probe.py")))
    # The recipe really ran: load was driven and the checks evaluated.
    assert report["status"] in ("pass", "fail", "inconclusive")
    assert "repro.campaign.runner" in report["modules"]
    assert not top_level(report["modules"]) & BANNED


def test_compare_cdfs_loads_scipy_on_demand():
    pytest.importorskip("scipy")
    out = fresh_interpreter(
        "-c",
        "import sys, repro.cli\n"
        "from repro.analysis import compare_cdfs\n"
        "before = 'scipy' in sys.modules\n"
        "compare_cdfs([1.0, 2.0], [1.0, 2.0])\n"
        "print(before, 'scipy.stats' in sys.modules)\n",
    )
    assert out.split() == ["False", "True"]
