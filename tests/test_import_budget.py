"""Cold start stays on the standard library.

Every CLI launch and every process-lane fleet worker pays the package's
import time before it does any work (scipy alone was ~1 s of a ~1.3 s
start).  These tests pin *what* gets imported, not how long it takes:
third-party packages load at their call site or not at all.
"""

import json
import os
import pathlib
import re
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


def modules_after(statement):
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    return json.loads(
        fresh_interpreter(
            "-c", f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
        )
    )


def test_importing_the_cli_loads_no_third_party_package():
    # repro.campaign.diff is the module that used to pull scipy in.
    modules = modules_after("import repro.cli, repro.campaign.diff")
    assert not top_level(modules) & BANNED


def test_importing_the_cli_loads_no_command_module():
    """Each command imports what it runs; the parser needs none of it."""
    heavy = re.compile(r"repro\.(apps|campaign\.runner|explore|fuzz|observability)(\.|$)")
    assert [name for name in modules_after("import repro.cli") if heavy.match(name)] == []


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.cli",
        "import repro.campaign.runner, repro.explore.executor, repro.fuzz.harness",
        "from repro.campaign import Fleet, ProcessWorkerSpec\n"
        "spec = ProcessWorkerSpec(target=lambda worker_id, job, context: job * 2)\n"
        "with Fleet(spec, workers=2) as fleet:\n"
        "    assert fleet.run([1, 2, 3]) == {0: 2, 1: 4, 2: 6}",
    ],
    ids=["cli", "drivers", "thread-fleet"],
)
def test_only_the_processes_backend_loads_the_process_lane(statement):
    """A process-lane module is ``repro.campaign.processes`` or any
    other module that defines the fork server's loop, wherever the lane
    lives."""
    lane = fresh_interpreter(
        "-c",
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(name for name, module in list(sys.modules.items())"
        " if name == 'repro.campaign.processes'"
        " or '_fork_server' in getattr(module, '__dict__', {}))))",
    )
    assert json.loads(lane) == []


def test_the_kernel_imports_nothing_else_of_the_package():
    modules = modules_after("from repro.simulation import Simulator")
    outside = [
        name
        for name in modules
        if name.partition(".")[0] == "repro"
        and name not in ("repro", "repro.errors", "repro.util")
        and not name.startswith("repro.simulation")
    ]
    assert outside == []


def test_fleet_worker_runs_a_recipe_on_the_stdlib_alone():
    report = json.loads(fresh_interpreter(str(ROOT / "tests" / "import_budget_probe.py")))
    # The recipe really ran: load was driven and the checks evaluated.
    assert report["status"] in ("pass", "fail", "inconclusive")
    assert "repro.campaign.runner" in report["modules"]
    assert not top_level(report["modules"]) & BANNED


def test_fleet_worker_imports_only_what_its_pickles_name():
    """A worker started from a script whose target lives in an importable
    module never runs the script, and loads neither the drivers it does
    not use nor the apps it does not build."""
    report = json.loads(fresh_interpreter(str(ROOT / "tests" / "worker_imports_probe.py")))
    assert report["status"] in ("pass", "fail", "inconclusive")
    # Importing multiprocessing aliases __mp_main__ to the running
    # __main__; only a re-run of the parent's script is named so.
    assert report["mp_main"] != "__mp_main__"
    unused = re.compile(r"repro\.(explore|fuzz|analysis|cli)(\.|$)")
    assert [name for name in report["modules"] if unused.match(name)] == []
    apps = [name for name in report["modules"] if name.startswith("repro.apps.")]
    assert apps == ["repro.apps.trees"]


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
