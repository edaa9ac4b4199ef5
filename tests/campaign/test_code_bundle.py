"""The code bundle: process workers run code compiled once per process.

A process-lane worker would compile from source every module it imports
that has no bytecode cache.  A pool's first worker reports the code its
loader compiled, the parent keeps it (``fleet._bundle``), and every
worker spawned after that loads it while the source file's mtime and
size still match.  None of that may show in a result, so every test
here runs in a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1`` (no
``.pyc`` is read or written) and compares against the same run without
a bundle, or against what a compile from source gives.

``probe_module.py`` and ``probe_late.py`` are written into each test's
own directory, so they never have a cache: they are bundled even where
``src`` is byte-compiled.  The probe's ``VALUE`` line is what the tests
edit.  An edit that keeps the file's size and mtime cannot be seen by
the worker, so a worker that still answers with the old value ran
bundled code; that is how the tests tell a bundled module from a
compiled one.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

PROBE = '''\
import os
import sys
import traceback

VALUE = "old"


def value(worker_id, job, context):
    if job == "die":
        os._exit(13)
    if job == "late":
        import probe_late

        return probe_late.VALUE
    return VALUE


def raising(worker_id, job, context):
    raise ValueError(f"bad job {job!r}")


def traceback_of(worker_id, job, context):
    try:
        raising(worker_id, job, context)
    except ValueError:
        return traceback.format_exc()
'''

LATE = 'VALUE = "late"\n'

#: Shared by every script: the probe's path, an edit of the probe that
#: keeps or moves its mtime, a fleet run that reports each job's result
#: or crash, the bundle's index and code, and a way to drop the bundle.
PRELUDE = '''\
import json, marshal, os, sys
from repro.campaign import fleet
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


def run(target, jobs, workers=1):
    spec = fleet.ProcessWorkerSpec(
        target=target, on_crash=lambda job, detail: ["crashed", detail]
    )
    with fleet.Fleet(spec, workers=workers, backend="processes") as pool:
        results = pool.run(jobs)
    return [results[key] for key in range(len(jobs))]


def index():
    return fleet._bundle.index


def bundled_code(path):
    mtime_ns, size, offset, length = index()[path]
    return marshal.loads(os.pread(fleet._bundle.file.fileno(), length, offset))


def without_bundle():
    fleet._bundle = None
'''


def run_fresh(tmp_path, script, **env):
    """Run ``script`` after :data:`PRELUDE` in a fresh interpreter whose
    path holds ``src`` and the test's ``probe_module.py`` and
    ``probe_late.py``, written on the first call; its last stdout line,
    read as JSON."""
    for name, text in [("probe_module.py", PROBE), ("probe_late.py", LATE)]:
        if not (tmp_path / name).exists():
            (tmp_path / name).write_text(text, encoding="utf-8")
    environment = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    environment.update(env, PYTHONPATH=os.pathsep.join([SRC, str(tmp_path)]))
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(script)],
        cwd=tmp_path,
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_outcomes_and_digests_equal_with_and_without_a_bundle(tmp_path):
    """The first campaign's fleet fills the bundle, the second runs on
    it, the third compiles everything from source."""
    report = run_fresh(
        tmp_path,
        """
        from repro.apps import build_twotier
        from repro.campaign import CampaignRunner, dumps, plan_campaign

        VOLATILE = ("wall_time", "orchestration_time", "assertion_time",
                    "worker", "workers", "sha256")

        def campaign():
            plan = plan_campaign(build_twotier, seed=9, requests=5, max_recipes=6)
            result = CampaignRunner(
                build_twotier, workers=2, timeout=None, backend="processes"
            ).run(plan)
            lines = []
            for line in dumps(result).splitlines():
                doc = json.loads(line)
                for key in VOLATILE:
                    doc.pop(key, None)
                lines.append(json.dumps(doc, sort_keys=True))
            return [result.scorecard().text(), lines]

        filling = campaign()
        size = len(index())
        bundled = campaign()
        without_bundle()
        print(json.dumps([size, filling, bundled, campaign()]))
        """,
    )
    size, filling, bundled, compiled = report
    assert size > 0
    assert bundled == compiled
    assert filling == compiled


def test_bundled_code_is_what_a_worker_runs(tmp_path):
    """The control for the tests below: once a pool has filled the
    bundle, an edit the worker cannot see leaves it on the bundled code,
    and without a bundle it compiles the edit."""
    assert run_fresh(
        tmp_path,
        """
        filling = run(probe_module.value, ["x"])
        edit('VALUE = "old"', 'VALUE = "new"', keep_stamp=True)
        unseen = run(probe_module.value, ["x"])
        without_bundle()
        print(json.dumps(filling + unseen + run(probe_module.value, ["x"])))
        """,
    ) == ["old", "old", "new"]


def test_later_imports_are_reported_and_a_covered_pool_adds_nothing(tmp_path):
    """A module first imported by a later job still gets reported, and
    a second pool whose first worker compiles nothing adds nothing."""
    report = run_fresh(
        tmp_path,
        """
        before = set(index())
        answers = run(probe_module.value, ["x", "late"])
        filled = dict(index())
        answers += run(probe_module.value, ["late", "x"])
        late = os.path.join(os.path.dirname(PROBE), "probe_late.py")
        print(json.dumps([
            sorted(before), answers, PROBE in filled, late in filled,
            index() == filled, fleet._bundle.file.tell(),
            sum(entry[3] for entry in index().values()),
        ]))
        """,
    )
    before, answers, probe, late, unchanged, end, total = report
    assert before == []
    assert answers == ["old", "late", "late", "old"]
    assert probe and late and unchanged
    assert end == total  # every byte of the file is indexed code, once


def test_a_source_edited_after_the_bundle_is_compiled_from_source(tmp_path):
    """The edited module is compiled, and its new code replaces the old
    in the bundle: a later edit the worker cannot see runs it."""
    assert run_fresh(
        tmp_path,
        """
        before = run(probe_module.value, ["x"])
        assert PROBE in index()
        edit('VALUE = "old"', 'VALUE = "edited"', keep_stamp=False)
        edited = run(probe_module.value, ["x"])
        stat = os.stat(PROBE)
        assert index()[PROBE][:2] == (stat.st_mtime_ns, stat.st_size)
        edit('VALUE = "edited"', 'VALUE = "unseen"', keep_stamp=True)
        print(json.dumps(before + edited + run(probe_module.value, ["x"])))
        """,
    ) == ["old", "edited", "edited"]


def test_each_bundled_code_object_equals_a_fresh_compile(tmp_path):
    """Compiled as the import system compiles: ``fleet.py``'s own
    ``from __future__ import annotations`` must not reach a module
    without it, such as the probe."""
    report = run_fresh(
        tmp_path,
        """
        import __future__

        FUTURE = __future__.annotations.compiler_flag
        run(probe_module.value, ["x"])
        report = {}
        for path in index():
            bundled = bundled_code(path)
            with open(path, "rb") as source:
                fresh = compile(source.read(), path, "exec", dont_inherit=True)
            report[path] = [bundled == fresh, bool(bundled.co_flags & FUTURE),
                            bool(fresh.co_flags & FUTURE)]
        print(json.dumps([PROBE, fleet.__file__, report]))
        """,
    )
    probe, fleet_path, modules = report
    assert modules, "nothing was bundled"
    assert probe in modules
    assert all(equal for equal, _, _ in modules.values())
    assert modules[probe] == [True, False, False]
    if fleet_path in modules:  # without a cache of src
        assert modules[fleet_path] == [True, True, True]


def test_a_raising_target_crashes_alike_and_its_traceback_shows_the_source(tmp_path):
    report = run_fresh(
        tmp_path,
        """
        jobs = ["a", "b"]
        run(probe_module.value, ["x"])
        bundled = [run(probe_module.raising, jobs), run(probe_module.traceback_of, jobs)]
        assert PROBE in index()
        without_bundle()
        compiled = [run(probe_module.raising, jobs), run(probe_module.traceback_of, jobs)]
        print(json.dumps([PROBE, bundled, compiled]))
        """,
    )
    probe, bundled, compiled = report
    assert bundled == compiled
    crashes, tracebacks = bundled
    assert crashes == [
        ["crashed", "ValueError: bad job 'a'"],
        ["crashed", "ValueError: bad job 'b'"],
    ]
    line = PROBE.splitlines().index('    raise ValueError(f"bad job {job!r}")') + 1
    assert f'File "{probe}", line {line}, in raising' in tracebacks[0]
    assert 'raise ValueError(f"bad job {job!r}")' in tracebacks[0]


def test_with_bytecode_caches_the_bundle_is_empty(tmp_path):
    """Every module a worker imports has a cache (written under a prefix
    of the test's own), so no worker compiles, nothing is bundled and
    workers load their caches as before."""
    environment = {"PYTHONPYCACHEPREFIX": str(tmp_path / "pycache")}
    script = """
        answers = run(probe_module.value, ["x", "y"], workers=2)
        answers += run(probe_module.value, ["late", "x"], workers=2)
        print(json.dumps([answers, index(), fleet._bundle.file is None]))
        """
    # The first interpreter writes the caches, the second only reads them.
    run_fresh(tmp_path, script, PYTHONDONTWRITEBYTECODE="", **environment)
    assert run_fresh(tmp_path, script, **environment) == [
        ["old", "old", "late", "old"], {}, True
    ]


def test_a_replacement_worker_gets_the_bundle(tmp_path):
    assert run_fresh(
        tmp_path,
        """
        first = run(probe_module.value, ["x"])
        edit('VALUE = "old"', 'VALUE = "new"', keep_stamp=True)
        # The first worker dies holding "die"; its replacement answers.
        print(json.dumps(first + run(probe_module.value, ["die", "x"])))
        """,
    ) == ["old", ["crashed", "worker process exited with code 13"], "old"]


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
