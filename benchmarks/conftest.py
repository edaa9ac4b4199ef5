"""Shared infrastructure for the benchmark suite.

Each benchmark module regenerates one table or figure of the paper, or
one search-quality count.  Besides the pytest-benchmark wall-clock
numbers, every experiment records the *reproduced series* (the
rows/curves the paper plots) into a session-wide report that is printed
after the run — so ``pytest benchmarks/ --benchmark-only`` outputs both
the timing table and the paper-shaped data.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess

import pytest

BENCH_DIR = pathlib.Path(__file__).parent

#: Files that hold only counts: they carry no provenance block, so
#: regenerating them on any machine leaves them byte-identical (CI
#: diffs them against the committed copies).
COUNTS_ONLY = frozenset({"BENCH_explore.json", "BENCH_fuzz.json", "BENCH_report.json"})


class ExperimentReport:
    """Collects text blocks to print in the terminal summary."""

    def __init__(self) -> None:
        self.sections: list[tuple[str, str]] = []

    def add(self, title: str, body: str) -> None:
        """Record one experiment's reproduced series."""
        self.sections.append((title, body))


_REPORT = ExperimentReport()

#: ``BENCH_*.json`` file name -> the numbers this session's benchmarks
#: recorded for it; each is written to ``benchmarks/<name>`` at session
#: end.
_NUMBERS: dict[str, dict] = {}


def pytest_collection_modifyitems(config, items):
    """Every benchmark is ``bench`` (and therefore ``slow``); the tier-1
    suite under tests/ never collects this directory (``testpaths``),
    and ``-m "not bench"`` now also works when running everything."""
    for item in items:
        item.add_marker(pytest.mark.bench)
        item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def report() -> ExperimentReport:
    """Session-wide report the benchmarks write their series into."""
    return _REPORT


@pytest.fixture
def bench_file(request):
    """``bench_file("BENCH_x.json")`` is the mutable dict a benchmark
    records its numbers into, with the recording module as ``source``."""
    source = f"benchmarks/{pathlib.Path(request.module.__file__).name}"
    return lambda name: _NUMBERS.setdefault(name, {"source": source})


def _provenance() -> dict:
    """Where timed numbers came from: every timing file carries the same
    machine/interpreter/revision block, so two dumps are comparable (or
    visibly not) at a glance."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=BENCH_DIR,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": rev or "unknown",
    }


def pytest_sessionfinish(session, exitstatus):
    provenance = None
    for name, numbers in _NUMBERS.items():
        payload = dict(numbers)
        if name not in COUNTS_ONLY:
            provenance = provenance or _provenance()
            payload["provenance"] = provenance
        (BENCH_DIR / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name in _NUMBERS:
        terminalreporter.write_line(f"numbers written to {BENCH_DIR / name}")
    if not _REPORT.sections:
        return
    terminalreporter.section("reproduced paper tables & figures")
    for title, body in _REPORT.sections:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"### {title}")
        for line in body.splitlines():
            terminalreporter.write_line(line)
