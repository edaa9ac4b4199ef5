"""Shared infrastructure for the benchmark suite.

Each benchmark module regenerates one table or figure of the paper.
Besides the pytest-benchmark wall-clock numbers, every experiment
records the *reproduced series* (the rows/curves the paper plots) into
a session-wide report that is printed after the run — so
``pytest benchmarks/ --benchmark-only`` outputs both the timing table
and the paper-shaped data.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess

import pytest

BENCH_LOGSTORE_PATH = pathlib.Path(__file__).parent / "BENCH_logstore.json"
BENCH_CAMPAIGN_PATH = pathlib.Path(__file__).parent / "BENCH_campaign.json"
BENCH_TRACING_PATH = pathlib.Path(__file__).parent / "BENCH_tracing.json"
BENCH_FUZZ_PATH = pathlib.Path(__file__).parent / "BENCH_fuzz.json"
BENCH_KERNEL_PATH = pathlib.Path(__file__).parent / "BENCH_kernel.json"
BENCH_EXPLORE_PATH = pathlib.Path(__file__).parent / "BENCH_explore.json"
BENCH_REPORT_PATH = pathlib.Path(__file__).parent / "BENCH_report.json"
BENCH_APPS_PATH = pathlib.Path(__file__).parent / "BENCH_apps.json"


class ExperimentReport:
    """Collects text blocks to print in the terminal summary."""

    def __init__(self) -> None:
        self.sections: list[tuple[str, str]] = []

    def add(self, title: str, body: str) -> None:
        """Record one experiment's reproduced series."""
        self.sections.append((title, body))


_REPORT = ExperimentReport()

# Machine-readable log-store numbers (ingest rate, query rate,
# assertion-suite latency per store size and strategy).  Populated by
# the scaling benchmark; flushed to BENCH_logstore.json at session end.
_BENCH_LOGSTORE: dict = {}

# Machine-readable campaign-engine numbers (serial vs fleet wall clock,
# speedup).  Populated by the campaign benchmark; flushed to
# BENCH_campaign.json at session end.
_BENCH_CAMPAIGN: dict = {}

# Machine-readable tracing-overhead numbers (campaign wall clock with
# span tracing on vs off).  Populated by the tracing benchmark; flushed
# to BENCH_tracing.json at session end.
_BENCH_TRACING: dict = {}

# Machine-readable differential-fuzzing numbers (case throughput,
# battery coverage).  Populated by the fuzz benchmark; flushed to
# BENCH_fuzz.json at session end.
_BENCH_FUZZ: dict = {}

# Machine-readable simulation-kernel numbers (serial events/sec vs the
# pre-optimization baseline).  Populated by the kernel benchmark;
# flushed to BENCH_kernel.json at session end.
_BENCH_KERNEL: dict = {}

# Machine-readable exploration numbers (prioritized vs random
# executions-to-all-bugs, coverage stats per seeded app).  Populated by
# the explore benchmark; flushed to BENCH_explore.json at session end.
_BENCH_EXPLORE: dict = {}

# Machine-readable resilience-report numbers (report build overhead vs
# campaign wall clock, whatif triage vs prioritized frontier).
# Populated by the report benchmark; flushed to BENCH_report.json at
# session end.
_BENCH_REPORT: dict = {}

# Machine-readable production-app numbers (kernel events/s driving the
# 28-service socialnetwork topology, campaign wall clock on the same
# app).  Populated by the apps benchmark; flushed to BENCH_apps.json at
# session end.
_BENCH_APPS: dict = {}


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


@pytest.fixture(scope="session")
def bench_logstore() -> dict:
    """Mutable dict the log-store benchmarks record their numbers into."""
    return _BENCH_LOGSTORE


@pytest.fixture(scope="session")
def bench_campaign() -> dict:
    """Mutable dict the campaign benchmark records its numbers into."""
    return _BENCH_CAMPAIGN


@pytest.fixture(scope="session")
def bench_tracing() -> dict:
    """Mutable dict the tracing benchmark records its numbers into."""
    return _BENCH_TRACING


@pytest.fixture(scope="session")
def bench_fuzz() -> dict:
    """Mutable dict the fuzz benchmark records its numbers into."""
    return _BENCH_FUZZ


@pytest.fixture(scope="session")
def bench_kernel() -> dict:
    """Mutable dict the kernel benchmark records its numbers into."""
    return _BENCH_KERNEL


@pytest.fixture(scope="session")
def bench_explore() -> dict:
    """Mutable dict the explore benchmark records its numbers into."""
    return _BENCH_EXPLORE


@pytest.fixture(scope="session")
def bench_report() -> dict:
    """Mutable dict the report benchmark records its numbers into."""
    return _BENCH_REPORT


@pytest.fixture(scope="session")
def bench_apps() -> dict:
    """Mutable dict the production-apps benchmark records its numbers into."""
    return _BENCH_APPS


def _provenance() -> dict:
    """Where the numbers came from: every BENCH_*.json carries the same
    machine/interpreter/revision block, so two dumps are comparable (or
    visibly not) at a glance."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=pathlib.Path(__file__).parent,
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
    flushes = (
        (_BENCH_LOGSTORE, BENCH_LOGSTORE_PATH, "benchmarks/test_bench_table3_assertions.py"),
        (_BENCH_CAMPAIGN, BENCH_CAMPAIGN_PATH, "benchmarks/test_bench_campaign.py"),
        (_BENCH_TRACING, BENCH_TRACING_PATH, "benchmarks/test_bench_tracing.py"),
        (_BENCH_FUZZ, BENCH_FUZZ_PATH, "benchmarks/test_bench_fuzz.py"),
        (_BENCH_KERNEL, BENCH_KERNEL_PATH, "benchmarks/test_bench_kernel.py"),
        (_BENCH_EXPLORE, BENCH_EXPLORE_PATH, "benchmarks/test_bench_explore.py"),
        (_BENCH_REPORT, BENCH_REPORT_PATH, "benchmarks/test_bench_report.py"),
        (_BENCH_APPS, BENCH_APPS_PATH, "benchmarks/test_bench_apps.py"),
    )
    provenance = None
    for data, path, source in flushes:
        if not data:
            continue
        if provenance is None:
            provenance = _provenance()
        payload = dict(data)
        payload.setdefault("source", source)
        payload["provenance"] = provenance
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _BENCH_LOGSTORE:
        terminalreporter.write_line(f"log-store numbers written to {BENCH_LOGSTORE_PATH}")
    if _BENCH_CAMPAIGN:
        terminalreporter.write_line(f"campaign numbers written to {BENCH_CAMPAIGN_PATH}")
    if _BENCH_TRACING:
        terminalreporter.write_line(f"tracing numbers written to {BENCH_TRACING_PATH}")
    if _BENCH_FUZZ:
        terminalreporter.write_line(f"fuzz numbers written to {BENCH_FUZZ_PATH}")
    if _BENCH_KERNEL:
        terminalreporter.write_line(f"kernel numbers written to {BENCH_KERNEL_PATH}")
    if _BENCH_EXPLORE:
        terminalreporter.write_line(f"explore numbers written to {BENCH_EXPLORE_PATH}")
    if _BENCH_REPORT:
        terminalreporter.write_line(f"report numbers written to {BENCH_REPORT_PATH}")
    if _BENCH_APPS:
        terminalreporter.write_line(f"apps numbers written to {BENCH_APPS_PATH}")
    if not _REPORT.sections:
        return
    terminalreporter.section("reproduced paper tables & figures")
    for title, body in _REPORT.sections:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"### {title}")
        for line in body.splitlines():
            terminalreporter.write_line(line)
