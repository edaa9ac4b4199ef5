"""Self-check of the benchmark itself (minutes, so not in tier-1):

    python3 -m pytest bench -q

Runs the command ``BENCHMARK.json`` declares, one round per workload, in
fresh processes as the driver does.
"""

import functools
import itertools
import json
import math
import re
import subprocess

import pytest

from bench import ROOT, layers, run, workloads

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int, repeat: int = 0):
    """One single-round run; returns (exit code, result line, run record).
    ``repeat`` only distinguishes cached runs of the same arguments."""
    done = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "11",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]), json.loads(lines[-2])


def test_benchmark_json_is_in_the_contract_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"]
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert 2 <= len(WORKLOAD_NAMES) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOAD_NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_a_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    code, result, record = smoke(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, reading in result["metrics"].items():
        assert math.isfinite(reading["value"]), name
        if not trace:
            assert reading["value"] > 0, name
    assert list(record["results"]) == [workload]
    assert record["seed"] == 11 and record["nproc"] >= 1


# Not fleet_campaign: its parent-side dispatch loop runs once per batch of
# worker replies, and how replies batch up depends on process scheduling.
@pytest.mark.parametrize("workload", ["sn_verdict", "explore_seeded"])
def test_layer_call_counts_repeat_exactly_across_processes(workload):
    _, first, first_record = smoke(workload, 1)
    _, second, second_record = smoke(workload, 1, repeat=1)
    # Every layer of the program; "other" holds the benchmark's own
    # frames, whose calibration readings scale with wall time.
    for layer in layers.LAYERS:
        name = f"{layer}.calls"
        assert first["metrics"][name] == second["metrics"][name], name
    assert (
        first_record["results"][workload]["digest"]
        == second_record["results"][workload]["digest"]
    )


def test_a_broken_comparison_is_a_failed_operation(monkeypatch, capsys, tmp_path):
    # Every digest differs from every other: each comparison between
    # the fleet's outcomes, the dump read back and the serial reference
    # must now be counted as failed, and the exit code must say so.
    counter = itertools.count()
    monkeypatch.setattr(
        workloads, "verdict_digest", lambda outcome: f"broken-{next(counter)}"
    )
    out, history = tmp_path / "record.json", tmp_path / "history.jsonl"
    code = run.main(
        ["--workload", "fleet_campaign", "--seconds", "0",
         "--out", str(out), "--history", str(history)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    record = json.loads(out.read_text())
    assert "git_rev" in record and record["results"]["fleet_campaign"]["failures"]
    assert [json.loads(line) for line in history.read_text().splitlines()] == [record]
