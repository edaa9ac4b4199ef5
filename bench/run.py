"""``python3 -m bench.run``: run workloads, print every metric, check outputs.

    python3 -m bench.run --seed 11                       # all four, interleaved
    python3 -m bench.run --workload sn_verdict --seed 11 --seconds 20 --trace 0
    python3 -m bench.run --workload sn_verdict --seed 11 --trace 1

Untraced, each workload repeats its round for about ``--seconds`` and the
end-to-end metrics come out; traced, one round runs plain and one under
``cProfile`` and the per-layer metrics come out.  Which metrics exist,
and their units, is read from ``BENCHMARK.json``.  The exit code is
non-zero when any operation failed.
"""

from __future__ import annotations

import argparse
import cProfile
import glob
import json
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker

from bench import ROOT, layers
from bench.workloads import FLEET_WORKERS, WORKLOADS, HostSpeed, Workload

#: A run whose calibration readings' 90th percentile exceeds their 10th
#: by more than this ratio is flagged unstable.
UNSTABLE_RATIO = 1.15


def percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def scaled_median(host: HostSpeed, work, repeats: int):
    """Median over ``repeats`` calls of ``work``'s wall, each scaled to the
    nominal host; also returns the last call's result."""
    walls = []
    for _ in range(repeats):
        host.begin()
        start = time.perf_counter()
        result = work()
        wall = time.perf_counter() - start
        walls.append(wall * host.scale(wall))
    return statistics.median(walls), result


def import_seconds(host: HostSpeed, launches: int) -> float:
    """A fresh interpreter importing the program's CLI."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", "import repro.cli"]
    return scaled_median(
        host, lambda: subprocess.run(command, env=env, check=True), launches
    )[0]


def set_up(host: HostSpeed, name: str, seed: int) -> tuple[float, Workload]:
    """Build a workload's inputs three times; the last build is used."""

    def build() -> Workload:
        workload = WORKLOADS[name](seed)
        workload.build()
        return workload

    return scaled_median(host, build, 3)


def peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024


def run_timed(workloads: list[Workload], seconds: float) -> None:
    """Round-robin over the workloads, one round each per turn, so host
    drift spreads evenly; a workload leaves once another of its rounds
    would overrun ``seconds``.  Every workload runs at least one round."""
    spent = {workload.name: 0.0 for workload in workloads}
    pending = list(workloads)
    while pending:
        for workload in list(pending):
            spent[workload.name] += workload.timed_round()
            total, rounds = spent[workload.name], len(workload.round_s)
            if total + total / rounds > seconds:
                pending.remove(workload)


def end_to_end(workload: Workload, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "op_ms_p50": percentile(workload.op_s, 0.5) * 1e3,
        "op_ms_p75": percentile(workload.op_s, 0.75) * 1e3,
        "units_per_s": workload.units / workload.unit_s,
        "round_s": statistics.median(workload.round_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_traced(workload: Workload) -> tuple[dict, dict]:
    """One plain round, then the same round under the profiler; their
    digests must agree.  Returns the layer metrics and reconciliation."""
    plain = workload.timed_round()
    profile = cProfile.Profile()
    workload.host.begin()
    start = time.perf_counter()
    profile.enable()
    workload.round()
    profile.disable()
    traced = time.perf_counter() - start
    metrics = {"trace.overhead_x": traced / plain}
    self_total = 0.0
    for layer, (self_s, calls) in layers.attribute(profile).items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.calls"] = calls
        self_total += self_s
    return metrics, {"layer_self_sum_over_traced_wall": self_total / traced}


def provenance() -> dict:
    record = {
        "git_rev": None,
        "git_dirty": None,
        "nproc": os.cpu_count(),
        "fleet_workers": FLEET_WORKERS,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if (ROOT / ".git").exists():
        try:
            record["git_rev"] = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
            record["git_dirty"] = bool(
                subprocess.run(
                    ["git", "status", "--porcelain"],
                    cwd=ROOT, capture_output=True, text=True, check=True, timeout=10,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            pass
    return record


def parse(argv):
    parser = argparse.ArgumentParser(
        prog="python3 -m bench.run",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", default="all", choices=["all", *WORKLOADS],
        help="one workload, or all four interleaved (default)",
    )
    parser.add_argument(
        "--seed", type=int, default=11,
        help="the only workload input: campaign, deployment and explore seed",
    )
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="timed seconds per workload; rounds repeat to fill it (0: one round)",
    )
    parser.add_argument(
        "--trace", type=int, default=0, choices=[0, 1],
        help="1: per-layer metrics from a profiled round, a phase pass and probes",
    )
    parser.add_argument("--out", help="also write the run record to this file")
    parser.add_argument(
        "--history", help="append the run record to this file as one JSON line"
    )
    return parser.parse_args(argv)


def measure(args, declared: list[dict]) -> dict:
    """Set up, run and verify the selected workloads; returns the run record."""
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    host = HostSpeed()
    import_s = import_seconds(host, launches=1 if args.trace else 3)
    built = [set_up(host, name, args.seed) for name in names]
    workloads = [workload for _, workload in built]
    values: dict[str, dict[str, float]] = {}
    record = {
        **provenance(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "results": {},
    }

    if args.trace:
        reconciliation = {}
        for workload in workloads:
            values[workload.name], reconciliation[workload.name] = run_traced(workload)
        spans = layers.Spans()
        shared, phase_reconciliation, checker, sample = layers.phase_pass(
            args.seed, spans
        )
        shared.update(layers.probes(args.seed, sample))
        shared["cli.import_s"] = import_s
        for workload in workloads:
            layer_values = values[workload.name]
            layer_values.update(shared)
            layer_values["explore.executions_to_all_bugs"] = (
                workload.executions_to_all_bugs
            )
            reconciliation[workload.name].update(phase_reconciliation)
            # The phase pass's own digest checks count in every result.
            workload.attempted += checker.attempted
            workload.failed += checker.failed
            workload.failures += checker.failures
        record["reconciliation"] = reconciliation
        record["spans"] = spans.spans
    else:
        run_timed(workloads, args.seconds)
        for build_s, workload in built:
            values[workload.name] = end_to_end(workload, import_s + build_s)

    readings = list(host.readings)
    for workload in workloads:
        workload.verify()
        readings += workload.host.readings
        calibration = statistics.median(workload.host.readings)
        values[workload.name]["host.calib_ms"] = calibration
        record["results"][workload.name] = {
            "correct": workload.failed == 0,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "metrics": {
                metric["name"]: {
                    "value": values[workload.name][metric["name"]],
                    "unit": metric["unit"],
                }
                for metric in declared
            },
            "rounds": len(workload.round_s),
            "operations_timed": len(workload.op_s),
            "unscaled_op_ms_p50": percentile(workload.raw_op_s, 0.5) * 1e3,
            "calibration_ms_p50": calibration,
            "digest": workload.folded_digest(),
            "failures": workload.failures[:20],
        }
    low, high = percentile(readings, 0.1), percentile(readings, 0.9)
    record["calibration_ms"] = {"readings": len(readings), "p10": low, "p90": high}
    record["unstable"] = high / low > UNSTABLE_RATIO
    return record


def show(record: dict) -> None:
    """Every metric by name with its unit, then the checks."""
    for name, result in record["results"].items():
        for metric, reading in result["metrics"].items():
            value = reading["value"]
            shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.4f}"
            print(f"{name:16} {metric:34} {shown} {reading['unit']}")
        print(
            f"{name:16} attempted {result['attempted']}, failed {result['failed']},"
            f" digest {result['digest']}"
        )
        for failure in result["failures"]:
            print(f"{name:16} FAILED {failure}")
    for name, checks in record.get("reconciliation", {}).items():
        for check, value in checks.items():
            print(f"{name:16} reconciliation {check} = {value:.3f}")
    if record["unstable"]:
        calibration = record["calibration_ms"]
        print(
            f"unstable host: calibration loop p10..p90 ="
            f" {calibration['p10']:.2f}..{calibration['p90']:.2f} ms"
        )


def child_pids() -> list[int]:
    """Direct children of this process, as the kernel lists them."""
    pids = []
    for listing in glob.glob("/proc/self/task/*/children"):
        try:
            with open(listing) as handle:
                pids += [int(pid) for pid in handle.read().split()]
        except OSError:  # a thread that ended meanwhile
            pass
    return pids


def stop_children() -> None:
    """Leave no process behind: stop and wait for everything started here.

    The fleet joins its own workers, but ``multiprocessing`` also starts a
    resource-tracker process for the spawn-started pool, which ends only
    once its parent has exited -- after the run, unwaited.  Close its pipe
    and wait for it here; then kill and reap whatever is still listed as
    a child (nothing, unless a round died halfway).
    """
    for process in multiprocessing.active_children():
        process.kill()
        process.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    args = parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = measure(args, spec["per_layer"] if args.trace else spec["end_to_end"])
    show(record)
    document = json.dumps(record)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(document + "\n")
    if args.history:
        with open(args.history, "a") as handle:
            handle.write(document + "\n")
    print(document)
    results = record["results"]
    if len(results) == 1:
        # The result line the benchmark contract asks for, last.
        (result,) = results.values()
        keys = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({key: result[key] for key in keys}))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    # A terminated run must still stop its children on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
