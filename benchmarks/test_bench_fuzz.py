"""Differential fuzzer: battery coverage.

Pins what fraction of a fixed corpus the exact oracle diffed, and how
many cases each metamorphic check ran on, so a generator regression
that silently shrinks the deterministic domain shows up as a number,
not a hunch.  The counts are deterministic for the seed, so the file
is regenerated byte-for-byte on any machine.  (Serial-vs-fleet
equivalence on both backends is pinned in tier-1,
``tests/fuzz/test_harness.py``.)

Numbers land in ``BENCH_fuzz.json`` via the session-finish hook in
``conftest.py``.
"""

from repro.fuzz import run_fuzz

SEED = 2026
CASES = 60


def test_fuzz_battery_coverage(report, bench_file):
    result = run_fuzz(SEED, CASES, workers=1)
    assert result.passed, result.summary()

    bench_file("BENCH_fuzz.json").update(
        {
            "seed": SEED,
            "cases": CASES,
            "oracle_checked": result.oracle_checked,
            "oracle_fraction": round(result.oracle_checked / CASES, 3),
            "metamorphic_counts": dict(result.metamorphic_counts),
        }
    )

    lines = [
        f"corpus: seed={SEED}, {CASES} cases",
        f"oracle-diffed: {result.oracle_checked}/{CASES}",
    ]
    for name, count in sorted(result.metamorphic_counts.items()):
        lines.append(f"metamorphic {name}: {count}/{CASES}")
    report.add("differential fuzzing coverage", "\n".join(lines))
