"""The differential runner: battery selection, digests, sensitivity."""

from repro.core.scenarios import AbortCalls, DelayCalls
from repro.fuzz import FuzzGenerator, TopologySpec, execute_case, run_case
from tests.fuzz.test_oracle import chain_case


class TestBatterySelection:
    def test_oracle_runs_on_eligible_cases(self):
        report = run_case(chain_case([AbortCalls("a", "b", error=503)]))
        assert report.oracle_checked
        assert "zero-probability" in report.metamorphic_run
        assert not report.failed

    def test_fractional_case_skips_oracle_and_zero_probability(self):
        report = run_case(chain_case([AbortCalls("a", "b", probability=0.5)]))
        assert not report.oracle_checked
        assert "zero-probability" not in report.metamorphic_run
        assert "matcher-strategy" in report.metamorphic_run
        assert not report.failed

    def test_competing_rules_skip_rule_order(self):
        # Two rules on the same (src, dst, direction) slot compete, so
        # install order is semantically meaningful and not checked.
        report = run_case(
            chain_case(
                [
                    AbortCalls("a", "b", error=503, pattern="test-1"),
                    AbortCalls("a", "b", error=500, pattern="test-2"),
                ]
            )
        )
        assert "rule-order" not in report.metamorphic_run
        assert not report.failed

    def test_app_case_runs_metamorphic_only(self):
        case = chain_case([AbortCalls("ServiceA", "ServiceB", error=503)])
        case.topology = TopologySpec(kind="app", entry="ServiceA", app="twotier")
        report = run_case(case)
        assert not report.oracle_checked
        assert "matcher-strategy" in report.metamorphic_run
        assert "shuffle" in report.metamorphic_run
        assert not report.failed


class TestDigestSensitivity:
    def test_same_case_same_digest(self):
        case = chain_case([DelayCalls("a", "b", "100ms")])
        assert execute_case(case).digest == execute_case(case).digest

    def test_digest_sees_rule_changes(self):
        case = chain_case([AbortCalls("b", "c", error=503)])
        base = execute_case(case)
        # Dropping the installed rule must change the observable trace.
        tampered = execute_case(case, rule_transform=lambda rules: [])
        assert tampered.digest != base.digest

    def test_digest_sees_seed_changes(self):
        case = chain_case([AbortCalls("a", "b", error=503, probability=0.5)])
        base = execute_case(case)
        import dataclasses

        reseeded = dataclasses.replace(case, seed=case.seed + 1)
        # Different deployment seed -> different probability draws is
        # *possible*; what must hold is that equal seeds always agree.
        assert execute_case(case).digest == base.digest
        execute_case(reseeded)  # must simply run clean


class TestCorpusSweep:
    def test_generated_corpus_is_clean(self):
        cases = FuzzGenerator(21).generate(25)
        for case in cases:
            report = run_case(case)
            assert not report.failed, (
                case.case_id,
                report.mismatches,
            )
