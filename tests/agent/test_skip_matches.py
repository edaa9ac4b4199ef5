"""``skip_matches``: deterministic per-invocation targeting.

The exploration layer compiles single-invocation coordinates to rules
with ``skip_matches=K`` + ``max_matches=1``; these tests pin the three
properties that compilation relies on: skips are counted per
structural match, they consume neither budget nor probability draws,
and both matcher strategies agree.
"""

import random

import pytest

from repro.agent import abort, delay, make_matcher
from repro.agent.rules import FaultRule, FaultType
from repro.errors import RuleValidationError

STRATEGIES = ["linear", "prefix"]


@pytest.fixture(params=STRATEGIES)
def matcher(request):
    return make_matcher(request.param, rng=random.Random(7))


class TestSkipSemantics:
    def test_first_k_matches_pass_untouched(self, matcher):
        matcher.install(abort("A", "B", pattern="test-*", skip_matches=2))
        assert matcher.match("B", "request", "test-1") is None
        assert matcher.match("B", "request", "test-1") is None
        hit = matcher.match("B", "request", "test-1")
        assert hit is not None
        assert hit.rule.fault_type is FaultType.ABORT

    def test_skip_with_max_matches_one_hits_exactly_the_kth(self, matcher):
        matcher.install(
            abort("A", "B", pattern="test-1", skip_matches=1, max_matches=1)
        )
        outcomes = []
        for _ in range(4):
            hit = matcher.match("B", "request", "test-1")
            if hit is not None:
                hit.consume()  # as the proxy does after applying the fault
            outcomes.append(hit is not None)
        assert outcomes == [False, True, False, False]

    def test_skip_zero_is_the_default_behaviour(self, matcher):
        matcher.install(delay("A", "B", interval=1.0, pattern="test-*"))
        assert matcher.match("B", "request", "test-1") is not None

    def test_non_matching_ids_do_not_consume_skips(self, matcher):
        matcher.install(abort("A", "B", pattern="test-7", skip_matches=1))
        assert matcher.match("B", "request", "test-1") is None  # no match at all
        assert matcher.match("B", "request", "test-7") is None  # the skip
        assert matcher.match("B", "request", "test-7") is not None

    def test_skips_burn_no_budget(self, matcher):
        matcher.install(
            abort("A", "B", pattern="test-*", skip_matches=3, max_matches=2)
        )
        fired = 0
        for _ in range(10):
            hit = matcher.match("B", "request", "test-1")
            if hit is not None:
                hit.consume()
                fired += 1
        assert fired == 2  # skips left the 2-match budget intact

    def test_skips_take_no_probability_draw(self):
        """A skipped match must not advance the RNG stream: a later
        probabilistic rule sees the same draws whether or not an
        earlier rule skipped."""

        def draws(skips):
            matcher = make_matcher("linear", rng=random.Random(42))
            matcher.install(
                abort("A", "B", pattern="test-*", skip_matches=skips, error=500)
            )
            matcher.install(
                abort("A", "C", pattern="test-*", probability=0.5, error=503)
            )
            return [
                matcher.match("C", "request", "test-1") is not None
                for _ in range(20)
            ]

        assert draws(0) == draws(5)


class TestStrategyEquivalence:
    def test_all_strategies_agree_on_skip_schedule(self):
        matchers = {
            strategy: make_matcher(strategy, rng=random.Random(3))
            for strategy in STRATEGIES
        }
        for engine in matchers.values():
            engine.install(
                abort("A", "B", pattern="test-*", skip_matches=2, max_matches=1)
            )
        def schedule(engine):
            fired = []
            for n in range(1, 7):
                hit = engine.match("B", "request", f"test-{n}")
                if hit is not None:
                    hit.consume()
                fired.append(hit is not None)
            return fired

        schedules = {
            strategy: schedule(engine) for strategy, engine in matchers.items()
        }
        assert len(set(map(tuple, schedules.values()))) == 1
        assert schedules["linear"] == [False, False, True, False, False, False]


class TestValidationAndDisplay:
    def test_negative_skip_rejected(self):
        with pytest.raises(RuleValidationError):
            abort("A", "B", skip_matches=-1)

    def test_str_shows_nonzero_skip_only(self):
        assert "skip=2" in str(abort("A", "B", skip_matches=2))
        assert "skip" not in str(abort("A", "B"))

    def test_round_trips_through_constructors(self):
        rule = delay("A", "B", interval=0.5, skip_matches=4)
        assert isinstance(rule, FaultRule)
        assert rule.skip_matches == 4
