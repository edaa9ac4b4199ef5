"""Unit tests for the rule-matching engines (both strategies)."""

import random

import pytest

from repro.agent import LinearMatcher, PrefixIndexMatcher, abort, delay, make_matcher, modify
from repro.apps import build_twotier
from repro.errors import RuleValidationError

STRATEGIES = ["linear", "prefix"]


@pytest.fixture(params=STRATEGIES)
def matcher(request):
    return make_matcher(request.param, rng=random.Random(7))


class TestInstallRemove:
    def test_install_and_len(self, matcher):
        matcher.install(abort("A", "B"))
        assert len(matcher) == 1

    def test_remove_by_id(self, matcher):
        rule = abort("A", "B")
        matcher.install(rule)
        assert matcher.remove(rule.rule_id)
        assert len(matcher) == 0
        assert not matcher.remove(rule.rule_id)

    def test_clear(self, matcher):
        matcher.install(abort("A", "B"))
        matcher.install(delay("A", "C", interval=1))
        matcher.clear()
        assert len(matcher) == 0
        assert matcher.match("B", "request", "test-1") is None

    def test_unknown_strategy_rejected(self):
        for strategy in ("quantum", "table"):
            with pytest.raises(RuleValidationError):
                make_matcher(strategy)

    def test_sidecars_run_the_prefix_index(self):
        deployment = build_twotier().deploy(seed=1)
        assert {type(agent.matcher) for agent in deployment.agents} == {PrefixIndexMatcher}

    def test_prefix_groups_of_mixed_lengths_keep_install_order(self):
        """One prefix length hands back its single group; a second
        length or an unprefixed rule merges groups by install order."""
        matcher = PrefixIndexMatcher(random.Random(0))

        def hit(request_id):
            found = matcher.match("B", "request", request_id)
            if found is not None:
                found.consume()
            return found

        first = matcher.install(abort("A", "B", pattern="test-*", max_matches=1))
        assert hit("test-1") is first
        anywhere = matcher.install(abort("A", "B", pattern="*", max_matches=1))
        longer = matcher.install(abort("A", "B", pattern="test-1*"))
        assert hit("test-1") is anywhere
        assert hit("test-1") is longer
        matcher.remove(anywhere.rule.rule_id)
        matcher.remove(longer.rule.rule_id)
        second = matcher.install(abort("A", "B", pattern="user-*"))
        assert hit("user-2") is second
        assert hit("test-2") is None

    def test_removal_preserves_first_match_wins_order(self, matcher):
        """Surgical unindexing must not disturb surviving rules' order."""
        doomed = abort("A", "B", pattern="test-*", error=500)
        first = abort("A", "B", pattern="test-*", error=503)
        second = abort("A", "B", pattern="test-*", error=404)
        matcher.install(doomed)
        matcher.install(first)
        matcher.install(second)
        assert matcher.remove(doomed.rule_id)
        hit = matcher.match("B", "request", "test-1")
        assert hit.rule.rule_id == first.rule_id

    def test_reinstall_after_removal_ranks_last(self, matcher):
        """A re-installed rule gets a fresh (higher) order — it must not
        inherit the removed slot and jump ahead of older rules."""
        removed = abort("A", "B", pattern="test-*", error=500)
        survivor = abort("A", "B", pattern="test-*", error=503)
        matcher.install(removed)
        matcher.install(survivor)
        assert matcher.remove(removed.rule_id)
        latecomer = abort("A", "B", pattern="test-*", error=404)
        matcher.install(latecomer)
        hit = matcher.match("B", "request", "test-1")
        assert hit.rule.rule_id == survivor.rule_id

    def test_removal_prunes_only_affected_prefix_group(self):
        """Other prefix groups (and lengths) survive a removal intact."""
        matcher = PrefixIndexMatcher(random.Random(3))
        short = abort("A", "B", pattern="ab*")
        long_ = abort("A", "B", pattern="abcdef*")
        matcher.install(short)
        matcher.install(long_)
        assert matcher.remove(long_.rule_id)
        assert matcher.match("B", "request", "abzzz") is not None
        assert matcher.match("B", "request", "abcdef-1") is not None  # short still covers
        matcher.install(abort("A", "B", pattern="abcdef*", error=404))
        hit = matcher.match("B", "request", "abcdef-1")
        # first-match-wins: the older short-prefix rule still wins.
        assert hit.rule.rule_id == short.rule_id


class TestStructuralMatch:
    def test_matches_dst_direction_and_id(self, matcher):
        matcher.install(abort("A", "B", pattern="test-*"))
        assert matcher.match("B", "request", "test-1") is not None
        assert matcher.match("B", "request", "user-1") is None
        assert matcher.match("C", "request", "test-1") is None
        assert matcher.match("B", "response", "test-1") is None

    def test_untagged_traffic_not_matched_by_pattern(self, matcher):
        matcher.install(abort("A", "B", pattern="test-*"))
        assert matcher.match("B", "request", None) is None

    def test_star_pattern_matches_untagged(self, matcher):
        matcher.install(abort("A", "B", pattern="*"))
        assert matcher.match("B", "request", None) is not None

    def test_first_match_wins(self, matcher):
        first = abort("A", "B", error=503)
        second = abort("A", "B", error=404)
        matcher.install(first)
        matcher.install(second)
        hit = matcher.match("B", "request", "test-1")
        assert hit.rule.rule_id == first.rule_id

    def test_modify_requires_body_match(self, matcher):
        matcher.install(modify("A", "B", pattern="key", replace_bytes="bad"))
        assert matcher.match("B", "response", "test-1", body=b"the key here") is not None
        assert matcher.match("B", "response", "test-1", body=b"nothing") is None
        assert matcher.match("B", "response", "test-1", body=None) is None


class TestBudget:
    def test_budget_exhausts_rule(self, matcher):
        matcher.install(abort("A", "B", max_matches=2))
        for _ in range(2):
            hit = matcher.match("B", "request", "test-1")
            assert hit is not None
            hit.consume()
        assert matcher.match("B", "request", "test-1") is None

    def test_budget_enables_sequential_rule_phases(self, matcher):
        """The Fig 6 schedule: abort 100, then delay the next 100."""
        matcher.install(abort("A", "B", max_matches=3))
        matcher.install(delay("A", "B", interval=3.0, max_matches=3))
        kinds = []
        for _ in range(7):
            hit = matcher.match("B", "request", "test-1")
            if hit is None:
                kinds.append(None)
            else:
                hit.consume()
                kinds.append(hit.rule.fault_type)
        assert kinds == ["abort"] * 3 + ["delay"] * 3 + [None]

    def test_unapplied_match_does_not_consume_budget(self, matcher):
        matcher.install(abort("A", "B", max_matches=1))
        assert matcher.match("B", "request", "test-1") is not None
        # consume() not called -> budget intact
        assert matcher.match("B", "request", "test-1") is not None


class TestProbability:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_probability_fraction_applied(self, strategy):
        matcher = make_matcher(strategy, rng=random.Random(42))
        matcher.install(abort("A", "B", probability=0.25))
        hits = sum(
            1 for _ in range(2000) if matcher.match("B", "request", "test-1") is not None
        )
        assert 400 <= hits <= 600  # ~25% of 2000

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_probability_zero_never_matches(self, strategy):
        matcher = make_matcher(strategy, rng=random.Random(1))
        matcher.install(abort("A", "B", probability=0.0))
        assert all(
            matcher.match("B", "request", "test-1") is None for _ in range(50)
        )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_lost_draw_falls_through_to_next_rule(self, strategy):
        """The Overload decomposition: abort p, then delay the rest."""
        matcher = make_matcher(strategy, rng=random.Random(5))
        matcher.install(abort("A", "B", probability=0.25))
        matcher.install(delay("A", "B", interval=0.1, probability=1.0))
        outcomes = [matcher.match("B", "request", "test-1").rule.fault_type for _ in range(1000)]
        abort_fraction = outcomes.count("abort") / len(outcomes)
        assert outcomes.count("abort") + outcomes.count("delay") == 1000
        assert 0.2 <= abort_fraction <= 0.3


class TestStrategiesAgree:
    def test_same_decisions_on_structural_matches(self):
        rules = [
            abort("A", "B", pattern="test-1*"),
            delay("A", "B", interval=1.0, pattern="test-2*"),
            abort("A", "C", pattern="*"),
        ]
        linear = LinearMatcher(random.Random(0))
        prefix = PrefixIndexMatcher(random.Random(0))
        for rule in rules:
            linear.install(rule)
            prefix.install(rule)
        probes = [
            ("B", "request", "test-11"),
            ("B", "request", "test-21"),
            ("B", "request", "test-99"),
            ("B", "request", "user-1"),
            ("C", "request", None),
            ("C", "request", "anything"),
            ("B", "response", "test-11"),
        ]
        for dst, direction, request_id in probes:
            left = linear.match(dst, direction, request_id)
            right = prefix.match(dst, direction, request_id)
            assert (left is None) == (right is None), probes
            if left is not None:
                assert left.rule.rule_id == right.rule.rule_id
