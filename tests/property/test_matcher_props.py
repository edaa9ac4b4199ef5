"""Property-based tests: the matcher strategies are equivalent.

Both strategies (the linear scan oracle and the production prefix index)
must be observationally identical: same match for every probe, same
budget accounting, and — the load-bearing part — the same RNG draw
sequence, because the differential fuzzer's strategy-equivalence check
diffs digests byte-for-byte across strategies.
"""

import random
import string

from hypothesis import given, settings, strategies as st

from repro.agent import LinearMatcher, PrefixIndexMatcher, abort, delay

_service = st.sampled_from(["B", "C", "D"])
_direction = st.sampled_from(["request", "response"])
_prefix = st.sampled_from(["test-", "user-", "canary-"])
_pattern = st.one_of(
    _prefix.map(lambda p: p + "*"),
    st.just("*"),
    st.sampled_from(["test-1", "test-1?", "re-match"]),
)


def _fresh_matchers(seed):
    """One instance of every strategy, identically seeded."""
    return (
        LinearMatcher(random.Random(seed)),
        PrefixIndexMatcher(random.Random(seed)),
    )


@st.composite
def rule_specs(draw):
    dst = draw(_service)
    direction = draw(_direction)
    pattern = draw(_pattern)
    kind = draw(st.sampled_from(["abort", "delay"]))
    if kind == "abort":
        return abort("A", dst, pattern=pattern, on=direction)
    return delay("A", dst, interval=0.1, pattern=pattern, on=direction)


@st.composite
def probabilistic_rule_specs(draw):
    """Rules that exercise the probability draw and budget paths."""
    dst = draw(_service)
    direction = draw(_direction)
    pattern = draw(_pattern)
    probability = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    max_matches = draw(st.sampled_from([None, 1, 2]))
    return abort(
        "A",
        dst,
        pattern=pattern,
        on=direction,
        probability=probability,
        max_matches=max_matches,
    )


@st.composite
def probes(draw):
    dst = draw(_service)
    direction = draw(_direction)
    request_id = draw(
        st.one_of(
            st.none(),
            st.tuples(_prefix, st.integers(0, 99)).map(lambda t: f"{t[0]}{t[1]}"),
            st.text(alphabet=string.ascii_lowercase + "-", min_size=1, max_size=12),
        )
    )
    return dst, direction, request_id


class TestStrategyEquivalence:
    @given(rules=st.lists(rule_specs(), max_size=8), queries=st.lists(probes(), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_all_strategies_agree(self, rules, queries):
        matchers = _fresh_matchers(0)
        for rule in rules:
            for matcher in matchers:
                matcher.install(rule)
        for dst, direction, request_id in queries:
            hits = [m.match(dst, direction, request_id) for m in matchers]
            assert len({hit is None for hit in hits}) == 1
            if hits[0] is not None:
                assert len({hit.rule.rule_id for hit in hits}) == 1
                # Keep budgets in sync for the next probe.
                for hit in hits:
                    hit.consume()

    @given(
        rules=st.lists(probabilistic_rule_specs(), max_size=8),
        queries=st.lists(probes(), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_rng_consumption_identical(self, rules, queries):
        """All strategies burn probability draws in lockstep.

        The differential fuzzer's strategy-equivalence check demands
        byte-identical behaviour given the same seeded RNG, which only
        holds if a draw is taken for exactly the same (message, rule)
        pairs in exactly the same order.  Identically seeded PRNGs must
        therefore stay state-synchronized through any probe sequence.
        """
        matchers = _fresh_matchers(1234)
        reference = matchers[0]
        for rule in rules:
            for matcher in matchers:
                matcher.install(rule)
        for dst, direction, request_id in queries:
            hits = [m.match(dst, direction, request_id) for m in matchers]
            assert len({hit is None for hit in hits}) == 1
            if hits[0] is not None:
                assert len({hit.rule.rule_id for hit in hits}) == 1
                for hit in hits:
                    hit.consume()
            # State sync after every probe, not just at the end, so a
            # counterexample shrinks to the first diverging message.
            for other in matchers[1:]:
                assert reference._rng.getstate() == other._rng.getstate()
        for other in matchers[1:]:
            for lrule, orule in zip(reference.rules, other.rules):
                assert lrule.matched == orule.matched
                assert lrule.applied == orule.applied

    @given(
        rules=st.lists(probabilistic_rule_specs(), min_size=1, max_size=6),
        remove_at=st.integers(0, 5),
        queries=st.lists(probes(), max_size=15),
    )
    @settings(max_examples=100, deadline=None)
    def test_equivalence_survives_removal(self, rules, remove_at, queries):
        """Removing a rule mid-stream (recipe teardown) must leave every
        strategy's index consistent — the prefix buckets prune — and the
        strategies still in lockstep."""
        matchers = _fresh_matchers(99)
        installed_ids = []
        for rule in rules:
            for matcher in matchers:
                handle = matcher.install(rule)
            installed_ids.append(handle.rule.rule_id)
        victim = installed_ids[remove_at % len(installed_ids)]
        for matcher in matchers:
            matcher.remove(victim)
        for dst, direction, request_id in queries:
            hits = [m.match(dst, direction, request_id) for m in matchers]
            assert len({hit is None for hit in hits}) == 1
            if hits[0] is not None:
                assert len({hit.rule.rule_id for hit in hits}) == 1
                assert hits[0].rule.rule_id != victim
                for hit in hits:
                    hit.consume()

    @given(rules=st.lists(rule_specs(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_budget_never_oversubscribed(self, rules):
        matcher = LinearMatcher(random.Random(1))
        for rule in rules:
            installed = matcher.install(
                abort(rule.src, rule.dst, pattern=rule.flow_pattern, max_matches=3)
            )
        total_applied = 0
        for _ in range(100):
            hit = matcher.match("B", "request", "test-5")
            if hit is None:
                break
            hit.consume()
            total_applied += 1
        for installed in matcher.rules:
            assert installed.applied <= 3
