"""Rule-matching engines for the Gremlin agent.

The agent compares every proxied message against its installed rules;
this sits in-line with the data path, so matching cost is the proxy's
overhead (paper Figure 8 measures the worst case: a request compared
against all rules without matching any).

Two interchangeable strategies are provided:

* :class:`LinearMatcher` — the paper's baseline and the test oracle:
  compiled-regex scan over all rules in installation order, first
  match wins.
* :class:`PrefixIndexMatcher` — the optimization the paper suggests
  ("structured (e.g., prefix-based ...) request IDs") and what every
  sidecar runs: rules are bucketed by ``(dst, direction)`` and by the
  literal prefix of their ID glob.  A message on a slot without rules
  costs one dict probe, and non-matching traffic usually touches zero
  regexes.

Both strategies share runtime state handling: a per-rule match *budget*
(``max_matches``) and probabilistic application, drawn from the
simulator's seeded RNG when one is attached (falling back to a local
PRNG for standalone wall-clock benchmarks).  The scan-and-draw loop
lives in exactly one place (:meth:`RuleMatcher._scan`), so every
strategy consumes probability draws identically by construction.
"""

from __future__ import annotations

import fnmatch
import random as _random
import re
import typing as _t

from repro.agent.rules import FaultRule, FaultType
from repro.errors import RuleValidationError

__all__ = [
    "InstalledRule",
    "RuleMatcher",
    "LinearMatcher",
    "PrefixIndexMatcher",
]


class InstalledRule:
    """A rule plus its per-agent runtime state (budget, regex, stats)."""

    def __init__(self, rule: FaultRule) -> None:
        self.rule = rule
        self.regex = _compile_glob(rule.flow_pattern)
        self.remaining: int | None = rule.max_matches
        #: Structural matches still to let through untouched before the
        #: fault arms (``skip_matches``).  A skipped match takes no
        #: probability draw and burns no budget, so skipping is
        #: deterministic and invisible to the RNG-draw sequence of later
        #: rules — the property the exploration layer's per-invocation
        #: coordinates rely on.
        self.to_skip = rule.skip_matches
        #: Installation order within the owning matcher (first-match-wins).
        self.order = 0
        #: Messages this rule structurally matched (before probability).
        self.matched = 0
        #: Messages the fault action was actually applied to.
        self.applied = 0

    @property
    def exhausted(self) -> bool:
        """True once the match budget is consumed (rule inert)."""
        return self.remaining is not None and self.remaining <= 0

    def matches_id(self, request_id: str | None) -> bool:
        """Structural flow match against the request ID."""
        if self.regex is None:
            return True
        if request_id is None:
            return False
        return self.regex.match(request_id) is not None

    def consume(self) -> None:
        """Burn one unit of budget after the action is applied."""
        self.applied += 1
        if self.remaining is not None:
            self.remaining -= 1

    def __repr__(self) -> str:
        return f"<InstalledRule {self.rule} applied={self.applied}>"


def _compile_glob(pattern: str) -> re.Pattern | None:
    if pattern == "*":
        return None  # match-all needs no regex work
    return re.compile(fnmatch.translate(pattern))


class RuleMatcher:
    """Interface shared by the matching strategies."""

    def __init__(self, rng: _t.Optional[_random.Random] = None) -> None:
        self._rng = rng if rng is not None else _random.Random(0)
        self._installed: list[InstalledRule] = []
        # Monotonic install counter: orders must stay unique across
        # remove/install cycles so first-match-wins never ties (reusing
        # len(installed) would hand a re-installed rule an existing
        # order after a removal).
        self._order_counter = 0

    # -- rule management ----------------------------------------------------

    def install(self, rule: FaultRule) -> InstalledRule:
        """Install a rule; returns its runtime handle."""
        installed = InstalledRule(rule)
        installed.order = self._order_counter
        self._order_counter += 1
        self._installed.append(installed)
        self._index(installed)
        return installed

    def remove(self, rule_id: int) -> bool:
        """Remove by rule ID; True if something was removed.

        Surgical: only the removed rules' own index entries are
        deleted — the rest of the index (and every surviving rule's
        install order) is untouched.
        """
        removed = [ir for ir in self._installed if ir.rule.rule_id == rule_id]
        if not removed:
            return False
        self._installed = [ir for ir in self._installed if ir.rule.rule_id != rule_id]
        for installed in removed:
            self._unindex(installed)
        return True

    def clear(self) -> None:
        """Remove every rule."""
        self._installed.clear()
        self._clear_index()

    @property
    def rules(self) -> list[InstalledRule]:
        """All installed rules in installation order."""
        return list(self._installed)

    def __len__(self) -> int:
        return len(self._installed)

    # -- matching ------------------------------------------------------------

    def match(
        self,
        dst: str,
        direction: str,
        request_id: str | None,
        body: bytes | None = None,
    ) -> InstalledRule | None:
        """First applicable rule for a message, or None.

        Applies, in order: structural match (dst, direction, flow
        pattern, and for Modify the body byte pattern), budget check,
        then the probability draw.  A structural match that loses its
        probability draw still counts toward ``matched`` statistics but
        does not consume budget — mirroring the paper's Overload recipe
        where 25%/75% splits act on disjoint subsets of one stream.

        A strategy only picks the candidates, in installation order, and
        hands them to :meth:`_scan`, the ONLY place a probability draw
        happens: a draw is taken iff a rule survives the structural
        checks and has ``probability < 1``, in strict installation
        order.  Two matchers seeded with the same RNG therefore consume
        draws identically regardless of strategy — the invariant the
        differential fuzzer's strategy-equivalence check relies on
        (pinned by tests/property/test_matcher_props).
        """
        raise NotImplementedError

    def _scan(
        self,
        candidates: _t.Iterable[InstalledRule],
        request_id: str | None,
        body: bytes | None,
    ) -> InstalledRule | None:
        """The shared scan-and-draw loop over structural candidates.

        Every strategy funnels through this one loop (candidates must
        arrive in installation order), so budget accounting and the RNG
        draw discipline cannot diverge between strategies.
        """
        rng = self._rng
        for installed in candidates:
            if installed.exhausted:
                continue
            if not installed.matches_id(request_id):
                continue
            if installed.rule.fault_type == FaultType.MODIFY:
                if body is None or installed.rule.search_bytes not in body:
                    continue
            installed.matched += 1
            if installed.to_skip > 0:
                installed.to_skip -= 1
                continue
            probability = installed.rule.probability
            if probability < 1.0 and rng.random() >= probability:
                continue
            return installed
        return None

    # -- strategy hooks ----------------------------------------------------------

    def _index(self, installed: InstalledRule) -> None:
        raise NotImplementedError

    def _unindex(self, installed: InstalledRule) -> None:
        raise NotImplementedError

    def _clear_index(self) -> None:
        raise NotImplementedError


class LinearMatcher(RuleMatcher):
    """The paper's baseline: scan every rule per message.

    Worst-case cost is O(rules) regex evaluations per message — the
    curve Figure 8 plots for 1/5/10 installed rules.
    """

    def match(
        self,
        dst: str,
        direction: str,
        request_id: str | None,
        body: bytes | None = None,
    ) -> InstalledRule | None:
        return self._scan(
            (
                installed
                for installed in self._installed
                if installed.rule.dst == dst and installed.rule.on == direction
            ),
            request_id,
            body,
        )

    def _index(self, installed: InstalledRule) -> None:  # no index to maintain
        pass

    def _unindex(self, installed: InstalledRule) -> None:  # no index to maintain
        pass

    def _clear_index(self) -> None:  # no index to maintain
        pass


class _PrefixBucket:
    """Per-(dst, direction) index of rules by literal ID prefix."""

    def __init__(self) -> None:
        self.by_prefix: dict[str, list[InstalledRule]] = {}
        self.prefix_lengths: set[int] = set()
        #: Rules whose glob starts with a wildcard (no usable prefix).
        self.unprefixed: list[InstalledRule] = []
        #: The prefix length when every rule here has a prefix of that
        #: one length (the usual shape: one recipe's ``test-*`` rules).
        #: At most one group can then match a request ID, and it is
        #: already in install order.
        self.only_length: int | None = None

    def add(self, installed: InstalledRule) -> None:
        prefix = _literal_prefix(installed.rule.flow_pattern)
        if prefix:
            self.by_prefix.setdefault(prefix, []).append(installed)
            self.prefix_lengths.add(len(prefix))
        else:
            self.unprefixed.append(installed)
        self._reshape()

    def discard(self, installed: InstalledRule) -> None:
        """Drop one rule's entry, pruning emptied prefix groups.

        Only the affected group is touched; surviving entries keep
        their list positions (and hence their install order).
        """
        prefix = _literal_prefix(installed.rule.flow_pattern)
        if not prefix:
            if installed in self.unprefixed:
                self.unprefixed.remove(installed)
        else:
            group = self.by_prefix.get(prefix)
            if group is None or installed not in group:
                return
            group.remove(installed)
            if not group:
                del self.by_prefix[prefix]
                # Another prefix of the same length may still exist.
                self.prefix_lengths = {len(p) for p in self.by_prefix}
        self._reshape()

    def _reshape(self) -> None:
        lengths = self.prefix_lengths
        self.only_length = (
            next(iter(lengths)) if len(lengths) == 1 and not self.unprefixed else None
        )

    @property
    def empty(self) -> bool:
        """True once no rule is indexed here."""
        return not self.by_prefix and not self.unprefixed

    def candidates(self, request_id: str | None) -> _t.Sequence[InstalledRule]:
        """Rules that could match ``request_id``, in install order."""
        if request_id is None:
            return self.unprefixed
        if self.only_length is not None:
            return self.by_prefix.get(request_id[: self.only_length], ())
        found = [
            installed
            for length in self.prefix_lengths
            for installed in self.by_prefix.get(request_id[:length], ())
        ]
        found.extend(self.unprefixed)
        found.sort(key=lambda installed: installed.order)
        return found


class PrefixIndexMatcher(RuleMatcher):
    """Bucketed matcher exploiting structured request IDs.

    Rules are grouped by ``(dst, direction)`` and, within a group,
    hashed by the literal prefix of their ID glob (the text before the
    first wildcard).  A non-matching request ID is dismissed with one
    dict lookup per distinct prefix *length* — flat in the number of
    installed rules — which is the optimization the paper's Section 7.2
    suggests ("structured (e.g., prefix-based ...) request IDs") for
    reducing proxy overhead.  First-match-wins ordering is preserved by
    sorting the (usually tiny) candidate list by installation order.
    """

    def __init__(self, rng: _t.Optional[_random.Random] = None) -> None:
        self._buckets: dict[tuple[str, str], _PrefixBucket] = {}
        super().__init__(rng)

    def match(
        self,
        dst: str,
        direction: str,
        request_id: str | None,
        body: bytes | None = None,
    ) -> InstalledRule | None:
        # One dict probe; a slot without rules (most messages) ends
        # here.  The bucket pre-filters by literal ID prefix, and the
        # shared _scan still runs the full structural checks and owns
        # the probability draw.
        bucket = self._buckets.get((dst, direction))
        if bucket is None:
            return None
        return self._scan(bucket.candidates(request_id), request_id, body)

    def _index(self, installed: InstalledRule) -> None:
        key = (installed.rule.dst, installed.rule.on)
        self._buckets.setdefault(key, _PrefixBucket()).add(installed)

    def _unindex(self, installed: InstalledRule) -> None:
        key = (installed.rule.dst, installed.rule.on)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(installed)
        if bucket.empty:
            del self._buckets[key]

    def _clear_index(self) -> None:
        self._buckets.clear()


def _literal_prefix(pattern: str) -> str:
    """Longest wildcard-free prefix of a glob (``"test-*"`` -> ``"test-"``)."""
    for index, char in enumerate(pattern):
        if char in "*?[":
            return pattern[:index]
    return pattern


def make_matcher(strategy: str, rng: _t.Optional[_random.Random] = None) -> RuleMatcher:
    """Factory: ``"linear"`` (the oracle) or ``"prefix"`` (production)."""
    if strategy == "linear":
        return LinearMatcher(rng)
    if strategy == "prefix":
        return PrefixIndexMatcher(rng)
    raise RuleValidationError(f"unknown matcher strategy {strategy!r}")


__all__.append("make_matcher")
