"""Recipes and their results.

A :class:`Recipe` is the operator-facing test description of paper
Section 3.2: an outage scenario (one or more
:class:`~repro.core.scenarios.FailureScenario`), the load to inject,
and the assertions (:class:`~repro.core.patterns.PatternCheck`) on how
the microservices must react.  :class:`RecipeResult` carries per-check
outcomes plus the orchestration/assertion wall-clock split that the
Figure 7 benchmark reports.

Recipes here are declarative; the *chained failures* style of Section
4.2 (inject, check, decide, inject again) is written imperatively
against the :class:`~repro.core.gremlin.Gremlin` facade — Python is the
recipe language in both the paper and this reproduction.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.patterns import CheckResult, PatternCheck
from repro.core.scenarios import FailureScenario
from repro.errors import RecipeError

__all__ = ["Recipe", "RecipeResult"]

#: Load callables receive the deployment and return a generator to run
#: as a simulation process (e.g. a loadgen driver).
LoadFactory = _t.Callable[[_t.Any], _t.Generator]


@dataclasses.dataclass
class Recipe:
    """One declarative resilience test.

    Parameters
    ----------
    name:
        Identifier for reports.
    scenarios:
        Failure scenarios to stage, in priority order.
    checks:
        Pattern checks to validate after the failure window.
    load:
        Optional callable building the test-load process; when omitted
        the operator drives load manually before checking.
    settle:
        Extra virtual seconds to run after the load finishes, letting
        in-flight retries/backoffs and the log pipeline settle.
    """

    name: str
    scenarios: _t.Sequence[FailureScenario]
    checks: _t.Sequence[PatternCheck] = ()
    load: _t.Optional[LoadFactory] = None
    settle: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise RecipeError("recipe needs a name")
        # Normalize to tuples so two recipes built from a list and a
        # tuple of equal elements compare equal (dataclass __eq__) —
        # the contract the fuzzer's JSON round-trip tests rely on.
        self.scenarios = tuple(self.scenarios)
        self.checks = tuple(self.checks)
        if not self.scenarios:
            raise RecipeError(f"recipe {self.name!r} has no failure scenarios")
        for scenario in self.scenarios:
            if not isinstance(scenario, FailureScenario):
                raise RecipeError(
                    f"recipe {self.name!r}: {scenario!r} is not a FailureScenario"
                )
        for check in self.checks:
            if not isinstance(check, PatternCheck):
                raise RecipeError(f"recipe {self.name!r}: {check!r} is not a PatternCheck")


@dataclasses.dataclass
class RecipeResult:
    """Everything a recipe execution produced."""

    recipe: Recipe
    #: Per-check outcomes, in recipe order.
    checks: list[CheckResult]
    #: Rules installed, per agent instance.
    installed: dict[str, list[int]]
    #: Wall-clock seconds programming the data plane (Fig 7 x-axis).
    orchestration_time: float
    #: Wall-clock seconds evaluating all assertions (Fig 7 series 2).
    assertion_time: float
    #: Virtual time span [start, end] of the failure window.
    window: tuple[float, float]

    @property
    def passed(self) -> bool:
        """True when every check passed."""
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        """The checks that did not pass."""
        return [check for check in self.checks if not check.passed]

    def report(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"recipe {self.recipe.name!r}: {'PASS' if self.passed else 'FAIL'}",
            f"  scenarios: {', '.join(s.describe() for s in self.recipe.scenarios)}",
            f"  orchestration: {self.orchestration_time * 1e3:.2f} ms"
            f" ({sum(len(v) for v in self.installed.values())} rule installs"
            f" on {len(self.installed)} agents)",
            f"  assertions:   {self.assertion_time * 1e3:.2f} ms",
        ]
        for check in self.checks:
            lines.append(f"  {check}")
        return "\n".join(lines)
