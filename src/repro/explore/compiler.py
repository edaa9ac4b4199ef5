"""Deterministic compilation of coordinates into recipes and rules.

A coordinate names an injection point; this module turns it into the
exact data-plane programming that hits that point and nothing else,
reusing the same scenario vocabulary as the rest of the stack:

* :func:`compile_scenarios` — :class:`FailureScenario` objects, which
  pickle as they are to fleet workers;
* :func:`coordinate_recipe` — a full :class:`~repro.core.recipe.Recipe`
  pairing the fault with the app manifest's pattern checks, runnable
  by the :class:`~repro.core.gremlin.Gremlin` facade like any
  hand-written recipe.

Compilation is a pure function of (coordinate, manifest): the same
coordinate always yields the same rules, which is what makes replay
bit-for-bit reproducible across backends, schedulers, and machines.

Targeting one invocation uses the rule plumbing end to end: an exact
request-ID ``pattern`` selects the request, ``skip_matches=ordinal``
lets earlier calls on the edge pass untouched, and ``max_matches=1``
retires the rule after the one injection.
"""

from __future__ import annotations

import typing as _t

from repro.apps.outages import SeededBugManifest
from repro.core.recipe import Recipe
from repro.core.scenarios import AbortCalls, DelayCalls, FailureScenario
from repro.errors import ExploreError
from repro.explore.coords import Coordinate, fault_primitives

__all__ = ["compile_scenarios", "coordinate_recipe"]


def compile_scenarios(
    coordinate: Coordinate, manifest: SeededBugManifest
) -> _t.List[FailureScenario]:
    """The coordinate's fault as scenario objects."""
    if coordinate.app != manifest.name:
        raise ExploreError(
            f"coordinate {coordinate.key()!r} belongs to app"
            f" {coordinate.app!r}, not {manifest.name!r}"
        )
    fault_params = dict(fault_primitives(manifest))[coordinate.fault]
    scenario = DelayCalls if "interval" in fault_params else AbortCalls
    # A single coordinate injects exactly once: the ordinal-th call on
    # this edge within the one named request.
    budget = (
        {"max_matches": 1, "skip_matches": coordinate.ordinal}
        if coordinate.mode == "single"
        else {}
    )
    return [
        scenario(
            coordinate.src,
            coordinate.dst,
            pattern=coordinate.request_id,
            **fault_params,
            **budget,
        )
    ]


def coordinate_recipe(
    coordinate: Coordinate, manifest: SeededBugManifest
) -> Recipe:
    """A complete recipe: the coordinate's fault + the manifest checks.

    The recipe is indistinguishable from a hand-written one, so the
    whole existing tooling (``Gremlin.run_recipe``, the campaign
    planner, recipe serialization in repro artifacts) applies to
    explored coordinates unchanged.
    """
    return Recipe(
        name=f"explore/{manifest.name}/{coordinate.key()}",
        scenarios=compile_scenarios(coordinate, manifest),
        checks=manifest.checks(),
    )
