"""Systematic fault-space exploration.

Where :mod:`repro.fuzz` samples the fault space at random, this package
maps it: a fault-free discovery run names every injection point as a
replayable execution-index coordinate (entrypoint, call-path,
invocation ordinal, fault primitive); a prioritized frontier — seeded
with FastFI-style per-edge sweeps — decides execution order; trace-shape
coverage feedback steers it; masking-based pruning shrinks it; and the
coverage report accounts for all of it against the seeded apps' planted
ground truth (:data:`repro.apps.SEEDED_BUG_SUITE`).

Modules:

* :mod:`~repro.explore.coords` — the coordinate model and enumeration
* :mod:`~repro.explore.compiler` — coordinate → scenarios/recipe
* :mod:`~repro.explore.frontier` — prioritized search with pruning
* :mod:`~repro.explore.executor` — fleet execution of coordinates
* :mod:`~repro.explore.runner` — the exploration loop
* :mod:`~repro.explore.report` — coverage accounting
* :mod:`~repro.explore.suite` — findings exported as campaign recipes

Entry point: :func:`~repro.explore.runner.run_explore` (CLI verb
``fuzz explore``).
"""

from repro.explore.compiler import compile_scenarios, coordinate_recipe, scenario_specs
from repro.explore.coords import (
    FAULT_PRIMITIVES,
    Coordinate,
    ExplorationSpace,
    enumerate_space,
    fault_primitives,
)
from repro.explore.executor import (
    ExploreOutcome,
    ExploreTask,
    execute_task,
    run_wave,
    task_fleet,
)
from repro.explore.frontier import Frontier
from repro.explore.report import BugFinding, CoverageReport
from repro.explore.runner import (
    STRATEGIES,
    ExploreResult,
    discover_space,
    run_explore,
)
from repro.explore.suite import (
    dump_recipe_suite,
    export_recipe_suite,
    load_recipe_suite,
    read_recipe_suite,
)

__all__ = [
    "FAULT_PRIMITIVES",
    "STRATEGIES",
    "BugFinding",
    "Coordinate",
    "CoverageReport",
    "ExplorationSpace",
    "ExploreOutcome",
    "ExploreResult",
    "ExploreTask",
    "Frontier",
    "compile_scenarios",
    "coordinate_recipe",
    "discover_space",
    "dump_recipe_suite",
    "enumerate_space",
    "execute_task",
    "export_recipe_suite",
    "fault_primitives",
    "load_recipe_suite",
    "read_recipe_suite",
    "run_explore",
    "run_wave",
    "scenario_specs",
    "task_fleet",
]
