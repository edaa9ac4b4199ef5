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
* :mod:`~repro.explore.coverage` — coverage accounting
* :mod:`~repro.explore.suite` — findings exported as campaign recipes

Entry point: :func:`~repro.explore.runner.run_explore` (CLI verb
``fuzz explore``).
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "compiler": ["compile_scenarios", "coordinate_recipe"],
        "coords": [
            "FAULT_PRIMITIVES",
            "Coordinate",
            "ExplorationSpace",
            "enumerate_space",
            "fault_primitives",
        ],
        "coverage": ["BugFinding", "CoverageReport"],
        "executor": [
            "ExploreOutcome",
            "ExploreTask",
            "execute_task",
            "run_wave",
            "task_fleet",
        ],
        "frontier": ["Frontier"],
        "runner": ["STRATEGIES", "ExploreResult", "discover_space", "run_explore"],
        "suite": [
            "dump_recipe_suite",
            "export_recipe_suite",
            "load_recipe_suite",
            "read_recipe_suite",
        ],
    },
)
