"""Recipe suites: exploration findings exported as campaign input.

Exploration is how bugs are *found*; campaigns are how they are *kept
fixed*.  The coordinates whose executions surfaced a planted bug export
to a ``recipe-suite`` artifact (:mod:`repro.artifact`; CLI ``fuzz
explore --recipes-out``) and a campaign loads it back as extra recipes
(CLI ``campaign run --recipes``), with the same bit-for-bit replay
guarantee coordinates always carry.  Body record 1 is ``{app,
strategy, seed}``; every later one is ``{key, bug_ids, coordinate}``.
"""

from __future__ import annotations

import typing as _t

from repro import artifact
from repro.errors import ArtifactError, ExploreError
from repro.explore.compiler import coordinate_recipe
from repro.explore.coords import Coordinate

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.recipes import Recipe
    from repro.explore.runner import ExploreResult

__all__ = ["dump_recipe_suite", "export_recipe_suite", "load_recipe_suite", "read_recipe_suite"]


def export_recipe_suite(result: "ExploreResult") -> _t.List[dict]:
    """An exploration's bug-finding coordinates as suite records.

    One entry per finding, in discovery order, deduplicated on the
    coordinate (two bugs surfacing on one execution share it).  The
    full coordinate dict rides along, so loading needs no re-discovery.
    """
    by_key = {coordinate.key(): coordinate for coordinate in result.space.coordinates}
    bug_ids: _t.Dict[str, _t.List[str]] = {}
    for finding in result.findings:
        bug_ids.setdefault(finding.coordinate, []).append(finding.bug_id)
    return [{"app": result.app, "strategy": result.strategy, "seed": result.seed}] + [
        {"key": key, "bug_ids": sorted(ids), "coordinate": by_key[key].to_dict()}
        for key, ids in bug_ids.items()
    ]


def dump_recipe_suite(result: "ExploreResult", path: str) -> None:
    """Write :func:`export_recipe_suite` records to ``path`` atomically."""
    artifact.write(path, "recipe-suite", export_recipe_suite(result))


def load_recipe_suite(
    records: _t.Sequence[dict], source: str = "<records>"
) -> _t.Tuple[str, _t.List["Recipe"]]:
    """Compile suite records back into ``(app name, recipes)``.

    Each coordinate compiles through the same
    :func:`~repro.explore.compiler.coordinate_recipe` path exploration
    itself replays through, so a campaign running the returned recipes
    re-executes the exact injections that surfaced the bugs —
    including the manifest's pattern checks as assertions.
    """
    from repro.apps.outages import SEEDED_BUG_SUITE

    def suite_app(fields: dict) -> str:
        if fields["app"] not in SEEDED_BUG_SUITE:
            raise ExploreError(f"recipe suite targets unknown app {fields['app']!r}")
        return fields["app"]

    def recipe(entry: dict) -> "Recipe":
        coordinate = Coordinate.from_dict(entry["coordinate"])
        if coordinate.app != app:
            raise ExploreError(
                f"coordinate {entry.get('key')!r} targets app"
                f" {coordinate.app!r}, suite says {app!r}"
            )
        return coordinate_recipe(coordinate, SEEDED_BUG_SUITE[app])

    if not records:
        raise ArtifactError(source, 2, "no suite record")
    (app,) = artifact.decode(source, records[:1], suite_app)
    return app, artifact.decode(source, records, recipe, first=1)


def read_recipe_suite(path: str) -> _t.Tuple[str, _t.List["Recipe"]]:
    """:func:`load_recipe_suite` from a file path."""
    return load_recipe_suite(artifact.read(path, "recipe-suite"), str(path))
