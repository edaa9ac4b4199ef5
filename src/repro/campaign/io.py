"""JSON-lines export/import for campaign results.

Follows the conventions of :mod:`repro.logstore.export`: one JSON
document per line, dump/load round-trips exactly, and malformed input
fails loudly with the offending line number — a corrupt campaign dump
must not silently produce a wrong diff.

Line 1 is a ``{"record": "campaign", ...}`` header carrying the
aggregate fields and :data:`FORMAT_VERSION`; every following line is a
``{"record": "outcome", ...}`` document.  A header whose version is
missing or different is refused rather than read as today's format.
The format is append-friendly and greppable, like the observation-log
dumps.
"""

from __future__ import annotations

import json
import typing as _t

from repro.campaign.results import CampaignResult, RecipeOutcome
from repro.errors import CampaignError

__all__ = ["dumps", "loads", "dump_jsonl", "load_jsonl"]

#: Format version written into the header line.
FORMAT_VERSION = 1


def dumps(result: CampaignResult) -> str:
    """Serialize a campaign result to JSON-lines text."""
    header = {
        "record": "campaign",
        "version": FORMAT_VERSION,
        "name": result.name,
        "app": result.app,
        "seed": result.seed,
        "workers": result.workers,
        "wall_time": result.wall_time,
        "rerun_failures": result.rerun_failures,
    }
    lines = [json.dumps(header)]
    for outcome in result.outcomes:
        doc = outcome.to_dict()
        doc["record"] = "outcome"
        lines.append(json.dumps(doc))
    return "\n".join(lines)


def loads(text: str) -> CampaignResult:
    """Rebuild a campaign result from JSON-lines text.

    Raises :class:`CampaignError` naming the offending line on any
    malformed input.
    """
    header: _t.Optional[dict] = None
    outcomes: list[RecipeOutcome] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CampaignError(
                f"malformed campaign dump at line {line_number}: {exc}"
            ) from exc
        if not isinstance(doc, dict):
            raise CampaignError(
                f"malformed campaign dump at line {line_number}:"
                f" expected an object, got {type(doc).__name__}"
            )
        kind = doc.pop("record", None)
        if header is None:
            if kind != "campaign":
                raise CampaignError(
                    f"malformed campaign dump at line {line_number}:"
                    " first record must be the campaign header"
                )
            version = doc.pop("version", None)
            if version != FORMAT_VERSION:
                raise CampaignError(
                    f"unsupported campaign dump at line {line_number}:"
                    f" format version {version!r}, expected {FORMAT_VERSION}"
                )
            header = doc
        elif kind == "outcome":
            try:
                outcomes.append(RecipeOutcome.from_dict(doc))
            except (TypeError, ValueError, KeyError) as exc:
                raise CampaignError(
                    f"malformed campaign dump at line {line_number}: {exc}"
                ) from exc
        else:
            raise CampaignError(
                f"malformed campaign dump at line {line_number}:"
                f" unknown record kind {kind!r}"
            )
    if header is None:
        raise CampaignError("empty campaign dump: no header record")
    try:
        return CampaignResult(outcomes=outcomes, **header)
    except TypeError as exc:
        raise CampaignError(f"malformed campaign header: {exc}") from exc


def dump_jsonl(result: CampaignResult, path: _t.Union[str, "_t.Any"]) -> int:
    """Write the result to ``path``; returns the number of outcomes."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(result))
        handle.write("\n")
    return len(result.outcomes)


def load_jsonl(path: _t.Union[str, "_t.Any"]) -> CampaignResult:
    """Read a campaign result back from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
