"""Campaign results as ``campaign`` artifacts (:mod:`repro.artifact`).

Body record 1 holds the campaign's aggregate fields, every later record
one outcome.  A dump that is torn, edited, of another version or holds
an undecodable outcome is refused naming its line: a corrupt dump must
never render as a smaller campaign's report or diff.
"""

from __future__ import annotations

import typing as _t

from repro import artifact
from repro.campaign.results import CampaignResult, RecipeOutcome
from repro.errors import ArtifactError

__all__ = ["dumps", "loads", "dump_jsonl", "load_jsonl"]

_FIELDS = ("name", "app", "seed", "workers", "wall_time", "rerun_failures")


def _decode(records: _t.List[dict], source: str) -> CampaignResult:
    if not records:
        raise ArtifactError(source, 2, "no campaign record")
    outcomes = artifact.decode(source, records, RecipeOutcome.from_dict, first=1)
    (result,) = artifact.decode(
        source, records[:1], lambda fields: CampaignResult(outcomes=outcomes, **fields)
    )
    return result


def _records(result: CampaignResult) -> _t.Iterator[dict]:
    # A generator, so each outcome's document is freed once encoded.
    yield {name: getattr(result, name) for name in _FIELDS}
    for outcome in result.outcomes:
        yield outcome.to_dict()


def dumps(result: CampaignResult) -> str:
    """Serialize a campaign result to its artifact text."""
    return artifact.dumps("campaign", _records(result))


def loads(text: str) -> CampaignResult:
    """Rebuild a campaign result from artifact text."""
    return _decode(artifact.loads(text, "campaign"), "<text>")


def dump_jsonl(result: CampaignResult, path: _t.Union[str, "_t.Any"]) -> int:
    """Write the result to ``path`` atomically; returns the number of outcomes."""
    artifact.write_atomic(path, dumps(result))
    return len(result.outcomes)


def load_jsonl(path: _t.Union[str, "_t.Any"]) -> CampaignResult:
    """Read a campaign result back from ``path``."""
    return _decode(artifact.read(path, "campaign"), str(path))
