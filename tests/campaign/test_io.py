"""Tests for campaign dumps: ``campaign`` artifacts (repro.artifact)."""

import json

import pytest

from repro import artifact
from repro.campaign import CampaignResult, CheckOutcome, RecipeOutcome, dumps, loads
from repro.campaign.io import dump_jsonl, load_jsonl
from repro.errors import ArtifactError

from tests.conftest import sealed

HEADER = {"kind": "campaign", "version": 2}


def sample_result():
    return CampaignResult(
        name="nightly",
        app="wordpress",
        seed=42,
        workers=4,
        wall_time=12.5,
        rerun_failures=2,
        outcomes=[
            RecipeOutcome(
                index=0,
                name="auto/overload-mysql",
                pattern="overload",
                service="mysql",
                seed=101,
                status="pass",
                checks=[
                    CheckOutcome(
                        name="HasBoundedRetries", passed=True, inconclusive=False, detail="ok"
                    )
                ],
                orchestration_time=0.001,
                assertion_time=0.002,
                wall_time=0.3,
                window=(0.0, 8.25),
                latencies=[0.05, 0.07, 0.06],
                attempts=["pass"],
                worker=2,
            ),
            RecipeOutcome(
                index=1,
                name="auto/hang-mysql",
                pattern="hang",
                service="mysql",
                seed=102,
                status="fail",
                error=None,
                attempts=["fail", "pass"],
                classification="flaky",
                worker=0,
            ),
        ],
    )


def body_lines():
    """The sample dump's body lines: the campaign record, then outcomes."""
    return dumps(sample_result()).splitlines()[1:-1]


class TestRoundTrip:
    def test_loads_inverts_dumps(self):
        original = sample_result()
        restored = loads(dumps(original))
        assert restored == original

    def test_dump_is_stable(self):
        text = dumps(sample_result())
        assert dumps(loads(text)) == text

    def test_header_carries_aggregate_fields(self):
        restored = loads(dumps(sample_result()))
        assert (restored.name, restored.app, restored.seed) == ("nightly", "wordpress", 42)
        assert restored.workers == 4
        assert restored.rerun_failures == 2
        assert restored.wall_time == pytest.approx(12.5)

    def test_derived_views_survive(self):
        restored = loads(dumps(sample_result()))
        assert restored.counts()["fail"] == 1
        assert [o.name for o in restored.flaky] == ["auto/hang-mysql"]
        assert restored.outcome("auto/overload-mysql").window == (0.0, 8.25)

    def test_blank_lines_are_refused(self):
        with pytest.raises(ArtifactError, match="line 7: no trailer"):
            loads(dumps(sample_result()) + "\n\n")
        lines = body_lines()
        with pytest.raises(ArtifactError, match="line 3: blank line"):
            loads(sealed(HEADER, [lines[0], "", *lines[1:]]))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        written = dump_jsonl(sample_result(), path)
        assert written == 2
        assert load_jsonl(path) == sample_result()
        # The temp file the write went through is gone.
        assert [p.name for p in tmp_path.iterdir()] == ["campaign.jsonl"]


class TestMalformedInput:
    def test_bad_json_names_line(self):
        with pytest.raises(ArtifactError, match="line 5: not JSON"):
            loads(sealed(HEADER, body_lines() + ["{broken"]))

    def test_non_object_line(self):
        with pytest.raises(ArtifactError, match="line 1: expected a JSON object, got list"):
            loads("[1, 2, 3]\n")
        with pytest.raises(ArtifactError, match="line 5: expected a JSON object, got list"):
            loads(sealed(HEADER, body_lines() + ["[1, 2, 3]"]))

    def test_first_record_must_be_header(self):
        lines = dumps(sample_result()).splitlines(keepends=True)
        with pytest.raises(ArtifactError, match="line 1: None version None, expected 'campaign'"):
            loads("".join(lines[1:]))

    def test_unknown_record_kind(self):
        text = artifact.dumps("log-export", [])
        with pytest.raises(
            ArtifactError, match="line 1: 'log-export' version 1, expected 'campaign' version 2"
        ):
            loads(text)

    def test_bad_outcome_fields(self):
        campaign, *_ = body_lines()
        text = artifact.dumps("campaign", [json.loads(campaign), {"nope": True}])
        with pytest.raises(ArtifactError, match="line 3: .*nope"):
            loads(text)

    def test_empty_dump(self):
        with pytest.raises(ArtifactError, match="line 1: no final newline"):
            loads("")
        with pytest.raises(ArtifactError, match="line 1: blank line"):
            loads("\n\n")
        with pytest.raises(ArtifactError, match="line 2: no campaign record"):
            loads(artifact.dumps("campaign", []))


def with_header(text, **changes):
    """``text`` with its header line rewritten; a None value drops the key."""
    lines = text.splitlines()
    header = json.loads(lines[0])
    for key, value in changes.items():
        if value is None:
            header.pop(key, None)
        else:
            header[key] = value
    return "\n".join([json.dumps(header)] + lines[1:]) + "\n"


class TestFormatVersion:
    """A dump in a format this revision does not write is refused: read
    as today's format it would render a wrong report or diff."""

    def test_header_carries_the_version(self):
        first = dumps(sample_result()).splitlines()[0]
        assert first == '{"kind":"campaign","version":2}'
        assert json.loads(first)["version"] == artifact.KINDS["campaign"]

    @pytest.mark.parametrize("version", [99, None], ids=["bumped", "missing"])
    def test_other_version_is_refused(self, version):
        text = with_header(dumps(sample_result()), version=version)
        with pytest.raises(
            ArtifactError, match=rf"line 1: 'campaign' version {version!r}, expected 'campaign' version 2"
        ):
            loads(text)

    def test_version_after_blank_lines_names_its_line(self):
        # The blank line is refused first; the version is never read.
        text = "\n\n" + with_header(dumps(sample_result()), version="1")
        with pytest.raises(ArtifactError, match=r"line 1: blank line"):
            loads(text)

    def test_a_format_1_dump_is_refused(self):
        old = json.dumps({"record": "campaign", "version": 1, "name": "c"}) + "\n"
        with pytest.raises(ArtifactError, match=r"line 1: None version 1, expected 'campaign'"):
            loads(old)
