"""The artifact envelope: one atomic writer, one reader that refuses a
torn or edited file (``repro.artifact``)."""

import json
import os
import stat

import pytest
from hypothesis import given, settings, strategies as st

from repro import artifact
from repro.campaign import dumps as campaign_dumps, loads as campaign_loads
from repro.errors import ArtifactError
from repro.logstore import dumps as log_dumps, loads as log_loads

from tests.campaign.test_io import sample_result
from tests.conftest import sealed
from tests.logstore.test_export import populated_store

KINDS = sorted(artifact.KINDS)

_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
_values = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
_records = st.lists(st.dictionaries(st.text(max_size=6), _values, max_size=4), max_size=4)


def corruptions(text: str, mask: int):
    """Every proper prefix; every dropped, duplicated, swapped line and
    inserted blank line; every single-byte ASCII substitution (by XOR
    with 1 and with ``mask``) of ``text``."""
    for end in range(len(text)):
        yield f"prefix {end}", text[:end]
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        yield f"drop {i}", "".join(lines[:i] + lines[i + 1:])
        yield f"duplicate {i}", "".join(lines[:i + 1] + lines[i:])
        for j in range(i + 1, len(lines)):
            if lines[j] != line:
                swapped = list(lines)
                swapped[i], swapped[j] = lines[j], line
                yield f"swap {i} {j}", "".join(swapped)
    for i in range(len(lines) + 1):
        yield f"blank at {i}", "".join(lines[:i] + ["\n"] + lines[i:])
    for position, char in enumerate(text):
        for flip in {1, mask}:
            substituted = chr(ord(char) ^ flip)
            yield f"byte {position} {char!r}->{substituted!r}", (
                text[:position] + substituted + text[position + 1:]
            )


class TestProperty:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KINDS), records=_records)
    def test_round_trip_returns_the_records(self, kind, records):
        assert artifact.loads(artifact.dumps(kind, records), kind) == records

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KINDS), records=_records, mask=st.integers(1, 127))
    def test_every_corruption_is_refused(self, kind, records, mask):
        text = artifact.dumps(kind, records)
        assert text.isascii()
        for what, corrupted in corruptions(text, mask):
            with pytest.raises(ArtifactError):
                artifact.loads(corrupted, kind)
                pytest.fail(f"{what} was read back")

    @pytest.mark.parametrize(
        "text, load",
        [
            (campaign_dumps(sample_result()), campaign_loads),
            (log_dumps(populated_store()), log_loads),
        ],
        ids=["campaign", "log-export"],
    )
    def test_format_readers_refuse_every_corruption(self, text, load):
        for what, corrupted in corruptions(text, 0x20):
            with pytest.raises(ArtifactError):
                load(corrupted)
                pytest.fail(f"{what} was read back")


class TestReader:
    def test_missing_trailer(self):
        text = artifact.dumps("campaign", [{"a": 1}])
        cut = "".join(text.splitlines(keepends=True)[:-1])
        with pytest.raises(ArtifactError, match="<text>: line 2: no trailer"):
            artifact.loads(cut, "campaign")

    def test_respaced_trailer(self):
        text = artifact.dumps("campaign", [{"a": 1}])
        respaced = text.replace('{"count":1,', '{"count": 1,')
        with pytest.raises(ArtifactError, match="line 3: no trailer"):
            artifact.loads(respaced, "campaign")

    def test_count_mismatch(self):
        text = artifact.dumps("campaign", [{"a": 1}]).replace('"count":1', '"count":2')
        with pytest.raises(ArtifactError, match="line 3: trailer counts 2 records, not 1"):
            artifact.loads(text, "campaign")

    def test_digest_mismatch(self):
        text = artifact.dumps("campaign", [{"a": 1}]).replace('{"a":1}', '{"a":2}')
        with pytest.raises(ArtifactError, match="line 3: sha256 mismatch"):
            artifact.loads(text, "campaign")

    def test_foreign_kind_and_wrong_version(self):
        text = artifact.dumps("log-export", [])
        with pytest.raises(ArtifactError, match="line 1: 'log-export' version 1, expected 'campaign' version 2"):
            artifact.loads(text, "campaign")
        old = sealed({"kind": "campaign", "version": 1}, [])
        with pytest.raises(ArtifactError, match="line 1: 'campaign' version 1, expected 'campaign' version 2"):
            artifact.loads(old, "campaign")

    @pytest.mark.parametrize(
        "line, problem",
        [("", "blank line"), ("[1]", "expected a JSON object, got list"), ("{", "not JSON")],
        ids=["blank", "list", "broken"],
    )
    def test_bad_body_line(self, line, problem):
        text = sealed({"kind": "campaign", "version": 2}, ["{}", line])
        with pytest.raises(ArtifactError, match=f"line 3: {problem}"):
            artifact.loads(text, "campaign")

    def test_missing_final_newline(self):
        text = artifact.dumps("campaign", [{"a": 1}])
        with pytest.raises(ArtifactError, match="line 3: no final newline"):
            artifact.loads(text[:-1], "campaign")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="missing: cannot read") as err:
            artifact.read(tmp_path / "missing", "campaign")
        assert err.value.args[1] is None

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "a"
        data = artifact.dumps("campaign", [{"a": 1}]).encode()
        for high in range(0x80, 0x100):
            path.write_bytes(data[:12] + bytes([high]) + data[13:])
            with pytest.raises(ArtifactError, match="a: cannot read: 'utf-8' codec"):
                artifact.read(path, "campaign")

    def test_decode_names_the_record_line(self):
        records = [{"n": 1}, {"n": "x"}]
        with pytest.raises(ArtifactError, match="src: line 3: .*'x'"):
            artifact.decode("src", records, lambda record: int(record["n"]))
        with pytest.raises(ArtifactError, match="src: line 2: missing field 'm'"):
            artifact.decode("src", records, lambda record: record["m"])

    def test_error_pickles(self):
        import pickle

        error = pickle.loads(pickle.dumps(ArtifactError("f", 3, "why")))
        assert (str(error), error.args) == ("f: line 3: why", ("f", 3, "why"))


class TestAtomicWriter:
    def test_file_format(self, tmp_path):
        path = tmp_path / "a.jsonl"
        artifact.write(path, "fuzz-artifact", [{"x": [1, 2]}])
        header, record, trailer = path.read_text().splitlines()
        assert header == '{"kind":"fuzz-artifact","version":2}'
        assert record == '{"x":[1,2]}'
        assert json.loads(trailer)["count"] == 1
        assert artifact.read(path, "fuzz-artifact") == [{"x": [1, 2]}]

    def test_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "a.jsonl"
        artifact.write(path, "campaign", [{"old": True}])

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(ArtifactError, match="cannot write: No space left on device"):
            artifact.write(path, "campaign", [{"new": True}])
        assert artifact.read(path, "campaign") == [{"old": True}]
        assert os.listdir(tmp_path) == ["a.jsonl"]

    @pytest.mark.parametrize(
        "name, why",
        [("out", "Is a directory"), ("missing/a.jsonl", "No such file or directory")],
    )
    def test_unwritable_path_is_refused_without_a_temp(self, tmp_path, name, why):
        (tmp_path / "out").mkdir()
        path = tmp_path / name
        with pytest.raises(ArtifactError) as err:
            artifact.write(path, "campaign", [{"x": 1}])
        assert str(err.value) == f"{path}: cannot write: {why}"
        assert sorted(os.listdir(tmp_path)) == ["out"]
        assert os.listdir(tmp_path / "out") == []

    def test_makedirs_over_a_file_is_refused(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("")
        with pytest.raises(ArtifactError, match="a.json: cannot write: File exists"):
            artifact.makedirs(path)
        artifact.makedirs(tmp_path / "d" / "e")
        assert (tmp_path / "d" / "e").is_dir()

    def test_permissions_follow_the_umask(self, tmp_path):
        previous = os.umask(0o022)
        try:
            artifact.write_atomic(tmp_path / "r.html", "<p>—</p>")
        finally:
            os.umask(previous)
        path = tmp_path / "r.html"
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert path.read_bytes() == "<p>—</p>".encode()
