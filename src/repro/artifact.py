"""One envelope for every file the harness reads back.

Line 1 is a header ``{"kind","version"}``, then one compact JSON object
per body record, then a trailer ``{"count","sha256"}`` whose digest
covers every byte before it.  :func:`write` replaces a file atomically;
:func:`read` refuses anything :func:`dumps` would not have written —
torn, edited, another kind or version — with one
:class:`~repro.errors.ArtifactError` naming the file and the line.

>>> loads(dumps("log-export", [{"a": 1}]), "log-export")
[{'a': 1}]
"""

from __future__ import annotations

import hashlib
import json
import os
import typing as _t

from repro.errors import ArtifactError, GremlinError

__all__ = ["KINDS", "decode", "dumps", "loads", "makedirs", "read", "write", "write_atomic"]

#: Kind -> the one version this build writes and reads; older files are
#: refused, never migrated.
KINDS = {"campaign": 2, "log-export": 1, "fuzz-artifact": 2, "recipe-suite": 2}

_encode = json.JSONEncoder(separators=(",", ":")).encode


def _digest(lines: _t.List[str]) -> str:
    """SHA-256 of ``lines``, each newline-ended, without joining them."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def dumps(kind: str, records: _t.Iterable[dict]) -> str:
    """The file text of ``records`` as a ``kind`` artifact."""
    lines = [_encode({"kind": kind, "version": KINDS[kind]}), *map(_encode, records)]
    lines += [_encode({"count": len(lines) - 1, "sha256": _digest(lines)}), ""]
    return "\n".join(lines)


def _cannot_write(path: _t.Any, exc: OSError) -> ArtifactError:
    return ArtifactError(os.fspath(path), None, f"cannot write: {exc.strerror or exc}")


def write_atomic(path: _t.Any, text: str) -> None:
    """Replace ``path`` by ``text`` through a temp file in its directory,
    fsynced first: a reader sees the old file or the new one, never torn.
    A path that cannot be written is refused, and no temp file is left."""
    temp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as handle:
                handle.write(text.encode())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def makedirs(path: _t.Any) -> None:
    """``os.makedirs(path, exist_ok=True)``, refused like a failed write."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def write(path: _t.Any, kind: str, records: _t.Iterable[dict]) -> None:
    write_atomic(path, dumps(kind, records))


def _record(source: str, line: int, text: str) -> dict:
    if not text:
        raise ArtifactError(source, line, "blank line")
    try:
        record = json.loads(text)
    except ValueError as exc:
        raise ArtifactError(source, line, f"not JSON: {exc}") from None
    if type(record) is not dict:
        got = type(record).__name__
        raise ArtifactError(source, line, f"expected a JSON object, got {got}")
    return record


def _trailer(text: str) -> _t.Optional[tuple]:
    """``(count, sha256)`` of a trailer written byte for byte by :func:`dumps`."""
    try:
        fields = json.loads(text)
        count, digest = fields["count"], fields["sha256"]
    except (ValueError, TypeError, KeyError):
        return None
    return (count, digest) if text == _encode({"count": count, "sha256": digest}) else None


def loads(text: str, kind: str, *, source: str = "<text>") -> _t.List[dict]:
    """The body records of a ``kind`` artifact's text."""
    if not text.endswith("\n"):
        raise ArtifactError(source, text.count("\n") + 1, "no final newline: cut short")
    lines = text.split("\n")
    del lines[-1]
    header, last = _record(source, 1, lines[0]), len(lines)
    found = header.get("kind"), header.get("version")
    if found != (kind, KINDS[kind]):
        expected = f"expected {kind!r} version {KINDS[kind]}"
        raise ArtifactError(source, 1, f"{found[0]!r} version {found[1]!r}, {expected}")
    trailer = _trailer(lines[-1]) if last > 1 else None
    if trailer is None:
        raise ArtifactError(source, last, "no trailer: cut short or edited")
    if trailer[0] != last - 2:
        raise ArtifactError(source, last, f"trailer counts {trailer[0]} records, not {last - 2}")
    if trailer[1] != _digest(lines[:-1]):
        raise ArtifactError(source, last, "sha256 mismatch: changed after it was written")
    return [_record(source, number, line) for number, line in enumerate(lines[1:-1], 2)]


def read(path: _t.Any, kind: str) -> _t.List[dict]:
    """The body records of the ``kind`` artifact at ``path``."""
    source = os.fspath(path)
    try:
        with open(source, encoding="utf-8", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ArtifactError(source, None, f"cannot read: {exc}") from None
    return loads(text, kind, source=source)


def decode(source: str, records: _t.List[dict], convert: _t.Callable, *, first: int = 0) -> list:
    """``convert`` of body records ``first``, ``first + 1``, …; a record it
    cannot convert is refused at its own line."""
    converted: list = []
    try:
        for record in records[first:]:
            converted.append(convert(record))
    except (LookupError, TypeError, ValueError, AttributeError, GremlinError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ArtifactError(source, first + len(converted) + 2, detail) from None
    return converted
