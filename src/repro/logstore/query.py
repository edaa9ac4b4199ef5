"""Query DSL for the event store.

The paper stores agent logs in Elasticsearch and implements
``GetRequests``/``GetReplies`` as queries against it.  This module is
the corresponding query surface for our in-process store: field
equality filters, request-ID glob patterns, and time ranges, composed
into an immutable :class:`Query`.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import functools
import re
import typing as _t

from repro.errors import AssertionQueryError
from repro.logstore.record import ObservationKind, ObservationRecord

__all__ = ["Query", "compile_id_pattern", "exact_id_pattern"]


def exact_id_pattern(pattern: str | None) -> _t.Optional[str]:
    """The single literal request ID ``pattern`` can match, or ``None``.

    Patterns free of glob metacharacters (and not ``re:`` regexes)
    match exactly one ID; the store exploits this to answer
    point-lookups like ``repro trace <request-id>`` from its request-ID
    index instead of post-filtering a scan.

    >>> exact_id_pattern("test-17")
    'test-17'
    >>> exact_id_pattern("test-*") is None
    True
    """
    if pattern is None or pattern.startswith("re:"):
        return None
    if any(ch in pattern for ch in "*?["):
        return None
    return pattern


def compile_id_pattern(pattern: str | None) -> _t.Optional[re.Pattern]:
    """Compile a request-ID glob (``"test-*"``) to a regex, or None.

    Globs match the paper's rule examples; full regexes are accepted
    too when the pattern is wrapped as ``re:<regex>``.
    """
    if pattern is None or pattern == "*":
        return None
    if pattern.startswith("re:"):
        try:
            return re.compile(pattern[3:])
        except re.error as exc:
            raise AssertionQueryError(f"bad regex pattern {pattern!r}: {exc}") from exc
    return re.compile(fnmatch.translate(pattern))


@dataclasses.dataclass(frozen=True, init=False)
class Query:
    """An immutable filter over observation records.

    All constraints are conjunctive.  ``None`` means "no constraint".

    ``id_pattern`` is a glob over the request ID (or ``re:`` regex).
    ``since``/``until`` bound the record timestamp inclusively.
    """

    kind: _t.Optional[str] = None
    src: _t.Optional[str] = None
    dst: _t.Optional[str] = None
    id_pattern: _t.Optional[str] = None
    since: _t.Optional[float] = None
    until: _t.Optional[float] = None
    status: _t.Optional[int] = None
    with_faults_only: bool = False

    def __init__(
        self,
        kind: _t.Optional[str] = None,
        src: _t.Optional[str] = None,
        dst: _t.Optional[str] = None,
        id_pattern: _t.Optional[str] = None,
        since: _t.Optional[float] = None,
        until: _t.Optional[float] = None,
        status: _t.Optional[int] = None,
        with_faults_only: bool = False,
    ) -> None:
        # Written out so a Query is built in this one frame: the frozen
        # dataclass __init__ pays an object.__setattr__ call per field
        # and a __post_init__, and every check builds two or three.
        if kind is not None and kind not in ObservationKind.ALL:
            raise AssertionQueryError(
                f"kind must be one of {ObservationKind.ALL}, got {kind!r}"
            )
        if since is not None and until is not None and since > until:
            raise AssertionQueryError(f"empty time range: since={since} > until={until}")
        # Fail fast on a malformed regex (globs cannot be malformed);
        # everything else about the predicate is built on first use.
        if id_pattern is not None and id_pattern.startswith("re:"):
            compile_id_pattern(id_pattern)
        self.__dict__.update(
            kind=kind,
            src=src,
            dst=dst,
            id_pattern=id_pattern,
            since=since,
            until=until,
            status=status,
            with_faults_only=with_faults_only,
        )

    @functools.cached_property
    def predicate(self) -> _t.Callable[[ObservationRecord], bool]:
        """The constraints bound into a closure over locals.

        Built on first use — an exactly-planned scope never needs it —
        and cached in the instance ``__dict__``, which ``==`` and
        ``hash`` ignore.  The store evaluates it once per candidate
        record; capturing the bound values here avoids eight ``self``
        attribute lookups per call on that hot path.
        """
        kind, src, dst = self.kind, self.src, self.dst
        status, since, until = self.status, self.since, self.until
        faults_only = self.with_faults_only
        regex = compile_id_pattern(self.id_pattern)

        def predicate(record: ObservationRecord) -> bool:
            if kind is not None and record.kind != kind:
                return False
            if src is not None and record.src != src:
                return False
            if dst is not None and record.dst != dst:
                return False
            if status is not None and record.status != status:
                return False
            if since is not None and record.timestamp < since:
                return False
            if until is not None and record.timestamp > until:
                return False
            if faults_only and record.fault_applied is None:
                return False
            if regex is not None:
                if record.request_id is None or not regex.match(record.request_id):
                    return False
            return True

        return predicate

    def matches(self, record: ObservationRecord) -> bool:
        """True if ``record`` satisfies every constraint."""
        return self.predicate(record)

    # -- fluent refinement --------------------------------------------------

    def replace(self, **changes: _t.Any) -> "Query":
        """A copy of this query with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def requests(self) -> "Query":
        """Restrict to request-direction records."""
        return self.replace(kind=ObservationKind.REQUEST)

    def replies(self) -> "Query":
        """Restrict to reply-direction records."""
        return self.replace(kind=ObservationKind.REPLY)

    def between(self, src: str, dst: str) -> "Query":
        """Restrict to one caller/callee service pair."""
        return self.replace(src=src, dst=dst)

    def in_window(self, since: float | None, until: float | None) -> "Query":
        """Restrict to a closed time window."""
        return self.replace(since=since, until=until)
