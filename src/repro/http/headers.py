"""Case-insensitive HTTP header map.

Request-ID propagation — the mechanism Gremlin uses to confine fault
injection to test traffic (paper Section 4.1, "Injecting faults on
specific request flows") — rides in a header, so the header map is a
first-class substrate component.
"""

from __future__ import annotations

import typing as _t

__all__ = ["Headers", "REQUEST_ID_HEADER", "SPAN_ID_HEADER"]

#: The header carrying the globally-unique request ID that every
#: microservice propagates downstream (cf. Zipkin's ``X-B3-TraceId``).
REQUEST_ID_HEADER = "X-Gremlin-Request-Id"

#: The header carrying the span ID of the *enclosing* call, so the next
#: sidecar hop can record it as the parent span (cf. ``X-B3-SpanId``).
#: Minted by agents, propagated by services alongside the request ID.
SPAN_ID_HEADER = "X-Gremlin-Span-Id"


#: How many keys :data:`_KEY_PROOFS` holds before it starts over.
_KEY_PROOFS_MAX = 256

#: The key half of the header proof, per plain ``str`` key: ``(lowered
#: key, clean)``, where ``clean`` is whether the key has no colon or
#: space and is printable ASCII, and ``None`` for ``Content-Length``,
#: which is exempt.  A run sets a handful of distinct keys millions of
#: times; the dict is emptied when it reaches :data:`_KEY_PROOFS_MAX`.
#: Shared by every thread: an entry is a pure function of its key, so a
#: race between two writers costs at most a second test of a key.
_KEY_PROOFS: dict[str, tuple[str, _t.Optional[bool]]] = {}


def _key_proof(key: str) -> tuple[str, _t.Optional[bool]]:
    """``(lowered, clean)`` for ``key``: see :data:`_KEY_PROOFS`."""
    lowered = key.lower()
    if lowered == "content-length":
        return lowered, None
    # ``str.`` methods: what the old whole-pair test read off ``key + value``.
    return lowered, not (":" in key or " " in key) and str.isascii(key) and str.isprintable(key)


class Headers:
    """An ordered, case-insensitive single-value header map.

    Keys preserve their first-seen casing for serialization but compare
    case-insensitively, as HTTP requires.  Values are strings.

    A map also carries its *proof*: :meth:`__setitem__`, the one writer,
    tests each pair it stores with the predicate the codec's
    ``encode -> split -> strip`` round trip preserves (key without colon
    or space, value without edge space, both printable ASCII), so
    :func:`repro.http.wire.wire_form` re-walks the entries only of a map
    that ever stored a pair failing it.  The key half of that test is
    made once per key (:data:`_KEY_PROOFS`), the value half per set.
    ``Content-Length`` is exempt: the wire form re-derives it from the
    body, so the stored value never reaches the peer.  Constructed from
    another ``Headers``, a map is its copy, proof and all.
    """

    #: True once a stored pair failed the predicate; ``wire_form`` clears
    #: it when a full walk passes again (the offender was deleted or
    #: overwritten).  A class-level default, so ``Headers.__new__`` works.
    _unproven = False

    def __init__(
        self, items: _t.Union["Headers", dict, _t.Iterable[tuple[str, str]], None] = None
    ) -> None:
        if isinstance(items, Headers):
            # A copy, proof included: its pairs were tested when stored.
            self._entries: dict[str, tuple[str, str]] = items._entries.copy()
            if items._unproven:
                self._unproven = True
            return
        self._entries = {}
        if items:
            pairs = items.items() if isinstance(items, dict) else items
            for key, value in pairs:
                self[key] = value

    def __setitem__(self, key: str, value: str) -> None:
        # The key half of the proof depends on the key alone: memoised
        # for a plain ``str`` (a subclass may redefine what it tests).
        if key.__class__ is str:
            proof = _KEY_PROOFS.get(key)
            if proof is None:
                if len(_KEY_PROOFS) >= _KEY_PROOFS_MAX:
                    _KEY_PROOFS.clear()
                proof = _KEY_PROOFS[key] = _key_proof(key)
        else:
            proof = _key_proof(key)
        lowered, key_clean = proof
        value = str(value)
        self._entries[lowered] = (key, value)
        if key_clean is None:
            return  # Content-Length: its stored value never reaches the wire
        if not (
            key_clean
            and value[:1] != " "
            and value[-1:] != " "
            and value.isascii()
            and value.isprintable()
        ):
            self._unproven = True

    def __getitem__(self, key: str) -> str:
        return self._entries[key.lower()][1]

    def __delitem__(self, key: str) -> None:
        del self._entries[key.lower()]

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and key.lower() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> _t.Iterator[str]:
        return (original for original, _value in self._entries.values())

    def get(self, key: str, default: str | None = None) -> str | None:
        """Value for ``key`` or ``default`` if absent."""
        entry = self._entries.get(key.lower())
        return entry[1] if entry is not None else default

    def setdefault(self, key: str, value: str) -> str:
        """Set ``key`` to ``value`` unless present; return final value."""
        if key in self:
            return self[key]
        self[key] = value
        return value

    def items(self) -> _t.Iterator[tuple[str, str]]:
        """Iterate ``(original_case_key, value)`` pairs in insert order."""
        return iter(list(self._entries.values()))

    def copy(self) -> "Headers":
        """An independent copy (same key casing, same order).

        Entries were normalised and tested when they were set, so the
        copy is one dict copy and carries the proof mark along.
        """
        return Headers(self)

    def to_dict(self) -> dict[str, str]:
        """Plain dict snapshot (original-case keys)."""
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Headers):
            return {k.lower(): v for k, (_, v) in self._entries.items()} == {
                k.lower(): v for k, (_, v) in other._entries.items()
            }
        return NotImplemented

    def __repr__(self) -> str:
        return f"Headers({self.to_dict()!r})"
