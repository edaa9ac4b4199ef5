"""Fault-action implementations for the Gremlin agent.

Small pure helpers the proxy calls once the matcher has selected a
rule: synthesizing abort responses and rewriting message bytes.  The
Delay action is pure timing and lives inline in the proxy (it is just a
virtual-clock sleep); Abort-with-reset is a transport action the proxy
performs on the caller's connection.
"""

from __future__ import annotations

from repro.agent.rules import FaultRule, FaultType
from repro.errors import RuleValidationError
from repro.http.message import HttpRequest, HttpResponse

__all__ = ["synthesize_abort_response", "abort_response", "modify_request", "modify_response"]


def synthesize_abort_response(rule: FaultRule, request: HttpRequest) -> HttpResponse:
    """Build the application-level error an Abort rule returns to Src.

    E.g. an Overload recipe's ``Abort(..., Error=503)`` makes the agent
    answer ``503 Service Unavailable`` itself, without the request ever
    reaching the destination service (paper O2: an overloaded server is
    emulated by intercepting the request and responding with 503).
    """
    return abort_response(rule, request.request_id)


def abort_response(rule: FaultRule, request_id: str | None) -> HttpResponse:
    """:func:`synthesize_abort_response` for the request ID alone: what
    the proxy uses, since a request it forwarded is no longer its own."""
    if rule.fault_type != FaultType.ABORT or rule.is_reset:
        raise RuleValidationError(f"rule {rule} does not synthesize an HTTP response")
    assert rule.error is not None
    return HttpResponse.error(
        rule.error,
        f"injected by gremlin rule #{rule.rule_id}",
        request_id=request_id,
    )


def modify_request(rule: FaultRule, request: HttpRequest) -> HttpRequest:
    """Apply a Modify rule to a request body (returns a new request)."""
    modified = request.copy()
    modified.body = _rewrite(rule, modified.body)
    return modified


def modify_response(rule: FaultRule, response: HttpResponse) -> HttpResponse:
    """Apply a Modify rule to a response body (returns a new response).

    This is the FakeSuccess recipe's mechanism: the callee's ``200 OK``
    payload is rewritten (e.g. ``key`` -> ``badkey``) to exercise the
    caller's input validation.
    """
    modified = response.copy()
    modified.body = _rewrite(rule, modified.body)
    return modified


def _rewrite(rule: FaultRule, body: bytes) -> bytes:
    if rule.fault_type != FaultType.MODIFY:
        raise RuleValidationError(f"rule {rule} is not a Modify rule")
    assert rule.replace_bytes is not None
    return body.replace(rule.search_bytes, rule.replace_bytes)
