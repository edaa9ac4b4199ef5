"""The agent's out-of-band control channel.

Paper Section 6: "It can be configured via a REST API by the control
plane."  We model that REST hop faithfully enough for the Figure 7
benchmark to measure real work: each rule crosses the channel as a
JSON document — serialized by the control plane, parsed and
re-validated by the agent side — so programming N agents costs N
serialize/parse/validate round trips of real CPU time, just as N REST
calls would.
"""

from __future__ import annotations

import json
import typing as _t

from repro.agent.proxy import GremlinAgent
from repro.agent.rules import FaultRule
from repro.errors import RuleValidationError

__all__ = ["rule_to_wire", "rule_from_wire", "AgentControlChannel"]

_WIRE_FIELDS = (
    "src",
    "dst",
    "fault_type",
    "pattern",
    "on",
    "probability",
    "error",
    "interval",
    "id_pattern",
    "max_matches",
    "skip_matches",
)


def rule_to_wire(rule: FaultRule) -> str:
    """Serialize a rule to its JSON wire form."""
    doc: dict[str, _t.Any] = {field: getattr(rule, field) for field in _WIRE_FIELDS}
    if rule.replace_bytes is not None:
        doc["replace_bytes"] = rule.replace_bytes.decode("latin-1")
    return json.dumps(doc)


def rule_from_wire(wire: str) -> FaultRule:
    """Parse and re-validate a rule from its JSON wire form.

    Validation happens inside :class:`FaultRule` itself, so a malformed
    document is rejected at the agent boundary with
    :class:`RuleValidationError` — never silently installed.
    """
    try:
        doc = json.loads(wire)
    except json.JSONDecodeError as exc:
        raise RuleValidationError(f"malformed rule document: {exc}") from exc
    if not isinstance(doc, dict):
        raise RuleValidationError(f"rule document must be an object, got {type(doc).__name__}")
    replace_bytes = doc.pop("replace_bytes", None)
    if replace_bytes is not None:
        replace_bytes = replace_bytes.encode("latin-1")
    known = {key: value for key, value in doc.items() if key in _WIRE_FIELDS}
    unknown = set(doc) - set(_WIRE_FIELDS)
    if unknown:
        raise RuleValidationError(f"unknown rule fields: {sorted(unknown)}")
    return FaultRule(replace_bytes=replace_bytes, **known)


class AgentControlChannel:
    """Control-plane handle to one agent's REST API."""

    def __init__(self, agent: GremlinAgent) -> None:
        self.agent = agent
        #: Count of control calls made, for orchestration accounting.
        self.calls = 0

    @property
    def owner_instance(self) -> str:
        """The instance whose sidecar this channel controls."""
        return self.agent.owner_instance

    def push_rule(self, rule: FaultRule) -> int:
        """Install one rule (full wire round trip); returns its ID."""
        self.calls += 1
        parsed = rule_from_wire(rule_to_wire(rule))
        installed = self.agent.install_rule(parsed)
        return installed.rule.rule_id

    def clear(self) -> None:
        """Remove all rules from the agent."""
        self.calls += 1
        self.agent.clear_rules()

    def list_rules(self) -> list[FaultRule]:
        """Fetch the agent's installed rules."""
        self.calls += 1
        return self.agent.list_rules()

    def __repr__(self) -> str:
        return f"<AgentControlChannel {self.owner_instance} calls={self.calls}>"
