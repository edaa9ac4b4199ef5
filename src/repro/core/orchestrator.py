"""The Failure Orchestrator (paper Section 4.2).

    "The Failure Orchestrator sends fault-injection actions to the
    Gremlin data plane agents through an out-of-band control channel.
    Since an application might have multiple instances of any given
    service, the Failure Orchestrator locates and configures all
    physical instances of the Gremlin agents."

Locating instances goes through the deployment's agent inventory (the
registry equivalent); each agent is programmed over its
:class:`~repro.agent.control_api.AgentControlChannel`, i.e. every rule
really crosses a serialize/parse/validate boundary.  Wall-clock timing
of :meth:`apply` is what the Figure 7 benchmark reports as
"orchestration" time.
"""

from __future__ import annotations

import dataclasses
import time
import typing as _t

from repro.agent.control_api import AgentControlChannel
from repro.agent.proxy import GremlinAgent
from repro.agent.rules import FaultRule
from repro.errors import OrchestrationError

__all__ = ["InstallationReport", "FailureOrchestrator"]


@dataclasses.dataclass
class InstallationReport:
    """What one :meth:`FailureOrchestrator.apply` call did."""

    #: Rules requested, in priority order.
    rules: list[FaultRule]
    #: agent instance id -> rule ids installed there.
    installed: dict[str, list[int]]
    #: Wall-clock seconds spent programming the data plane.
    wall_time: float

    @property
    def agents_programmed(self) -> int:
        """Number of distinct agents that received at least one rule."""
        return len(self.installed)

    @property
    def rules_installed(self) -> int:
        """Total rule installations across all agents."""
        return sum(len(ids) for ids in self.installed.values())


class FailureOrchestrator:
    """Programs fault rules onto every relevant agent instance."""

    def __init__(self, agents: _t.Sequence[GremlinAgent]) -> None:
        self._channels: dict[str, list[AgentControlChannel]] = {}
        for agent in agents:
            self._channels.setdefault(agent.owner_service, []).append(
                AgentControlChannel(agent)
            )

    def channels_for(self, service: str) -> list[AgentControlChannel]:
        """Control channels of every agent instance owned by ``service``."""
        return list(self._channels.get(service, []))

    def apply(self, rules: _t.Sequence[FaultRule]) -> InstallationReport:
        """Install ``rules`` on all physical instances of each source.

        A rule whose source service has no deployed agent is a hard
        error — silently skipping it would report a test as passed
        without the fault ever being injected.

        Atomicity: if any installation fails part-way, everything
        installed by *this call* is rolled back before the error
        propagates, so a failed apply never leaves the data plane
        injecting half an outage.
        """
        start = time.perf_counter()
        installed: dict[str, list[int]] = {}
        applied: list[tuple[AgentControlChannel, int]] = []
        try:
            for rule in rules:
                channels = self._channels.get(rule.src)
                if not channels:
                    raise OrchestrationError(
                        f"no Gremlin agent deployed for source service {rule.src!r};"
                        f" cannot inject {rule}"
                    )
                for channel in channels:
                    rule_id = channel.push_rule(rule)
                    applied.append((channel, rule_id))
                    installed.setdefault(channel.owner_instance, []).append(rule_id)
        except Exception:
            for channel, rule_id in applied:
                channel.agent.remove_rule(rule_id)
            raise
        wall = time.perf_counter() - start
        return InstallationReport(rules=list(rules), installed=installed, wall_time=wall)

    def clear_all(self) -> float:
        """Remove every rule from every agent; returns wall seconds."""
        start = time.perf_counter()
        for channels in self._channels.values():
            for channel in channels:
                channel.clear()
        return time.perf_counter() - start

    def __repr__(self) -> str:
        return (
            f"<FailureOrchestrator services={list(self._channels)}"
            f" agents={sum(len(c) for c in self._channels.values())}>"
        )
