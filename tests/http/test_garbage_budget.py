"""What a verdict leaves for the cycle collector: a budget on garbage, not on time.

Next to ``test_event_budget.py`` and ``test_codec_call_budget.py`` and in
the same spirit.  Every ``Process`` and every ``Connection`` used to be a
reference cycle, so nothing a proxied call allocated was freed when the
call finished: one socialnetwork recipe left 13 791 objects for CPython's
collector (984 processes and their generators, 983 connections with 1 966
ends and 1 044 mailboxes, 990 records).  docs/INTERNALS.md "Object
lifetimes" says what frees what now; these tests pin it, so a later change
cannot quietly put the collector back on the drive path.

Counted with the collector *off*, then one ``gc.collect()`` under
``DEBUG_SAVEALL``: what that finds is exactly what reference counting did
not free, whatever the interpreter's collection schedule would have been.
"""

import collections
import dataclasses
import gc
import types

import pytest

from repro.apps import build_socialnetwork_app
from repro.campaign import RecipeExecutor, plan_campaign
from repro.core import Crash, Recipe

from tests.conftest import collector_off

#: Nothing the drive path allocates per call may wait for the collector.
PER_CALL_TYPES = ("Process", "generator", "Connection", "ConnectionEnd", "ObservationRecord")

#: The deployment's skeleton — network, hosts, listeners, servers, agents
#: referencing one another — is fixed in size and deliberately left to
#: the collector: 2 763 objects for the 28-service app.
SKELETON_BUDGET = 3500


def left_to_the_collector(work):
    """Run ``work()`` with the collector off; returns ``work``'s result
    and the type names of every object only a collection could free."""
    with collector_off():
        result = work()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            unreachable = collections.Counter(
                "generator" if isinstance(obj, types.GeneratorType) else type(obj).__name__
                for obj in gc.garbage
            )
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
    return result, unreachable


@pytest.fixture(scope="module")
def first_planned():
    # The first recipe of the sn_verdict benchmark round, which the
    # numbers in the docs were counted on.
    return plan_campaign(build_socialnetwork_app, seed=11).entries[::3][0]


@pytest.mark.parametrize("crashed", [None, "post-storage"], ids=["planned", "reset"])
def test_a_verdict_leaves_only_the_deployment_skeleton(first_planned, crashed):
    planned = first_planned
    if crashed is not None:
        # The same load against a crashed callee: every call to it is
        # reset (Abort, ``Error=-1``), so exchanges end on the error paths.
        recipe = Recipe("reset-exchanges", [Crash(crashed)], planned.recipe.checks)
        planned = dataclasses.replace(planned, recipe=recipe)
    executor = RecipeExecutor(build_socialnetwork_app, timeout=None)

    outcome, unreachable = left_to_the_collector(lambda: executor.execute(planned))

    assert outcome.status not in ("error", "timeout"), outcome.error
    assert len(outcome.latencies) == planned.load.requests  # it really drove the app
    assert {name: unreachable[name] for name in PER_CALL_TYPES} == dict.fromkeys(PER_CALL_TYPES, 0)
    # One accept queue per listener, no mailbox of any connection.
    assert unreachable["Channel"] == unreachable["Listener"] > 0
    assert sum(unreachable.values()) <= SKELETON_BUDGET
