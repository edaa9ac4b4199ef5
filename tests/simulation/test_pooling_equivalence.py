"""The run loop is the same loop with the free lists on or off.

The calendar lane recycles processed ``Timeout``/``SimEvent`` objects
through free lists inside ``Simulator.run`` — the loop that also carries
an inlined copy of ``_advance`` and of ``step()``'s algorithm.  Pooling
must be invisible, so the two suites that pin that loop run here a
second and a third time, unchanged: every test of
``test_scheduler_equivalence.py`` (calendar against the never-pooled heap
lane: event order, RNG draws, outcomes, fuzz-corpus digests) and of
``test_step_run_parity.py`` (``run()`` against the never-pooling
``step()``), once with the free lists as shipped and once with every
simulator built while the test runs forced to ``sim._pooling = False``.
ROADMAP's lane audit (d) asks for exactly this guard for as long as
pooling stays.
"""

import pytest

from repro.simulation import Simulator, kernel

from tests.simulation.test_scheduler_equivalence import (  # noqa: F401 - collected here too
    TestFuzzCorpusEquivalence,
    TestKernelTraceEquivalence,
    _start_mixed,
)
from tests.simulation.test_step_run_parity import TestStepRunParity  # noqa: F401


@pytest.fixture(autouse=True, params=["pooled", "unpooled"])
def free_lists(request, monkeypatch):
    """Every simulator the test builds pools, or none does.  No product
    knob: the kernel enables pooling where exact reference counts exist,
    and this makes it believe they do not."""
    if request.param == "unpooled":
        monkeypatch.setattr(kernel, "_getrefcount", None)
    return request.param


def test_the_fixture_really_flips_the_free_lists(free_lists):
    sim = Simulator(seed=1, scheduler="calendar")
    assert sim._pooling == (free_lists == "pooled")
    _start_mixed(sim)
    sim.run()
    recycled = len(sim._timeout_pool) + len(sim._event_pool)
    assert (recycled > 0) == (free_lists == "pooled")

