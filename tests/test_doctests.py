"""Run the doctests embedded in public-API docstrings.

Keeps the examples in the documentation honest: if an API changes, the
docstring snippets fail here instead of silently rotting.
"""

import doctest

import pytest

import repro.analysis.cdf
import repro.artifact
import repro.campaign.scorecard
import repro.microservice.graph
import repro.network.address
import repro.util

MODULES = [
    repro.analysis.cdf,
    repro.artifact,
    repro.campaign.scorecard,
    repro.microservice.graph,
    repro.network.address,
    repro.util,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"{module.__name__} has no doctests to run"
