"""The plain-data document contract behind every result ``to_dict``.

:func:`repro.util.plain` replaces the standard library's
dataclass-to-dict conversion everywhere under ``src/repro``.  These
tests hold it to that conversion's contract: equal values with the
same types, keys in field order, and a copy that shares no mutable
object with its source; and they pin the documents built on it
(campaign dumps, log exports, diffs, reports) against a test-local
oracle that still uses ``dataclasses.asdict``.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import functools
import hashlib
import json
import math
import sys
import typing as _t

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.compare import CdfComparison
from repro.apps import build_socialnetwork_app
from repro.campaign import CampaignRunner, CheckOutcome, RecipeOutcome, dumps, loads, plan_campaign
from repro.campaign.diff import CampaignDiff, StatusChange
from repro.campaign.scorecard import PatternScore
from repro.core.gremlin import Gremlin
from repro.loadgen import ClosedLoopLoad
from repro.logstore import ObservationRecord, export
from repro.observability.attribution import FaultAttribution
from repro.observability.spans import Span
from repro.util import plain

# -- the conversion contract ---------------------------------------------------


@dataclasses.dataclass
class Leaf:
    value: _t.Any
    note: str = ""


@dataclasses.dataclass(frozen=True)
class Frozen:
    value: _t.Any


@dataclasses.dataclass
class Node:
    label: str
    child: _t.Any
    items: list = dataclasses.field(default_factory=list)
    pair: tuple = ()


Pair = collections.namedtuple("Pair", "left right")


class Tagged(list):
    """A list subclass: copied by the slow path, keeping its type."""


def asdict_312(obj):
    """``dataclasses.asdict`` as Python 3.12 defines it: identical to
    3.11's except that a ``defaultdict`` is rebuilt with its factory
    (3.11's raises ``TypeError`` on one)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: asdict_312(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return type(obj)(*[asdict_312(v) for v in obj])
    if isinstance(obj, (list, tuple)):
        return type(obj)(asdict_312(v) for v in obj)
    if isinstance(obj, dict):
        if hasattr(type(obj), "default_factory"):
            result = type(obj)(obj.default_factory)
            for k, v in obj.items():
                result[asdict_312(k)] = asdict_312(v)
            return result
        return type(obj)((asdict_312(k), asdict_312(v)) for k, v in obj.items())
    return copy.deepcopy(obj)


def oracle(obj):
    """The standard library's conversion, on this interpreter."""
    try:
        return dataclasses.asdict(obj)
    except TypeError:
        if sys.version_info >= (3, 12):
            raise
        return asdict_312(obj)


IMMUTABLE = (type(None), bool, int, float, str, bytes, complex, tuple, frozenset)


def mutable_ids(value, found=None):
    """ids of every mutable object reachable from ``value``."""
    found = set() if found is None else found
    if not isinstance(value, IMMUTABLE):
        found.add(id(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        children = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        children = [item for pair in value.items() for item in pair]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    else:
        children = []
    for child in children:
        mutable_ids(child, found)
    return found


def shape(value):
    """``value``'s type tree, so ``[1] == (1,)``-style and dict-vs-
    defaultdict differences that ``==`` forgives are still caught."""
    if isinstance(value, dict):
        return (type(value), getattr(value, "default_factory", None),
                [(shape(k), shape(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [shape(v) for v in value])
    return type(value)


atoms = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.text(max_size=6)
)

values = st.recursive(
    atoms,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(children, max_size=3).map(Tagged)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=3).map(
            lambda d: collections.defaultdict(list, d)
        )
        | st.sets(st.integers() | st.text(max_size=3), max_size=4)
        | st.frozensets(st.integers(), max_size=3)
        | st.builds(Pair, children, children)
        | st.builds(Leaf, children, st.text(max_size=3))
        | st.builds(Frozen, atoms)
    ),
    max_leaves=25,
)

documents = st.builds(
    Node,
    st.text(max_size=5),
    values,
    st.lists(values, max_size=4),
    st.lists(values, max_size=3).map(tuple),
)


class TestConversionContract:
    @settings(max_examples=150, deadline=None)
    @given(documents)
    def test_equals_the_standard_conversion(self, doc):
        expected = oracle(doc)
        got = plain(doc)
        assert got == expected
        assert shape(got) == shape(expected)
        assert list(got) == [f.name for f in dataclasses.fields(Node)]

    @settings(max_examples=150, deadline=None)
    @given(documents)
    def test_shares_no_mutable_object(self, doc):
        assert not mutable_ids(plain(doc)) & mutable_ids(doc)

    def test_defaultdict_keeps_its_factory(self):
        source = collections.defaultdict(list, {"a": [1]})
        copied = plain(Leaf(source))["value"]
        assert type(copied) is collections.defaultdict
        assert copied.default_factory is list
        assert copied == source and copied["a"] is not source["a"]

    def test_non_dataclass_objects_are_deep_copied(self):
        class Box:
            def __init__(self):
                self.items = [1, 2]

        box = Box()
        copied = plain(Leaf(box))["value"]
        assert type(copied) is Box and copied is not box
        assert copied.items == [1, 2] and copied.items is not box.items

    def test_nan_and_inf_leaves_pass_through(self):
        doc = plain(Leaf([math.nan, math.inf, -math.inf]))
        assert math.isnan(doc["value"][0])
        assert doc["value"][1:] == [math.inf, -math.inf]


# -- every converted class: field order ----------------------------------------

EXAMPLES = {
    RecipeOutcome: RecipeOutcome(0, "r", "p", "s", 1, "pass"),
    CheckOutcome: CheckOutcome("c", True, False, "ok"),
    FaultAttribution: FaultAttribution("rid", "abort(503)", "a->b", "s1", 3, "rule", ["a->b"], "503"),
    ObservationRecord: ObservationRecord(0.5, "reply", "a", "b", status=200),
    Span: Span("s1", None, "a", "b", "a-1", "rid", "GET", "/", 0.0),
    PatternScore: PatternScore(total=2, passed=1),
    StatusChange: StatusChange("r", "pass", "fail"),
}


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_to_dict_keys_are_the_fields_in_order(cls):
    obj = EXAMPLES[cls]
    assert list(obj.to_dict()) == [f.name for f in dataclasses.fields(cls)]


# -- documents built on it, against the asdict oracle -------------------------


def oracle_envelope(kind, version, docs):
    """The artifact file text of ``docs``, sealed by hand."""
    compact = functools.partial(json.dumps, separators=(",", ":"))
    lines = [compact({"kind": kind, "version": version})] + [compact(doc) for doc in docs]
    sealed = "".join(line + "\n" for line in lines)
    digest = hashlib.sha256(sealed.encode()).hexdigest()
    return sealed + compact({"count": len(docs), "sha256": digest}) + "\n"


def oracle_dumps(result):
    """:func:`repro.campaign.io.dumps` as written on ``dataclasses.asdict``."""
    header = {
        "name": result.name,
        "app": result.app,
        "seed": result.seed,
        "workers": result.workers,
        "wall_time": result.wall_time,
        "rerun_failures": result.rerun_failures,
    }
    docs = [header]
    for outcome in result.outcomes:
        doc = dataclasses.asdict(outcome)
        doc["window"] = list(outcome.window)
        doc["checks"] = [dataclasses.asdict(check) for check in outcome.checks]
        docs.append(doc)
    return oracle_envelope("campaign", 2, docs)


@pytest.fixture(scope="module")
def campaign():
    """A socialnetwork campaign with failing recipes, attributions and
    flake-detection reruns."""
    plan = plan_campaign(build_socialnetwork_app, seed=11, max_recipes=20)
    result = CampaignRunner(build_socialnetwork_app, workers=1, rerun_failures=1).run(plan)
    assert result.failures
    assert any(outcome.attributions for outcome in result.outcomes)
    assert any(len(outcome.attempts) > 1 for outcome in result.outcomes)
    assert all(outcome.metrics for outcome in result.outcomes)
    return result


class TestCampaignDocuments:
    def test_dumps_equals_the_oracle(self, campaign):
        assert dumps(campaign) == oracle_dumps(campaign)

    def test_mutating_a_document_leaves_the_outcome_alone(self, campaign):
        outcome = next(o for o in campaign.outcomes if o.attributions and o.latencies)
        before = dumps(campaign)
        doc = outcome.to_dict()
        histograms = list(doc["metrics"]["histograms"].values())
        assert histograms, "the snapshot holds no histogram series"
        for series in histograms:
            series["counts"].append(999)
            series["counts"][0] = -1
        doc["attributions"][0]["propagation_path"].append("tampered")
        doc["attributions"].append({})
        doc["latencies"].append(-1.0)
        doc["checks"][0]["detail"] = "tampered"
        assert dumps(campaign) == before
        assert outcome.to_dict() != doc

    def test_resilience_report_is_unchanged_by_the_round_trip(self, campaign):
        live = campaign.resilience_report().to_json()
        assert loads(dumps(campaign)).resilience_report().to_json() == live
        assert loads(oracle_dumps(campaign)).resilience_report().to_json() == live


def test_log_export_equals_the_oracle():
    """A chained-session-sized store: 60 inject/check/clear stages on one
    socialnetwork deployment (≈21k records)."""
    plan = plan_campaign(build_socialnetwork_app, seed=11)
    load = plan.entries[0].load
    deployment = build_socialnetwork_app().deploy(seed=11)
    source = deployment.add_traffic_source(load.entry, name=load.source_name)
    gremlin = Gremlin(deployment)
    sim = deployment.sim
    for stage in range(60):
        entry = plan.entries[2 * stage % len(plan.entries)]
        gremlin.inject(*entry.recipe.scenarios)
        traffic = ClosedLoopLoad(num_requests=5, think_time=entry.load.think_time)
        sim.process(traffic.driver(source), name=f"load/{stage}")
        sim.run()
        sim.run(until=sim.now + entry.settle)
        gremlin.clear()
    store = deployment.store
    assert len(store) > 20_000
    expected = oracle_envelope(
        "log-export", 1, [dataclasses.asdict(record) for record in store.all_records()]
    )
    assert export.dumps(store) == expected


def test_campaign_diff_document_equals_the_oracle():
    changes = [StatusChange("r1", "pass", "fail"), StatusChange("r2", "fail", "pass")]
    diff = CampaignDiff(
        baseline="base",
        candidate="cand",
        regressions=changes[:1],
        fixes=changes[1:],
        other_changes=[StatusChange("r3", "inconclusive", "pass")],
        added=["new"],
        removed=["old"],
        newly_flaky=["r2"],
        latency=CdfComparison(ks_statistic=0.25, p_value=math.nan, median_shift=-0.5),
    )
    expected = {
        "baseline": "base",
        "candidate": "cand",
        "regressions": [dataclasses.asdict(c) for c in diff.regressions],
        "fixes": [dataclasses.asdict(c) for c in diff.fixes],
        "other_changes": [dataclasses.asdict(c) for c in diff.other_changes],
        "added": ["new"],
        "removed": ["old"],
        "newly_flaky": ["r2"],
        "latency": dataclasses.asdict(diff.latency),
        "latency_error": None,
        "has_regressions": True,
    }
    assert json.dumps(diff.to_dict()) == json.dumps(expected)
    diff.latency = None
    expected["latency"] = None
    assert json.dumps(diff.to_dict()) == json.dumps(expected)
