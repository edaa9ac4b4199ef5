"""Unit tests for the query DSL."""

import pytest

from repro.errors import AssertionQueryError
from repro.logstore import ObservationRecord, Query, compile_id_pattern

from tests.logstore.test_record import make_record


class TestIdPattern:
    def test_glob_compiles(self):
        regex = compile_id_pattern("test-*")
        assert regex.match("test-1")
        assert not regex.match("user-1")

    def test_star_means_no_constraint(self):
        assert compile_id_pattern("*") is None
        assert compile_id_pattern(None) is None

    def test_regex_escape_hatch(self):
        regex = compile_id_pattern("re:test-(1|2)$")
        assert regex.match("test-1")
        assert not regex.match("test-3")

    def test_bad_regex_rejected(self):
        with pytest.raises(AssertionQueryError):
            compile_id_pattern("re:(unclosed")


class TestQueryMatching:
    def test_empty_query_matches_all(self):
        assert Query().matches(make_record())

    def test_kind_filter(self):
        assert Query(kind="request").matches(make_record(kind="request"))
        assert not Query(kind="reply").matches(make_record(kind="request"))

    def test_kind_validated(self):
        with pytest.raises(AssertionQueryError):
            Query(kind="bogus")

    def test_src_dst_filters(self):
        query = Query(src="ServiceA", dst="ServiceB")
        assert query.matches(make_record())
        assert not query.matches(make_record(src="Other"))
        assert not query.matches(make_record(dst="Other"))

    def test_status_filter(self):
        assert Query(status=503).matches(make_record(status=503))
        assert not Query(status=503).matches(make_record(status=200))

    def test_time_window_inclusive(self):
        query = Query(since=1.0, until=2.0)
        assert query.matches(make_record(timestamp=1.0))
        assert query.matches(make_record(timestamp=2.0))
        assert not query.matches(make_record(timestamp=0.999))
        assert not query.matches(make_record(timestamp=2.001))

    def test_empty_window_rejected(self):
        with pytest.raises(AssertionQueryError):
            Query(since=5.0, until=1.0)

    def test_id_pattern_filter(self):
        query = Query(id_pattern="test-*")
        assert query.matches(make_record(request_id="test-9"))
        assert not query.matches(make_record(request_id="user-9"))
        assert not query.matches(make_record(request_id=None))

    def test_bad_pattern_rejected_eagerly(self):
        with pytest.raises(AssertionQueryError):
            Query(id_pattern="re:(bad")

    def test_predicate_is_lazy_cached_and_outside_equality(self):
        query = Query(src="ServiceA", id_pattern="test-*")
        twin = Query(src="ServiceA", id_pattern="test-*")
        assert "predicate" not in vars(query)
        assert query.predicate is query.predicate
        assert query.predicate(make_record()) and twin.matches(make_record())
        stale = Query(src="ServiceA", id_pattern="test-*")  # never evaluated
        assert query == stale and hash(query) == hash(stale)
        assert {query: "cached"}[stale] == "cached"
        assert "predicate" not in vars(query.replace(dst="ServiceB"))

    def test_with_faults_only(self):
        query = Query(with_faults_only=True)
        assert query.matches(make_record(fault_applied="delay(3)"))
        assert not query.matches(make_record())

    def test_fluent_refinement(self):
        query = Query().between("A", "B").requests().in_window(0.0, 10.0)
        assert query.src == "A"
        assert query.kind == "request"
        assert query.until == 10.0
        # original is immutable
        assert Query().src is None
