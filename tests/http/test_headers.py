"""Unit tests for the case-insensitive header map."""

from repro.http import Headers, REQUEST_ID_HEADER


class TestHeaders:
    def test_case_insensitive_get(self):
        headers = Headers({"Content-Type": "text/plain"})
        assert headers["content-type"] == "text/plain"
        assert headers.get("CONTENT-TYPE") == "text/plain"

    def test_original_casing_preserved(self):
        headers = Headers()
        headers["X-Custom-Header"] = "v"
        assert list(headers) == ["X-Custom-Header"]

    def test_overwrite_same_key_different_case(self):
        headers = Headers()
        headers["Accept"] = "a"
        headers["ACCEPT"] = "b"
        assert headers["accept"] == "b"
        assert len(headers) == 1

    def test_contains(self):
        headers = Headers({"A": "1"})
        assert "a" in headers
        assert "b" not in headers
        assert 42 not in headers

    def test_get_default(self):
        assert Headers().get("missing", "dflt") == "dflt"
        assert Headers().get("missing") is None

    def test_setdefault(self):
        headers = Headers({"A": "1"})
        assert headers.setdefault("A", "2") == "1"
        assert headers.setdefault("B", "3") == "3"
        assert headers["B"] == "3"

    def test_delete(self):
        headers = Headers({"A": "1"})
        del headers["a"]
        assert "A" not in headers

    def test_values_coerced_to_str(self):
        headers = Headers()
        headers["Content-Length"] = 42
        assert headers["content-length"] == "42"

    def test_copy_is_independent(self):
        original = Headers({"A": "1"})
        duplicate = original.copy()
        duplicate["A"] = "2"
        assert original["A"] == "1"

    def test_copy_is_independent_both_ways_and_keeps_casing_and_order(self):
        original = Headers([("X-B", "2"), ("x-a", "1"), ("Content-Length", 3)])
        duplicate = original.copy()
        assert duplicate == original
        assert list(duplicate.items()) == [("X-B", "2"), ("x-a", "1"), ("Content-Length", "3")]
        duplicate["X-B"] = "changed"
        del duplicate["x-a"]
        original["X-New"] = "n"
        del original["content-length"]
        assert list(original.items()) == [("X-B", "2"), ("x-a", "1"), ("X-New", "n")]
        assert list(duplicate.items()) == [("X-B", "changed"), ("Content-Length", "3")]

    def test_equality_ignores_case(self):
        assert Headers({"A": "1"}) == Headers({"a": "1"})
        assert Headers({"A": "1"}) != Headers({"A": "2"})

    def test_items_order(self):
        headers = Headers([("B", "2"), ("A", "1")])
        assert list(headers.items()) == [("B", "2"), ("A", "1")]

    def test_from_iterable_of_pairs(self):
        headers = Headers([("X", "y")])
        assert headers["x"] == "y"

    def test_request_id_header_constant(self):
        assert REQUEST_ID_HEADER.lower().startswith("x-")
