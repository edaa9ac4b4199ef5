"""Tests for text-table rendering."""

import pytest

from repro.campaign.scorecard import text_table


class TestTextTable:
    def test_alignment(self):
        table = text_table(["name", "n"], [["alpha", 1], ["b", 100]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        table = text_table(["a"], [["1"]], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            text_table(["a", "b"], [["only one"]])

    def test_values_stringified(self):
        table = text_table(["x"], [[3.14159]])
        assert "3.14159" in table
