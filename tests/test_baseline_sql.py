"""Unit tests for the SQL front-end."""

import pytest

from repro.baseline.engine import MonolithicEngine
from repro.baseline.sql import SqlInterface, parse_sql
from repro.engine.filter import Comparison
from repro.errors import BaselineError


@pytest.fixture
def engine(small_table):
    eng = MonolithicEngine()
    eng.register(small_table)
    return eng


@pytest.fixture
def sql(engine):
    return SqlInterface(engine)


class TestParsing:
    def test_simple_select(self):
        parsed = parse_sql("SELECT id, value FROM events")
        assert parsed.table == "events"
        assert parsed.select_columns == ("id", "value")

    def test_star(self):
        assert parse_sql("select * from events").select_columns == ("*",)

    def test_where_conditions(self):
        parsed = parse_sql("SELECT id FROM events WHERE id > 10 AND value <= 100")
        assert len(parsed.predicates) == 2
        assert parsed.predicates[0][0] == "id"

    def test_between_with_and(self):
        parsed = parse_sql("SELECT AVG(value) FROM events WHERE id BETWEEN 5 AND 10")
        assert len(parsed.predicates) == 1
        assert parsed.predicates[0][1].comparison is Comparison.BETWEEN

    def test_aggregate(self):
        parsed = parse_sql("SELECT AVG(value) FROM events")
        assert parsed.aggregate_function == "avg"
        assert parsed.aggregate_column == "value"

    def test_group_by(self):
        parsed = parse_sql("SELECT category, AVG(value) FROM events GROUP BY category")
        assert parsed.group_by_column == "category"

    def test_limit(self):
        assert parse_sql("SELECT id FROM events LIMIT 7").limit == 7

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "DELETE FROM events",
            "SELECT FROM events",
            "SELECT id events",
            "SELECT id FROM events WHERE id LIKE 'x'",
            "SELECT category, value, AVG(value) FROM events GROUP BY category",
            "SELECT id, AVG(value) FROM events",
            "SELECT AVG(a), AVG(b) FROM events",
            "SELECT category FROM events GROUP BY category",
        ],
    )
    def test_rejected_statements(self, bad):
        with pytest.raises(BaselineError):
            parse_sql(bad)


class TestExecution:
    def test_select_with_where_and_limit(self, sql):
        result = sql.execute("SELECT id FROM events WHERE id >= 990 LIMIT 5")
        assert result.num_rows == 5
        assert result.rows[0]["id"] == 990

    def test_aggregate(self, sql):
        assert sql.execute("SELECT MAX(value) FROM events").scalar() == 1998

    def test_count_star(self, sql):
        assert sql.execute("SELECT COUNT(*) FROM events").scalar() == 1000

    def test_group_by(self, sql):
        result = sql.execute("SELECT category, COUNT(value) FROM events GROUP BY category")
        assert result.num_rows == 7

    def test_group_by_star_rejected(self, sql):
        with pytest.raises(BaselineError):
            sql.execute("SELECT category, COUNT(*) FROM events GROUP BY category")

    def test_between(self, sql):
        result = sql.execute("SELECT COUNT(id) FROM events WHERE id BETWEEN 10 AND 19")
        assert result.scalar() == 10

    def test_statement_counter(self, sql):
        sql.execute("SELECT id FROM events LIMIT 1")
        sql.execute("SELECT AVG(id) FROM events")
        assert sql.statements_executed == 2

    def test_case_insensitive(self, sql):
        assert sql.execute("select avg(id) from events").scalar() == pytest.approx(499.5)
