"""Unit tests for predicates and filter operators."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.engine.filter import Comparison, Predicate


class TestPredicate:
    @pytest.mark.parametrize(
        "comparison, operand, value, expected",
        [
            (Comparison.EQ, 5, 5, True),
            (Comparison.EQ, 5, 6, False),
            (Comparison.NE, 5, 6, True),
            (Comparison.LT, 5, 4, True),
            (Comparison.LT, 5, 5, False),
            (Comparison.LE, 5, 5, True),
            (Comparison.GT, 5, 6, True),
            (Comparison.GE, 5, 5, True),
        ],
    )
    def test_matches(self, comparison, operand, value, expected):
        assert Predicate(comparison, operand).matches(value) is expected

    def test_between(self):
        pred = Predicate(Comparison.BETWEEN, 2, upper=5)
        assert pred.matches(2) and pred.matches(5) and pred.matches(3)
        assert not pred.matches(1) and not pred.matches(6)

    def test_between_requires_upper(self):
        with pytest.raises(QueryError):
            Predicate(Comparison.BETWEEN, 2)

    def test_between_bounds_ordered(self):
        with pytest.raises(QueryError):
            Predicate(Comparison.BETWEEN, 5, upper=2)

    def test_mask_matches_scalar_semantics(self):
        values = np.array([1, 3, 5, 7])
        pred = Predicate(Comparison.GT, 4)
        mask = pred.mask(values)
        assert list(mask) == [pred.matches(v) for v in values]

    def test_between_mask(self):
        values = np.arange(10)
        pred = Predicate(Comparison.BETWEEN, 3, upper=6)
        assert list(np.nonzero(pred.mask(values))[0]) == [3, 4, 5, 6]

    def test_describe(self):
        assert Predicate(Comparison.GT, 10).describe() == "value > 10"
        assert "<=" in Predicate(Comparison.BETWEEN, 1, upper=2).describe()
