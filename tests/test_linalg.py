"""Exact sparse rank computation."""

from fractions import Fraction

from klrcalc.linalg import Echelon, rank, spans_equal
from klrcalc.scalars import PrimeField, Rationals


def test_rank_rationals():
    dom = Rationals()
    rows = [{"a": 1, "b": 2}, {"a": 2, "b": 4}, {"b": Fraction(1, 3)}]
    assert rank(rows, dom) == 2
    assert rank([], dom) == 0
    assert rank([{}], dom) == 0


def test_rank_prime_field():
    dom = PrimeField(5)
    rows = [{"a": 1, "b": 2}, {"a": 2, "b": 4}, {"a": 1, "b": 3}]
    assert rank(rows, dom) == 2
    # the second row is 2x the first mod 5
    assert rank(rows[:2], dom) == 1


def test_span_utilities():
    dom = Rationals()
    a = [{"x": 1}, {"y": 1}]
    b = [{"x": 1, "y": 1}, {"x": 1, "y": -1}]
    assert spans_equal(a, b, dom)
    ech = Echelon(dom, a)
    assert ech.rank == 2
    assert not ech.reduce({"x": 3, "y": 4})
    assert ech.reduce({"z": 1}) == {"z": 1}
    assert not spans_equal(a, [{"x": 1}], dom)
    assert not spans_equal([{"x": 1}], a, dom)
