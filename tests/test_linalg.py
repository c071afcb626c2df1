"""Exact sparse rank computation, the elimination reference in
`tests/spans.py`."""

from fractions import Fraction

import spans
from klrcalc.scalars import PrimeField, Rationals
from spans import Echelon, inv, rank, spans_equal


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
    # the first rows are read once, so they may come from a generator
    assert spans_equal((dict(row) for row in a), b, dom)
    assert not spans_equal((dict(row) for row in b), a[:1], dom)


def test_integral_rational_inverse_stays_int(monkeypatch):
    dom = Rationals()
    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(spans, "Fraction", counting_fraction)
    assert type(inv(dom, 1)) is int and inv(dom, 1) == 1
    assert type(inv(dom, -1)) is int and inv(dom, -1) == -1
    assert type(inv(dom, Fraction(-1))) is int and inv(dom, Fraction(-1)) == -1
    # a unit is its own inverse: no Fraction is built for it
    assert built == []
    assert type(inv(dom, Fraction(-1, 3))) is int and inv(dom, Fraction(-1, 3)) == -3
    assert type(inv(dom, 2)) is Fraction and inv(dom, 2) == Fraction(1, 2)
    fp = PrimeField(5)
    assert [inv(fp, a) for a in (1, 2, 3, 4, -1)] == [1, 3, 2, 4, 4]


def test_echelon_with_unit_pivots_stays_in_ints():
    dom = Rationals()
    rows = [{"a": 1, "b": -1, "c": 1}, {"b": -1, "c": 1, "d": 1}, {"c": 1, "d": -1},
            {"a": -1, "d": 1, "e": 1}, {"a": 1, "e": -1}]
    ech = Echelon(dom, rows)
    assert ech.rank == 5
    entries = [v for row in ech.pivots.values() for v in row.values()]
    assert entries and all(type(v) is int for v in entries)
    # a genuine fraction still appears where a pivot is not a unit
    assert Echelon(dom, [{"a": 2, "b": 1}]).pivots["a"] == {"a": 1, "b": Fraction(1, 2)}
