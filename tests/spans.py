"""Span equality by elimination, the reference that the signed check's
even part, taken one sgn orbit at a time, is tested against."""

from klrcalc.linalg import Echelon, rank


def spans_equal(rows_a, rows_b, dom) -> bool:
    """Whether `rows_a` and `rows_b` span the same space.  `rows_a` is read
    once, so it may be an iterator; `rows_b` is read twice, so it must be
    re-iterable (a list, say), not an iterator."""
    ech = Echelon(dom, rows_a)
    return (all(not ech.reduce(row) for row in rows_b)
            and rank(rows_b, dom) == ech.rank)
