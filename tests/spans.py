"""Exact sparse Gaussian elimination over a coefficient domain: the
reference that the report's plane-at-a-time span checks are tested against,
the signed check's even part and clifford's span axioms.

Rows are dicts key -> scalar with hashable keys (monomials, in practice).
The domain supplies add, mul, neg and is_zero; the inverse is this module's
own, so the package keeps no division it does not use.
"""

from fractions import Fraction

from klrcalc.scalars import PrimeField


def inv(dom, a):
    """The inverse of a nonzero scalar of `dom`.  Over the rationals the
    inverse of +-1 stays an int, and so does any integral inverse."""
    if isinstance(dom, PrimeField):
        return pow(a % dom.p, -1, dom.p)
    if a == 0:
        raise ZeroDivisionError("inverse of 0")
    if a == 1 or a == -1:
        return int(a)
    q = Fraction(1) / a
    return q.numerator if q.denominator == 1 else q


class Echelon:
    """An incremental echelon basis: normalized pivot rows keyed by their
    pivot column.

    A row is reduced against the pivots present when it is added, so it
    never contains the columns of earlier pivots; eliminating one pivot
    column therefore brings in only columns of later pivots, and reduction
    terminates.
    """

    def __init__(self, dom, rows=()):
        self.dom = dom
        self.pivots: dict = {}
        for row in rows:
            self.add(row)

    def reduce(self, row: dict) -> dict:
        """The remainder of `row` after eliminating every pivot column; it
        is empty exactly when `row` lies in the span."""
        dom = self.dom
        pivots = self.pivots
        add, mul, neg, is_zero = dom.add, dom.mul, dom.neg, dom.is_zero
        row = dict(row)
        while True:
            for hit in row:
                if hit in pivots:
                    break
            else:
                return row
            factor = row[hit]
            for k, v in pivots[hit].items():
                cur = row.get(k)
                val = neg(mul(factor, v))
                if cur is not None:
                    val = add(cur, val)
                if is_zero(val):
                    row.pop(k, None)
                else:
                    row[k] = val

    def add(self, row: dict) -> None:
        """Extend the basis by `row` when it is not in the span already."""
        red = self.reduce(row)
        if red:
            col = next(iter(red))
            pivot = inv(self.dom, red[col])
            self.pivots[col] = {k: self.dom.mul(pivot, v) for k, v in red.items()}

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(rows, dom) -> int:
    """Rank of the span of `rows` (a list of dicts key -> scalar)."""
    return Echelon(dom, rows).rank


def spans_equal(rows_a, rows_b, dom) -> bool:
    """Whether `rows_a` and `rows_b` span the same space.  `rows_a` is read
    once, so it may be an iterator; `rows_b` is read twice, so it must be
    re-iterable (a list, say), not an iterator."""
    ech = Echelon(dom, rows_a)
    return (all(not ech.reduce(row) for row in rows_b)
            and rank(rows_b, dom) == ech.rank)
