"""
Exact sparse linear algebra over a coefficient field.

Rows are dicts key -> scalar with hashable keys (monomials, in practice).
Gaussian elimination with arbitrary pivot keys; everything stays exact, so
rank results are certificates, not estimates.
"""

from __future__ import annotations


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
        sub, mul, neg, is_zero = dom.sub, dom.mul, dom.neg, dom.is_zero
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
                val = sub(cur, mul(factor, v)) if cur is not None \
                    else neg(mul(factor, v))
                if is_zero(val):
                    row.pop(k, None)
                else:
                    row[k] = val

    def add(self, row: dict) -> None:
        """Extend the basis by `row` when it is not in the span already."""
        red = self.reduce(row)
        if red:
            col = next(iter(red))
            inv = self.dom.inv(red[col])
            self.pivots[col] = {k: self.dom.mul(inv, v) for k, v in red.items()}

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(rows, dom) -> int:
    """Rank of the span of `rows` (a list of dicts key -> scalar)."""
    return Echelon(dom, rows).rank

