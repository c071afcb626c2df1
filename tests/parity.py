"""Parity readings shared by the tests: the even and odd parts under the
graded sign map, an oracle of the tests of the sign involution and of the
signed presentation; and a word's value read with its parity, the reference
reading of the presentation tests."""

from klrcalc.algebra import TAG_OPP, Element
from klrcalc.signop import sgn


def parity_project(ctx, x, parity):
    """Even part (x + sgn x)/2 or odd part (x - sgn x)/2."""
    assert parity in ("even", "odd")
    s = sgn(x)
    total = x + s if parity == "even" else x - s
    return total.scale(ctx.dom.half)


def twisted(x, word, odd):
    """x, the value of `word` under tag-preserving letters, with its G' terms
    negated when an odd number of the word's letters are of a kind in `odd`."""
    if sum(g[0] in odd for g in word) % 2 == 0:
        return x
    neg = x.ctx.dom.neg
    return Element(x.ctx, {m: neg(c) if m.tag == TAG_OPP else c
                           for m, c in x.terms.items()})
