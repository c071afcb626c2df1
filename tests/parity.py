"""Even and odd parts under the graded sign map, an oracle shared by the
tests of the sign involution and of the signed presentation."""

from klrcalc.signop import sgn


def parity_project(ctx, x, parity):
    """Even part (x + sgn x)/2 or odd part (x - sgn x)/2."""
    assert parity in ("even", "odd")
    s = sgn(x)
    total = x + s if parity == "even" else x - s
    return total.scale(ctx.dom.half)
