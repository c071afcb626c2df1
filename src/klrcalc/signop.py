"""
The graded sign involution on the two-copy ambient algebra, Clifford
elements, the Clifford-system axioms, and the translation from the two-copy
picture to the one-quiver picture.

The ambient algebra for a block is the tagged direct sum of the block over
the quiver and over its opposite, both indexed by the same residue
sequences.  The sign map swaps the tags and scales a monomial by
(-1)^(length + |exponents|); its fixed points are the alternating
subalgebra.  In this picture the tag swap is fixed-point free, so every
sign choice gives an honest Clifford element with square 1 -- including on
blocks whose sequences are fixed by the reversal map, where the one-quiver
difference of idempotents would degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (TAG_MAIN, TAG_OPP, TAGS_BOTH, Element, KLR, Mono,
                      ShapeError, _acc1)
from .exprs import element_to_text
from .perms import all_perms, length
from .quiver import Root


def sgn(x: Element) -> Element:
    """The graded sign map: swap tags, negate y's and psi's.

    On a monomial this is (-1)^(l(w) + |a|) times the tag-swapped monomial.
    """
    ctx = x.ctx
    dom = ctx.dom
    out = {}
    for m, c in x.terms.items():
        other = TAG_OPP if m.tag == TAG_MAIN else TAG_MAIN
        if (length(m.w) + sum(m.a)) % 2:
            c = dom.neg(c)
        out[Mono(other, m.w, m.a, m.seq)] = c
    return Element(ctx, out)


def ambient_unit(ctx: KLR, root: Root) -> Element:
    return ctx.unit(ctx.block_seqs(root), TAGS_BOTH)


def e_pair(ctx: KLR, seq) -> Element:
    """e[i] = e_G(i) + e_G'(i)."""
    return ctx.e(seq, TAG_MAIN) + ctx.e(seq, TAG_OPP)


def eps_pair(ctx: KLR, seq) -> Element:
    """e_G(i) - e_G'(i), the signed companion of e[i]."""
    return ctx.e(seq, TAG_MAIN) - ctx.e(seq, TAG_OPP)


@dataclass(frozen=True)
class CliffordChoice:
    """A sign per residue sequence of the block; +1 means the G-tagged
    idempotent is taken as the class representative."""

    signs: tuple  # ((seq, +-1), ...) in sequence order


def make_epsilon(ctx: KLR, root: Root, choice: CliffordChoice | None = None) -> Element:
    """The Clifford element of the block for the given sign choice:
    sum of sign(i) * (e_G(i) - e_G'(i)).  Always squares to the block
    identity and is negated by the sign map."""
    if choice is None:
        choice = CliffordChoice(tuple((s, 1) for s in ctx.block_seqs(root)))
    out = ctx.zero()
    for seq, sig in choice.signs:
        out = out + eps_pair(ctx, seq).scale(sig)
    return out


def block_generators(ctx: KLR, root: Root):
    """Named generators of the ambient block: all idempotents, y's, psi's."""
    seqs = ctx.block_seqs(root)
    gens = []
    for tag in TAGS_BOTH:
        for s in seqs:
            gens.append((f"e({','.join(map(str, s))})@{tag}", ctx.e(s, tag)))
    for r in range(1, ctx.n + 1):
        gens.append((f"y[{r}]", ctx.y_element(r, seqs, TAGS_BOTH)))
    for r in range(1, ctx.n):
        gens.append((f"psi[{r}]", ctx.psi_element(r, seqs, TAGS_BOTH)))
    return gens


def centrality_check(ctx: KLR, x: Element, root: Root):
    """Does x commute with every generator of the ambient block?

    Returns (True, None) or (False, witness generator name).
    """
    for name, g in block_generators(ctx, root):
        if x * g != g * x:
            return False, name
    return True, None


def sgn_eigenvalue(x: Element):
    """+1, -1, 0 for the zero element, or None for a non-eigenvector."""
    if x.is_zero():
        return 0
    s = sgn(x)
    if s == x:
        return 1
    if s == -x:
        return -1
    return None


def sgn_planes(ctx: KLR, root: Root, bound: int):
    """The planes <m@G, m@G'>, m = (w, a, i), whose direct sum the truncated
    two-copy block is, in `perms.all_perms` x `exponents_upto` x `block_seqs`
    order.  Yields (m@G, m@G', eps), with eps None unless the real `sgn`
    sends m@G to eps m@G' and m@G' to eps' m@G, with eps eps' = 1."""
    dom, seqs, new = ctx.dom, ctx.block_seqs(root), tuple.__new__

    def image(m, partner):
        # sgn's coefficient on `partner`, 0 unless that is its one term
        terms = sgn(Element(ctx, {m: dom.one})).terms
        return terms.get(partner, 0) if len(terms) == 1 else 0

    for w in all_perms(ctx.n):
        for a in ctx.exponents_upto(bound):
            for s in seqs:
                # tuple.__new__ skips the namedtuple's Python-level __new__
                m, m_opp = new(Mono, (TAG_MAIN, w, a, s)), new(Mono, (TAG_OPP, w, a, s))
                eps = image(m, m_opp)
                yield m, m_opp, eps if dom.mul(eps, image(m_opp, m)) == dom.one else None


# --- translation to the one-quiver picture ---------------------------------


def translate_to_single(ctx: KLR, x: Element) -> Element:
    """Identify the opposite-tagged copy with the reversed block of the
    quiver itself: e_G'(i) goes to e_G(tau i), y and psi stay put."""
    if ctx.tau is None:
        raise ShapeError("context has no reversal map")
    out: dict = {}
    for m, c in x.terms.items():
        if m.tag != TAG_MAIN:
            m = Mono(TAG_MAIN, m.w, m.a, ctx.tau.seq(m.seq))
        _acc1(out, m, c, ctx.dom)
    return Element(ctx, out)


# --- Clifford axiom checking ------------------------------------------------


def _sample_pairs(rng, nx: int, ny: int, max_pairs: int) -> list:
    """Index pairs (i, j) with i < nx and j < ny in sorted order: all of them,
    or max_pairs drawn by rng when there are more.  Draws the pairs (and
    leaves rng in the state) that sampling the full pair list would."""
    total = nx * ny
    if total <= max_pairs:
        return [divmod(k, ny) for k in range(total)]
    return sorted(divmod(k, ny) for k in rng.sample(range(total), max_pairs))


def clifford_axioms_check(ctx: KLR, root: Root, choice: CliffordChoice | None = None,
                          bound: int = 1, seed: int = 0, max_pairs: int = 400):
    """Check the graded Clifford-system axioms on the truncated block.

    Axioms, in report order: centrality of epsilon (a precondition -- the
    check refuses to continue without it), epsilon^2 = 1, sgn(eps) = -eps,
    product parity (even*even and odd*odd land even, even*odd lands odd; all
    pairs up to `max_pairs` per combination, deterministically sampled),
    odd part = eps * even part, direct sum of the even and odd parts, the
    identity lands even, and the even rank is half the ambient rank.

    The span axioms read `sgn_planes`, eliminating nothing: where sgn sends
    m@G to e m@G', the plane's even and odd parts are the lines of m@G +-
    e m@G', so both ranks are the plane count N, against 2N basis monomials,
    and eps (m@G + e m@G') must be c (m@G - e m@G'), c nonzero.

    Returns (ok, axioms, meta): `axioms` maps axiom name to a dict with
    "status" and "witness" keys.
    """
    import random

    dom = ctx.dom
    axioms: dict = {}
    meta = {"bound": bound, "seed": seed}

    def axiom(holds, witness=None):
        return {"status": "pass" if holds else "fail",
                "witness": None if holds else witness}

    eps = make_epsilon(ctx, root, choice)
    central, witness = centrality_check(ctx, eps, root)
    axioms["centrality"] = axiom(central, witness)
    if not central:
        return False, axioms, meta

    one = ambient_unit(ctx, root)
    axioms["epsilon_square"] = axiom(eps * eps == one)
    axioms["sgn_negates_epsilon"] = axiom(sgn(eps) == -eps)

    monos = ctx.enumerate_basis(root, bound, TAGS_BOTH)

    def part(k, parity):
        # b + sgn(b) and b - sgn(b) are twice b's parts: sign eigenvalues
        # ignore the 2; only the sampled parts are built
        b = Element(ctx, {monos[k]: dom.one})
        return b + sgn(b) if parity == "even" else b - sgn(b)

    rng = random.Random(seed)
    bad, checked = None, 0
    for pa, pb, want in (("even", "even", 1), ("even", "odd", -1),
                         ("odd", "odd", 1)):
        for i, j in _sample_pairs(rng, len(monos), len(monos), max_pairs):
            z = part(i, pa) * part(j, pb)
            checked += 1
            if sgn_eigenvalue(z) not in (0, want):
                bad = f"{pa}*{pb} product is not a {want:+d} eigenvector"
                break
        if bad:
            break
    meta["pairs_checked"] = checked
    axioms["product_parity"] = axiom(not bad, bad)

    def text(m):
        return element_to_text(Element(ctx, {m: dom.one}))

    planes, moved, off = 0, None, None
    for m, m_opp, e in sgn_planes(ctx, root, bound):
        planes += 1
        if e is None:
            moved = moved or f"sgn moves {text(m)} off its plane"
        elif not off:
            got = (eps * Element(ctx, {m: dom.one, m_opp: e})).terms
            c = got.get(m, 0)
            if len(got) != 2 or dom.is_zero(c) or got.get(m_opp) != dom.mul(c, -e):
                off = f"eps times the even part of {text(m)} leaves its plane"
    halves = not moved and 2 * planes == len(monos)
    axioms["odd_is_eps_even"] = axiom(not (moved or off), moved or off)
    axioms["direct_sum"] = axiom(halves, moved or (
        f"ranks {planes}+{planes} vs {2 * planes} vs {len(monos)}"))
    axioms["unit_in_even"] = axiom(sgn(one) == one)
    axioms["rank_halving"] = axiom(halves, moved or (
        f"even rank {planes}, ambient {len(monos)}"))

    ok = all(v["status"] == "pass" for v in axioms.values())
    return ok, axioms, meta
