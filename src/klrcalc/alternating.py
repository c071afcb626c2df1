"""
The alternating subalgebra of the two-copy ambient algebra: its generators,
its parity-filtered basis, presentation verification, and the signed
companion algebra with its Z x C2 grading.

Two pictures coexist and are translated between:

* the two-copy picture, where the sign involution swaps tags and is
  fixed-point free: the parity-filtered basis always has exactly half the
  ambient rank;
* the one-quiver picture, reached by identifying the opposite-tagged copy
  with the reversed block: here the difference idempotents degenerate on
  reversal-fixed sequences, which is what carves the characteristic
  2,1,2,1,... degree pattern out of the rank-3 block sum for the 3-cycle
  at one strand.

The relation families of both presentations are the rows of one table,
`algebra.KLR_RELATIONS`, which `algebra.relation_instances` checks on the
plain two-copy values (`_table_instances`): each sequence's compiled suffix
program runs on the terms of e[i], or of the block unit, through the
engine's one step loop.  Every generator of both presentations keeps a
term's tag, so a word's value in either is G + s G', the tag parts of its
one plain value, with s = -1 when it has an odd number of odd letters.
The basis words of the expression check run on each e[i] as one compiled
suffix program, through `KLR.act_words`.

The braid relation of the signed presentation is checked with the
correction sign matching the underlying deformed braid relation (minus on
the forward edge orientation); the report names that reading explicitly.
"""

from __future__ import annotations

import itertools
import math

from . import perms
from .algebra import (TAG_MAIN, TAG_OPP, TAGS_BOTH, Element, KLR, Mono,
                      NotHomogeneousError, ShapeError, relation_instances)
from .exprs import element_to_json_obj
from .perms import canonical_word, length
from .quiver import Root, all_seqs, tau_classes
from .signop import (ambient_unit, e_pair, eps_pair, sgn_eigenvalue, sgn_planes,
                     translate_to_single)

PLUS = "+"
MINUS = "-"


# --- the parity-filtered basis ------------------------------------------------


def iter_alt_basis(ctx: KLR, root: Root, bound: int):
    """The sign-fixed basis of the two-copy block, truncated at |a| <= bound,
    streamed: yields (desc, element) for one element psi_w y^a eps^b e[i] per
    (w, a, i), in that nesting order, with desc = (w, a, i, b) and b forced
    by l(w) + |a| + b even.  Nothing is listed, so a caller that reads the
    basis once holds one element at a time."""
    dom = ctx.dom
    minus = dom.from_int(-1)
    seqs = ctx.block_seqs(root)
    for w in perms.all_perms(ctx.n):
        lw = length(w)
        for a in ctx.exponents_upto(bound):
            b = (lw + sum(a)) % 2
            coeff = dom.one if b == 0 else minus
            for s in seqs:
                yield (w, a, s, b), Element(ctx, {Mono(TAG_MAIN, w, a, s): dom.one,
                                                  Mono(TAG_OPP, w, a, s): coeff})


def alt_basis(ctx: KLR, root: Root, bound: int):
    """The elements of `iter_alt_basis`, listed.

    Returns (descriptors, elements), in the stream's order; the count is
    exactly half the truncated ambient monomial count.
    """
    rows = list(iter_alt_basis(ctx, root, bound))
    return [desc for desc, _ in rows], [el for _, el in rows]


def express_alt(ctx: KLR, desc) -> list:
    """Write a parity-basis element as a word in the alternating generators.

    The word Psi_{c1}..Psi_{cd} Y_1^{a_1}..Y_n^{a_n} e[i] reproduces the
    element exactly (scalar 1): the Clifford factors square away and the
    leftover power matches the parity constraint.
    """
    w, a, s, _b = desc
    word = [("psi", c) for c in canonical_word(w)]
    for r, k in enumerate(a, start=1):
        word.extend([("y", r)] * k)
    word.append(("e", s))
    return word


# --- graded dimensions in the one-quiver picture ------------------------------


def _add_dims(ctx: KLR, table: dict, seqs, bound: int,
              parity: bool = False) -> None:
    """Add to `table` the degrees of psi_w y^a e(i) over every w, every i in
    `seqs` and |a| <= bound.  The C(k + n - 1, k) exponent vectors a with
    |a| = k all sit at degree deg(psi_w e(i)) + 2k, so each (w, i) costs one
    `mono_degree`.  With `parity`, only the k with l(w) + k even count."""
    n = ctx.n
    zero = (0,) * n
    ways = [math.comb(k + n - 1, k) for k in range(bound + 1)]
    for w in perms.all_perms(n):
        first, step = (length(w) % 2, 2) if parity else (0, 1)
        for s in seqs:
            d = ctx.mono_degree(Mono(TAG_MAIN, w, zero, s))
            for k in range(first, bound + 1, step):
                table[d + 2 * k] = table.get(d + 2 * k, 0) + ways[k]


def full_dims_single(ctx: KLR, bound: int) -> dict:
    """Graded dimension table of the whole rank-n algebra (single copy),
    truncated at |a| <= bound, counted per (w, i) by `_add_dims`."""
    table: dict = {}
    _add_dims(ctx, table, all_seqs(ctx.quiver, ctx.n), bound)
    return dict(sorted(table.items()))


def alternating_dims_single(ctx: KLR, bound: int) -> dict:
    """Graded dimension table of the sign-fixed subalgebra in the one-quiver
    picture, counted per (w, i) by `_add_dims` over one sequence i of each
    tau-orbit of I^n: an orbit {i, tau i} of two sequences contributes its
    whole basis once, a tau-fixed i only the even l(w) + |a|.
    """
    if ctx.tau is None:
        raise ShapeError("alternating dimensions need a reversal map")
    tau = ctx.tau
    reps = tau_classes(ctx.quiver, all_seqs(ctx.quiver, ctx.n), tau).reps
    table: dict = {}
    for fixed in (False, True):
        _add_dims(ctx, table, [s for s in reps if (tau.seq(s) == s) == fixed],
                  bound, parity=fixed)
    return dict(sorted(table.items()))


def dims_complete_window(ctx: KLR, bound: int) -> int:
    """Largest degree at which a |a| <= bound truncation certainly lists every
    basis element: psi parts contribute at least -n(n-1) to the degree."""
    return 2 * bound - ctx.n * (ctx.n - 1)


# --- presentation verification -------------------------------------------------


def _row(relation, cls, r=None, s=None, diff=None) -> dict:
    """A report row, failing exactly when it is given a `diff`: an Element
    lhs - rhs, shown as its JSON, or a witness text."""
    row = {"relation": relation, "class": list(cls) if cls else None, "r": r,
           "status": "pass" if diff is None else "fail",
           "diff": element_to_json_obj(diff) if isinstance(diff, Element) else diff}
    if s is not None:
        row["s"] = s
    return row


def _differ(lhs: Element, rhs: Element):
    """lhs - rhs, or None where they agree: a row's diff."""
    return None if lhs == rhs else lhs - rhs


ALT_NAMES = {
    "y e": "Y_r e[i] = e[i] Y_r",
    "psi e": "Psi_r e[i] = e[s_r i] Psi_r",
    "y y": "Y_r Y_s = Y_s Y_r",
    "psi y": "Psi_r Y_{r+1} e[i] = (Y_r Psi_r + delta) e[i]",
    "y psi": "Y_{r+1} Psi_r e[i] = (Psi_r Y_r + delta) e[i]",
    "psi y far": "Psi_r Y_s e[i] = Y_s Psi_r e[i]",
    "psi psi far": "Psi_r Psi_s e[i] = Psi_s Psi_r e[i]",
    "psi psi": "Psi_r^2 e[i]",
    "braid": "braid Psi_r Psi_{r+1} Psi_r e[i]",
}

SIGNED_NAMES = {
    "y e": "y'_r eps_a(i) = eps_a(i) y'_r",
    "psi e": "psi'_r eps_a(i) = eps_a(s_r i) psi'_r",
    "y y": "y'_r y'_s eps_a(i) commute",
    "psi y": "psi'_r y'_{r+1} eps_a(i) dot-slide",
    "y psi": "y'_{r+1} psi'_r eps_a(i) dot-slide",
    "psi y far": "psi'_r y'_s eps_a(i) commute",
    "psi psi far": "psi'_r psi'_s eps_a(i) commute",
    "psi psi": "psi'_r^2 eps_a(i)",
    "braid": "braid psi' eps_a(i)",
}


# The kinds of the odd letters, those that negate G' terms: Psi_r = psi_r eps
# and Y_r = y_r eps, and the idempotents that read eps_- in the signed rows
# of (i, a): F = eps_-a(i) under a = +, E and SWAP under a = -.  F acts as E
# in both, so the correction words share E's products and only their
# parities tell them apart.
ALT_ODD = frozenset({"psi", "y"})
SIGNED_ODD = {PLUS: frozenset({"F"}), MINUS: frozenset({"E", "swap"})}


def _table_instances(ctx: KLR, root: Root, names: dict, cls, views,
                     bare=None) -> list:
    """The instances of the relation table on the block's two-copy algebra,
    as report rows, family by family in table order: one label per sequence
    i, whose words act on e[i], every letter on both tags alike, so a
    presentation's rows are `views` of these values.  cls(label) is the
    row's "class"."""
    found = {family: [] for family in names}
    labels = [(i, i, e_pair(ctx, i)) for i in ctx.block_seqs(root)]
    for family, label, r, s, diff in relation_instances(labels, ctx.n, views, bare):
        found[family].append(_row(names[family], cls(label), r, s, diff))
    return [inst for instances in found.values() for inst in instances]


def _y_landing(ctx: KLR, r: int, one: Element, seqs):
    """y_r acting on `one`, the unit of the block of `seqs`, and a witness
    unless it is y_r as `KLR.y_element` builds it, from `Mono`s that are
    never decoded."""
    y = ctx.act(("y", r), one)
    return y, None if y == ctx.y_element(r, seqs, TAGS_BOTH) else f"y[{r}]*1 = {y!r}"


def verify_alt_presentation(ctx: KLR, root: Root):
    """Check every defining relation of the alternating presentation on the
    realized generators of the block, by exact ambient computation.

    Returns (instances, notes).  The degree relation for the Psi generators
    is read with the Cartan entry as the exponent drop, matching the degree
    function of the underlying algebra.
    """
    seqs = ctx.block_seqs(root)
    n = ctx.n
    one, E = ambient_unit(ctx, root), {i: e_pair(ctx, i) for i in seqs}
    out = []
    notes = [
        "idempotents are indexed by tag-swap classes: one e[i] per sequence "
        "of the block",
        "the Psi degree relation is read with the symmetric Cartan entry",
    ]
    if ctx.tau is not None and ctx.tau.root(root) == root:
        fixed = [s for s in seqs if ctx.tau.seq(s) == s]
        if fixed:
            n_classes = len(tau_classes(ctx.quiver, seqs, ctx.tau).classes)
            notes.append(
                f"reversal-symmetric block with {len(fixed)} fixed sequences: "
                f"{len(seqs)} tag-swap classes vs {n_classes} sequence classes")

    for i in seqs:
        for j in seqs:
            want = E[i] if i == j else ctx.zero()
            out.append(_row("e[i]e[j] = delta e[i]", (i, j),
                            diff=_differ(E[i] * E[j], want)))
    total = sum((E[i] for i in seqs), ctx.zero())
    out.append(_row("sum e[i] = 1", None, diff=_differ(total, one)))

    out += _table_instances(ctx, root, ALT_NAMES,
                            lambda i: None if i is None else (i,),
                            ((None, ALT_ODD),), ({"y y"}, one))

    # degree assertions, read off the plain values: a twist keeps degrees
    for i in seqs:
        for r in range(1, n):
            want = -ctx.quiver.cartan_entry(i[r - 1], i[r])
            got = ctx.act(("psi", r), E[i]).degree()
            out.append(_row("deg Psi_r e[i]", (i,), r, diff=None if got == want
                            else f"deg {got} != {want}"))
    for r in range(1, n + 1):
        y, off = _y_landing(ctx, r, one, seqs)
        got = off or y.degree()
        out.append(_row("deg Y_r = 2", None, r,
                        diff=None if got == 2 else off or f"deg {got}"))
    for i in seqs:
        got = E[i].degree()
        out.append(_row("deg e[i] = 0", (i,), diff=None if got == 0 else f"deg {got}"))
    return out, notes


def iter_express_coverage(ctx: KLR, root: Root, bound: int):
    """Reproduce every truncated parity-basis element of `iter_alt_basis`
    from its generator word (`express_alt`), one row each, in its order.
    The words psi_{cw(w)} Y^a, for every (w, a), act on each e[i] of the
    block in one `KLR.act_words` call, so words that share a suffix share
    its value.  Letters keep tags, so a row compares the element with its
    word's plain value read with the word's parity; a plain value m@G +
    m@G' reads as m@G +- m@G' at once, and only another is read from its
    terms."""
    dom, seqs = ctx.dom, ctx.block_seqs(root)
    one, minus, new = dom.one, dom.from_int(-1), tuple.__new__
    keys = [(w, a) for w in perms.all_perms(ctx.n) for a in ctx.exponents_upto(bound)]
    words = [express_alt(ctx, (w, a, None, None))[:-1] for w, a in keys]
    # each word's parity: an odd one negates the G' terms of its value
    odd = {k: sum(g[0] in ALT_ODD for g in word) % 2 for k, word in zip(keys, words)}
    failing = {}
    for s, values in zip(seqs, ctx.act_words(words, (e_pair(ctx, s) for s in seqs))):
        for (w, a), got in zip(keys, values):
            # tuple.__new__ skips the namedtuple's Python-level __new__
            if got.terms != {new(Mono, (TAG_MAIN, w, a, s)): one,
                             new(Mono, (TAG_OPP, w, a, s)): one}:
                failing[w, a, s] = {m: dom.neg(c) if odd[w, a] and m.tag == TAG_OPP
                                    else c for m, c in got.terms.items()}
    for desc, el in iter_alt_basis(ctx, root, bound):
        w, a, s, _b = desc
        read = failing.get((w, a, s))
        if read is None:
            read = {new(Mono, (TAG_MAIN, w, a, s)): one,
                    new(Mono, (TAG_OPP, w, a, s)): minus if odd[w, a] else one}
        yield _row("express(alt basis element)", desc,
                   diff=_differ(Element(ctx, read), el))


def express_coverage(ctx: KLR, root: Root, bound: int) -> list:
    """The rows of `iter_express_coverage`, as a list."""
    return list(iter_express_coverage(ctx, root, bound))


# --- the signed companion algebra ----------------------------------------------


def _check_sign(a: str) -> None:
    if a not in (PLUS, MINUS):
        raise ShapeError(f"sign must be '+' or '-', not {a!r}")


def signed_eps(ctx: KLR, seq, a: str) -> Element:
    """Two-copy realization of the signed idempotent generator."""
    _check_sign(a)
    return e_pair(ctx, seq) if a == PLUS else eps_pair(ctx, seq)


def theta_eps(ctx: KLR, seq, a: str) -> Element:
    """One-quiver realization e(i) +- e(tau i) of the signed idempotent."""
    _check_sign(a)
    if ctx.tau is None:
        raise ShapeError("context has no reversal map")
    other = ctx.e(ctx.tau.seq(seq), TAG_MAIN)
    return ctx.e(seq) + other if a == PLUS else ctx.e(seq) - other


def deg2_of(ctx: KLR, x: Element):
    """The Z x C2 degree (z, parity) of a homogeneous sign eigenvector."""
    z = x.degree()
    eig = sgn_eigenvalue(x)
    if eig is None:
        raise NotHomogeneousError("not a sign eigenvector")
    if eig == 0:
        raise NotHomogeneousError("the zero element has no distinguished parity")
    return z, PLUS if eig == 1 else MINUS


def _even_part_is_alternating(ctx: KLR, root: Root, bound: int):
    """None if the span of b + sgn b over the truncated two-copy basis is
    that of `iter_alt_basis`, else the first failing plane, named.  Checked
    on the planes of `sgn_planes`, one at a time: where sgn sends m@G to eps
    m@G', the plane's even part is the line of m@G + eps m@G', so its one
    alternating element must be c (m@G + eps m@G'), c nonzero.  An image of
    sgn off its plane fails the check."""
    dom = ctx.dom
    for plane, row in itertools.zip_longest(sgn_planes(ctx, root, bound),
                                            iter_alt_basis(ctx, root, bound)):
        if plane is None or row is None:
            return "the planes and the alternating basis differ in number"
        (m, m_opp, eps), (desc, el) = plane, row
        if eps is None:
            return f"sgn moves {Element(ctx, {m: dom.one})!r} off its plane"
        c = el.terms.get(m, 0)
        if (desc[:3] != m[1:] or len(el.terms) != 2 or dom.is_zero(c)
                or el.terms.get(m_opp) != dom.mul(c, eps)):
            return (f"the alternating element {desc}, {el!r}, does not span the "
                    f"even part of the plane of {Element(ctx, {m: dom.one})!r}")
    return None


def verify_signed_relations(ctx: KLR, root: Root, bound: int = 1):
    """Check every defining relation of the signed presentation on the
    realized generators, including the family obtained by multiplying with
    the signed idempotent, the reversal twist (through the one-quiver
    picture), the Z x C2 degrees, the round trips of the two structure maps
    (on classes with two distinct blocks), and the even part of the
    truncated block as the span of the alternating basis, checked one sgn
    orbit at a time (`_even_part_is_alternating`).
    """
    dom = ctx.dom
    n = ctx.n
    seqs = ctx.block_seqs(root)
    tau = ctx.tau
    if tau is None:
        raise ShapeError("signed relations need a reversal map")
    tau_root = tau.root(root)
    symmetric = tau_root == root

    E = {(s, a): signed_eps(ctx, s, a) for s in seqs for a in (PLUS, MINUS)}
    one = ambient_unit(ctx, root)

    out = []
    notes = [
        "braid correction signs follow the deformed braid relation of the "
        "underlying algebra: minus on a forward arrow, plus on a backward one",
    ]
    if symmetric:
        notes.append("block is reversal-symmetric: the one-quiver idempotents "
                     "degenerate on fixed sequences and the structure maps are "
                     "not invertible; round trips are skipped here")

    for i in seqs:
        for j in seqs:
            for a in (PLUS, MINUS):
                for b in (PLUS, MINUS):
                    prod = PLUS if a == b else MINUS
                    want = E[(i, prod)] if i == j else ctx.zero()
                    out.append(_row(f"eps_{a}(i) eps_{b}(j)", (i, j),
                                    diff=_differ(E[(i, a)] * E[(j, b)], want)))
    total = sum((E[(i, PLUS)] for i in seqs), ctx.zero())
    out.append(_row("sum eps_+(i) = 1", None, diff=_differ(total, one)))

    # reversal twist, read in the one-quiver picture
    for i in seqs:
        for a in (PLUS, MINUS):
            lhs = translate_to_single(ctx, E[(i, a)])
            out.append(_row(f"translate(eps_{a}(i)) = theta(eps_{a}(i))", (i,),
                            diff=_differ(lhs, theta_eps(ctx, i, a))))
            sign = 1 if a == PLUS else -1
            out.append(_row(f"eps_{a}(i) = {a}eps_{a}(tau i)", (i,), diff=_differ(
                theta_eps(ctx, i, a), theta_eps(ctx, tau.seq(i), a).scale(sign))))
            if symmetric and tau.seq(i) == i and a == MINUS:
                out.append(_row("eps_-(i) = 0 for tau-fixed i", (i,),
                                diff=_differ(theta_eps(ctx, i, a), ctx.zero())))

    out += _table_instances(ctx, root, SIGNED_NAMES, lambda label: label,
                            tuple(SIGNED_ODD.items()))

    # Z x C2 degrees of the realized generators
    def deg2_inst(name, cls, x, want, off=None):
        try:
            got = off or deg2_of(ctx, x)
        except NotHomogeneousError as exc:
            got = str(exc)
        out.append(_row(name, cls, diff=None if got == want else f"{got} != {want}"))

    for i in seqs:
        deg2_inst("deg2 eps_+(i) = (0,+)", (i,), E[(i, PLUS)], (0, PLUS))
        deg2_inst("deg2 eps_-(i) = (0,-)", (i,), E[(i, MINUS)], (0, MINUS))
    for r in range(1, n + 1):
        y, off = _y_landing(ctx, r, one, seqs)
        deg2_inst("deg2 y'_r = (2,-)", None, y, (2, MINUS), off)
    for i in seqs:
        for r in range(1, n):
            c = ctx.quiver.cartan_entry(i[r - 1], i[r])
            deg2_inst("deg2 psi'_r eps_+(i)", (i,),
                      ctx.act(("psi", r), E[(i, PLUS)]), (-c, MINUS))
            deg2_inst("deg2 psi'_r eps_-(i)", (i,),
                      ctx.act(("psi", r), E[(i, MINUS)]), (-c, PLUS))

    # structure maps: round trips on generators, classes of two blocks only
    if not symmetric:
        other_seqs = ctx.block_seqs(tau_root)

        def realize_signed_label(j, a):
            # labels from the mirrored block realize through the twist
            if j in seqs:
                return E[(j, a)]
            base = signed_eps(ctx, tau.seq(j), a)
            return base if a == PLUS else -base

        for j in list(seqs) + list(other_seqs):
            for a in (PLUS, MINUS):
                # sigma(theta(eps_a(j))) = eps_a(j)
                img = theta_eps(ctx, j, a)  # sum of one-quiver idempotents
                acc = ctx.zero()
                for m, c in img.terms.items():
                    half_sum = (realize_signed_label(m.seq, PLUS)
                                + realize_signed_label(m.seq, MINUS)).scale(dom.half)
                    acc = acc + half_sum.scale(c)
                out.append(_row("sigma(theta(eps_a)) = eps_a", (j, a),
                                diff=_differ(acc, realize_signed_label(j, a))))
            # theta(sigma(e(j))) = e(j)
            got = (theta_eps(ctx, j, PLUS) + theta_eps(ctx, j, MINUS)).scale(dom.half)
            out.append(_row("theta(sigma(e(j))) = e(j)", (j,),
                            diff=_differ(got, ctx.e(j, TAG_MAIN))))

    # even part of the signed algebra = the alternating subalgebra (spans)
    out.append(_row("even part = alternating subalgebra (truncated spans)", None,
                    diff=_even_part_is_alternating(ctx, root, bound)))
    return out, notes
