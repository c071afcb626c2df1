"""The signed companion algebra: realized relations, structure maps, grading."""

import pytest

import klrcalc as K
from klrcalc import alternating as alt
from klrcalc import signop
from klrcalc.algebra import Element, Mono, relation_instances
from klrcalc.perms import length
from parity import parity_project
from spans import spans_equal
from steps import log_steps

TAGS = ("G", "G'")

# the real sign map, for the faults below that wrap it once it is patched
sgn = signop.sgn


@pytest.fixture(scope="module")
def ctx2():
    return K.make_context(K.cycle(3), 2)


@pytest.fixture(scope="module")
def root01(ctx2):
    return K.make_root(ctx2.quiver, {0: 1, 1: 1})


def test_eps_product_rule(ctx2, root01):
    i = (0, 1)
    ep = alt.signed_eps(ctx2, i, "+")
    em = alt.signed_eps(ctx2, i, "-")
    assert ep * ep == ep
    assert em * em == ep
    assert ep * em == em * ep == em
    j = (1, 0)
    assert alt.signed_eps(ctx2, j, "+") * ep == ctx2.zero()


def test_signed_generator_wrapper(ctx2, root01):
    seqs = ctx2.block_seqs(root01)
    assert alt.signed_eps(ctx2, (0, 1), "-") == ctx2.e((0, 1)) - ctx2.e((0, 1), "G'")
    y = ctx2.y_element(1, seqs, TAGS)
    assert alt.deg2_of(ctx2, y) == (2, "-")
    psi = ctx2.psi_element(1, seqs, TAGS)
    assert alt.deg2_of(ctx2, psi * alt.signed_eps(ctx2, (0, 1), "+")) == (1, "-")
    with pytest.raises(K.ShapeError):
        alt.signed_eps(ctx2, (0, 1), "*")


@pytest.mark.parametrize("sign", ["x", "*", "", None, "+-"])
def test_signed_idempotents_refuse_an_unknown_sign(ctx2, sign):
    # both realizations of eps_a(i) read only "+" and "-"; theta_eps read
    # any other sign as "-"
    for realize in (alt.signed_eps, alt.theta_eps):
        with pytest.raises(K.ShapeError, match="sign must be"):
            realize(ctx2, (0, 1), sign)
    assert alt.theta_eps(ctx2, (0, 1), "-") == ctx2.e((0, 1)) - ctx2.e((0, 2))


def test_eps_plus_sum_is_identity(ctx2, root01):
    total = ctx2.zero()
    for s in ctx2.block_seqs(root01):
        total = total + alt.signed_eps(ctx2, s, "+")
    assert total == signop.ambient_unit(ctx2, root01)


def test_psi_squared_on_minus(ctx2, root01):
    # edge 0 -> 1: (psi'_1)^2 eps_-(i) = (y'_1 - y'_2) eps_+(i)
    i = (0, 1)
    seqs = ctx2.block_seqs(root01)
    P = ctx2.psi_element(1, seqs, TAGS)
    Y1 = ctx2.y_element(1, seqs, TAGS)
    Y2 = ctx2.y_element(2, seqs, TAGS)
    lhs = P * (P * alt.signed_eps(ctx2, i, "-"))
    assert lhs == (Y1 - Y2) * alt.signed_eps(ctx2, i, "+")


def test_braid_correction_sign():
    # on i = (0,1,0) with the 0 -> 1 edge the correction is minus the signed
    # idempotent; the opposite sign (as misprinted) fails
    ctx = K.make_context(K.cycle(3), 3)
    root = K.make_root(ctx.quiver, {0: 2, 1: 1})
    i = (0, 1, 0)
    seqs = ctx.block_seqs(root)
    P1 = ctx.psi_element(1, seqs, TAGS)
    P2 = ctx.psi_element(2, seqs, TAGS)
    ep = alt.signed_eps(ctx, i, "+")
    em = alt.signed_eps(ctx, i, "-")
    lhs = P1 * (P2 * (P1 * ep))
    braided = P2 * (P1 * (P2 * ep))
    assert lhs == braided - em
    assert lhs != braided + em


def test_relation_table_needs_the_sign_flip():
    # the shared relation table read in the signed rows: with F odd exactly
    # where E is, the correction idempotent of eps_a(i) reads eps_a(i)
    # instead of eps_{-a}(i), and the psi'^2 and braid rows must fail
    ctx = K.make_context(K.cycle(3), 3)
    root = K.make_root(ctx.quiver, {0: 2, 1: 1})
    labels = [(i, i, K.e_pair(ctx, i)) for i in ctx.block_seqs(root)]

    def failing(views):
        return {alt.SIGNED_NAMES[family]
                for family, *_, diff in relation_instances(labels, 3, views)
                if diff is not None}

    unflipped = (("+", frozenset()), ("-", frozenset({"E", "F", "swap"})))
    assert failing(tuple(alt.SIGNED_ODD.items())) == set()
    assert failing(unflipped) == {"psi'_r^2 eps_a(i)", "braid psi' eps_a(i)"}


def test_tau_twist_via_translation(ctx2, root01):
    tau = ctx2.tau
    for i in ctx2.block_seqs(root01):
        for a in ("+", "-"):
            two_copy = alt.signed_eps(ctx2, i, a)
            assert K.translate_to_single(ctx2, two_copy) == alt.theta_eps(ctx2, i, a)
            sign = 1 if a == "+" else -1
            assert alt.theta_eps(ctx2, i, a) == \
                alt.theta_eps(ctx2, tau.seq(i), a).scale(sign)


def test_eps_minus_vanishes_on_fixed_sequences(ctx2):
    # tau-fixed sequence in the one-quiver picture
    assert alt.theta_eps(ctx2, (0, 0), "-").is_zero()
    assert not alt.theta_eps(ctx2, (0, 0), "+").is_zero()


def test_deg2_table(ctx2, root01):
    seqs = ctx2.block_seqs(root01)
    i = (0, 1)
    assert alt.deg2_of(ctx2, alt.signed_eps(ctx2, i, "+")) == (0, "+")
    assert alt.deg2_of(ctx2, alt.signed_eps(ctx2, i, "-")) == (0, "-")
    assert alt.deg2_of(ctx2, ctx2.y_element(1, seqs, TAGS)) == (2, "-")
    P = ctx2.psi_element(1, seqs, TAGS)
    # cartan entry on the 0 -> 1 edge is -1
    assert alt.deg2_of(ctx2, P * alt.signed_eps(ctx2, i, "+")) == (1, "-")
    assert alt.deg2_of(ctx2, P * alt.signed_eps(ctx2, i, "-")) == (1, "+")


def test_deg2_errors(ctx2):
    mixed = ctx2.e((0, 1)) + ctx2.gen_left(("y", 1), ctx2.e((0, 1)))
    with pytest.raises(K.NotHomogeneousError):
        alt.deg2_of(ctx2, mixed)
    # homogeneous but not an eigenvector: e_G alone
    with pytest.raises(K.NotHomogeneousError):
        alt.deg2_of(ctx2, ctx2.e((0, 1)))


def test_full_signed_suite_passes(ctx2):
    for root in K.root_tau_classes(ctx2.quiver, ctx2.tau, 2).reps:
        rows, notes = alt.verify_signed_relations(ctx2, root, bound=1)
        bad = [r for r in rows if r["status"] != "pass"]
        assert not bad, bad[:3]
        assert any("braid correction" in n for n in notes)


def test_signed_rows_share_one_evaluation(monkeypatch):
    # the rows (i, +) and (i, -) are read off one evaluation of each word:
    # evaluating the words once per row made 1,320 letter actions here, 1,234
    # of them in the relation table; one evaluation per sequence halves those
    # (703), and the correction words, F written as E, share the products of
    # the "y e" rows' words (664)
    log = log_steps(monkeypatch)
    ctx = K.make_context(K.cycle(3), 3)
    for root in K.root_tau_classes(ctx.quiver, ctx.tau, 3).reps:
        rows, _ = alt.verify_signed_relations(ctx, root, bound=1)
        assert all(r["status"] == "pass" for r in rows)
    assert sum(kind != "e" for kind, _ in log) == 664


def test_roundtrips_present_only_on_asymmetric_blocks(ctx2):
    sym = K.make_root(ctx2.quiver, {0: 2})
    rows, _ = alt.verify_signed_relations(ctx2, sym, bound=1)
    assert not [r for r in rows if "sigma(theta" in r["relation"]]
    asym = K.make_root(ctx2.quiver, {0: 1, 1: 1})
    rows, _ = alt.verify_signed_relations(ctx2, asym, bound=1)
    trips = [r for r in rows if "sigma(theta" in r["relation"]
             or "theta(sigma" in r["relation"]]
    assert trips and all(r["status"] == "pass" for r in trips)


def test_even_part_matches_alternating_span():
    # the reference: eliminate the even parts of the basis monomials against
    # the alternating rows; the report's orbit-at-a-time check must agree
    for quiver in (K.cycle(3), K.path(3)):
        for n in (1, 2, 3):
            ctx = K.make_context(quiver, n)
            for root in K.root_tau_classes(quiver, ctx.tau, n).reps:
                for bound in (0, 1, 2):
                    even_rows = []
                    for m in ctx.enumerate_basis(root, bound, TAGS):
                        p = parity_project(ctx, Element(ctx, {m: ctx.dom.one}), "even")
                        if not p.is_zero():
                            even_rows.append(p.terms)
                    _, elems = alt.alt_basis(ctx, root, bound)
                    assert spans_equal(even_rows, [e.terms for e in elems], ctx.dom)
                    assert alt._even_part_is_alternating(ctx, root, bound)


def sgn_ignoring_exponents(x):
    """A faulty sgn: its sign reads l(w) only, not l(w) + |a|."""
    dom = x.ctx.dom
    return Element(x.ctx, {m._replace(tag="G'" if m.tag == "G" else "G"):
                           dom.neg(c) if length(m.w) % 2 else c
                           for m, c in x.terms.items()})


def alt_basis_ignoring_exponents(ctx, root, bound, stream=alt.iter_alt_basis):
    """A faulty alternating basis: its parity reads l(w) only."""
    dom = ctx.dom
    for (w, a, s, _), _ in stream(ctx, root, bound):
        b = length(w) % 2
        yield (w, a, s, b), Element(ctx, {
            Mono("G", w, a, s): dom.one,
            Mono("G'", w, a, s): dom.from_int(-1) if b else dom.one})


def alt_basis_mislabelled(ctx, root, bound, stream=alt.iter_alt_basis):
    """A faulty alternating basis: its labels read a = 0, its elements do not."""
    for (w, a, s, b), el in stream(ctx, root, bound):
        yield (w, (0,) * len(a), s, b), el


OFF = Mono("G", (0, 1), (1, 0), (0, 1))  # y_1 e(0,1) on G


def sgn_with_one_row_off_its_orbit(x):
    """A faulty sgn: the image of OFF lands on y_2 e(0,1)@G', not y_1's."""
    out = sgn(x)
    if OFF not in x.terms:
        return out
    terms = dict(out.terms)
    terms[OFF._replace(tag="G'", a=(0, 1))] = terms.pop(OFF._replace(tag="G'"))
    return Element(x.ctx, terms)


def sgn_squaring_to_minus_one(x):
    """A faulty sgn: the images of G' monomials are negated, so sgn^2 = -1."""
    dom = x.ctx.dom
    return Element(x.ctx, {m: dom.neg(c) if m.tag == "G" else c
                           for m, c in sgn(x).terms.items()})


@pytest.mark.parametrize("patch", [
    (signop, "sgn", sgn_ignoring_exponents),
    (alt, "iter_alt_basis", alt_basis_ignoring_exponents),
    (signop, "sgn", sgn_with_one_row_off_its_orbit),
    (alt, "iter_alt_basis", alt_basis_mislabelled),
    (signop, "sgn", sgn_squaring_to_minus_one),
], ids=["sgn ignores |a|", "parity ignores |a|", "sgn off orbit", "labels off",
        "sgn^2 = -1"])
def test_even_part_row_fails_under_seeded_faults(monkeypatch, ctx2, root01, patch):
    rows, _ = alt.verify_signed_relations(ctx2, root01, bound=1)
    assert rows[-1]["relation"].startswith("even part") and rows[-1]["status"] == "pass"
    monkeypatch.setattr(*patch)
    rows, _ = alt.verify_signed_relations(ctx2, root01, bound=1)
    assert rows[-1]["relation"].startswith("even part") and rows[-1]["status"] == "fail"
