"""Sign involution, Clifford elements, parity projections, translation."""

import itertools
import random

import pytest

import klrcalc as K
from klrcalc import signop
from klrcalc.algebra import Element, Mono
from klrcalc.perms import length
from klrcalc.suites import random_element
from parity import parity_project
from spans import Echelon, rank, spans_equal
from test_signed import sgn_squaring_to_minus_one, sgn_with_one_row_off_its_orbit

TAGS = ("G", "G'")


def translate_to_ambient(ctx, x, root):
    """Oracle: the inverse of `translate_to_single` on the class of `root`,
    which is one only when root != tau(root)."""
    tau_root = ctx.tau.root(root)
    assert tau_root != root
    out = {}
    for m, c in x.terms.items():
        assert m.tag == "G"
        if K.root_of_seq(ctx.quiver, m.seq) == tau_root:
            m = Mono("G'", m.w, m.a, ctx.tau.seq(m.seq))
        else:
            assert K.root_of_seq(ctx.quiver, m.seq) == root
        out[m] = c
    return ctx.elem(out)


@pytest.fixture(scope="module")
def ctx():
    return K.make_context(K.cycle(3), 2)


@pytest.fixture(scope="module")
def root(ctx):
    return K.make_root(ctx.quiver, {0: 1, 1: 1})


def test_sgn_on_generators():
    ctx1 = K.make_context(K.cycle(3), 1)
    y1_g = Element(ctx1, {Mono("G", (0,), (1,), (0,)): 1})
    assert K.sgn(y1_g) == Element(ctx1, {Mono("G'", (0,), (1,), (0,)): -1})
    e0 = ctx1.e((0,))
    assert K.sgn(e0) == ctx1.e((0,), "G'")


def test_sgn_monomial_sign_rule(ctx):
    rng = random.Random(6)
    seqs = K.all_seqs(ctx.quiver, 2)
    from klrcalc.suites import random_mono
    for _ in range(50):
        m = random_mono(ctx, rng, seqs, TAGS)
        s = K.sgn(Element(ctx, {m: 1}))
        other = "G'" if m.tag == "G" else "G"
        sign = (-1) ** (length(m.w) + sum(m.a))
        assert s == Element(ctx, {Mono(other, m.w, m.a, m.seq): sign})


def test_sgn_is_involutive_homomorphism(ctx):
    rng = random.Random(7)
    for _ in range(60):
        x = random_element(ctx, rng, tags=TAGS)
        y = random_element(ctx, rng, tags=TAGS)
        assert K.sgn(K.sgn(x)) == x
        assert K.sgn(x * y) == K.sgn(x) * K.sgn(y)
        if len({ctx.mono_degree(m) for m in x.terms}) == 1:
            assert K.sgn(x).degree() == x.degree()


def test_epsilon_properties_all_choices(ctx, root):
    seqs = ctx.block_seqs(root)
    one = signop.ambient_unit(ctx, root)
    for signs in itertools.product((1, -1), repeat=len(seqs)):
        choice = K.CliffordChoice(tuple(zip(seqs, signs)))
        eps = K.make_epsilon(ctx, root, choice)
        assert eps * eps == one
        assert K.sgn(eps) == -eps
        assert eps.degree() == 0
        central, witness = K.centrality_check(ctx, eps, root)
        assert central == (len(set(signs)) == 1)
        if not central:
            assert witness.startswith("psi")


def test_default_epsilon_example():
    ctx1 = K.make_context(K.cycle(3), 1)
    root = K.make_root(ctx1.quiver, {0: 1})
    eps = K.make_epsilon(ctx1, root)
    assert eps == ctx1.e((0,)) - ctx1.e((0,), "G'")


def test_centrality_of_identity(ctx, root):
    ok, _ = K.centrality_check(ctx, signop.ambient_unit(ctx, root), root)
    assert ok


def test_parity_projections(ctx, root):
    rng = random.Random(8)
    seqs = ctx.block_seqs(root)
    e01 = ctx.e((0, 1))
    even = parity_project(ctx, e01, "even")
    assert even == signop.e_pair(ctx, (0, 1)).scale(ctx.dom.half)
    for _ in range(40):
        x = random_element(ctx, rng, seqs, TAGS)
        ev = parity_project(ctx, x, "even")
        od = parity_project(ctx, x, "odd")
        assert ev + od == x
        assert parity_project(ctx, ev, "even") == ev
        assert parity_project(ctx, od, "even").is_zero()
        assert K.sgn(ev) == ev
        assert K.sgn(od) == -od


def test_odd_part_is_epsilon_times_fixed(ctx, root):
    eps = K.make_epsilon(ctx, root)
    rng = random.Random(10)
    seqs = ctx.block_seqs(root)
    for _ in range(100):
        x = random_element(ctx, rng, seqs, TAGS)
        od = parity_project(ctx, x, "odd")
        z = eps * od
        assert K.sgn(z) == z
        assert eps * z == od


def test_class_idempotent_sign_fixed(ctx, root):
    e_cls = signop.ambient_unit(ctx, root)
    assert K.sgn(e_cls) == e_cls
    rng = random.Random(12)
    for _ in range(20):
        x = random_element(ctx, rng, ctx.block_seqs(root), TAGS)
        assert e_cls * x == x == x * e_cls


def test_clifford_axioms_pass(ctx, root):
    ok, axioms, meta = K.clifford_axioms_check(ctx, root, bound=1)
    assert ok, axioms
    assert set(axioms) == {"centrality", "epsilon_square", "sgn_negates_epsilon",
                           "product_parity", "odd_is_eps_even", "direct_sum",
                           "unit_in_even", "rank_halving"}


def test_clifford_refuses_non_central(ctx, root):
    seqs = ctx.block_seqs(root)
    signs = [1] * len(seqs)
    signs[0] = -1
    choice = K.CliffordChoice(tuple(zip(seqs, signs)))
    ok, axioms, _ = K.clifford_axioms_check(ctx, root, choice, bound=1)
    assert not ok
    assert axioms["centrality"]["status"] == "fail"
    assert list(axioms) == ["centrality"]  # refused before the other axioms


SPAN_ROWS = ("odd_is_eps_even", "direct_sum", "rank_halving")


def eliminated_span_rows(ctx, root, bound):
    """The reference: clifford's three span rows as elimination decides
    them, over the rows b + sgn b, b - sgn b and eps (b + sgn b) of every
    truncated basis monomial b.  Returns ({row: holds}, even rank)."""
    eps = signop.make_epsilon(ctx, root)
    monos = ctx.enumerate_basis(root, bound, TAGS)
    even, odd = [], []
    for m in monos:
        b = Element(ctx, {m: ctx.dom.one})
        even.append(b + K.sgn(b))
        odd.append(b - K.sgn(b))
    rows_odd = [o.terms for o in odd]
    r_odd = rank(rows_odd, ctx.dom)
    span = Echelon(ctx.dom, [e.terms for e in even])
    r_even = span.rank
    for row in rows_odd:
        span.add(row)
    return {"odd_is_eps_even": spans_equal(rows_odd, [(eps * e).terms for e in even],
                                           ctx.dom),
            "direct_sum": r_even + r_odd == span.rank == len(monos),
            "rank_halving": 2 * r_even == len(monos)}, r_even


@pytest.mark.parametrize("field", ["Q", "Fp:5"])
@pytest.mark.parametrize("quiver", [K.cycle(3), K.path(3)], ids=["cycle3", "path3"])
def test_clifford_span_rows_match_elimination(quiver, field):
    # the plane rows decide as elimination does, on every block class at
    # n <= 3 and bounds 0..2; the plane count is the even rank
    dom = K.domain_from_flag(field)
    for n in (1, 2, 3):
        ctx = K.make_context(quiver, n, dom)
        for root in K.root_tau_classes(quiver, ctx.tau, n).reps:
            for bound in (0, 1, 2):
                ok, axioms, _ = K.clifford_axioms_check(ctx, root, bound=bound,
                                                        max_pairs=0)
                want, r_even = eliminated_span_rows(ctx, root, bound)
                assert {row: axioms[row]["status"] == "pass" for row in SPAN_ROWS} \
                    == want == dict.fromkeys(SPAN_ROWS, True)
                assert sum(1 for _ in signop.sgn_planes(ctx, root, bound)) == r_even
                assert ok


def decode_reversed(monkeypatch):
    """A seeded fault: `KLR._decode` reads the exponent fields in reverse."""
    decode = K.KLR._decode
    monkeypatch.setattr(K.KLR, "_decode", lambda self, terms: {
        m._replace(a=m.a[::-1]): c for m, c in decode(self, terms).items()})


@pytest.mark.parametrize("fault", [
    lambda mp: mp.setattr(signop, "sgn", sgn_with_one_row_off_its_orbit),
    lambda mp: mp.setattr(signop, "sgn", sgn_squaring_to_minus_one),
    decode_reversed,
], ids=["sgn off its plane", "sgn^2 = -1 on G'", "_decode reversed"])
def test_clifford_span_rows_fail_under_seeded_faults(fault, monkeypatch):
    ctx = K.make_context(K.cycle(3), 2)
    root = K.make_root(ctx.quiver, {0: 1, 1: 1})
    ok, axioms, _ = K.clifford_axioms_check(ctx, root, bound=1)
    assert ok
    fault(monkeypatch)
    ctx = K.make_context(K.cycle(3), 2)
    ok, axioms, _ = K.clifford_axioms_check(ctx, root, bound=1)
    failing = [row for row in SPAN_ROWS if axioms[row]["status"] == "fail"]
    assert failing and not ok
    assert all(axioms[row]["witness"] for row in failing)
    if fault is decode_reversed:
        # elimination absorbs this one: eps times an even row lands on the
        # odd row of another plane, inside the odd span
        assert eliminated_span_rows(ctx, root, 1)[0] == dict.fromkeys(SPAN_ROWS, True)
        assert failing == ["odd_is_eps_even"]


def _sample_pairs_reference(rng, nx, ny, max_pairs):
    # reference: sample the full list of index pairs
    pairs = [(i, j) for i in range(nx) for j in range(ny)]
    if len(pairs) > max_pairs:
        pairs = rng.sample(pairs, max_pairs)
    return sorted(pairs)


@pytest.mark.parametrize("nx, ny, max_pairs", [
    (3, 4, 20),    # fewer pairs than max_pairs
    (4, 5, 20),    # exactly max_pairs
    (3, 7, 20),    # one more than max_pairs
    (0, 5, 3), (5, 0, 3), (0, 0, 0),
    (12, 13, 40),
])
def test_sample_pairs_matches_full_list(nx, ny, max_pairs):
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert (signop._sample_pairs(rng, nx, ny, max_pairs)
                    == _sample_pairs_reference(ref, nx, ny, max_pairs))
        assert rng.random() == ref.random()


def test_translate_examples(ctx):
    # e_G'(0,1) with tau = -i mod 3 lands on e_G(0,2)
    x = K.translate_to_single(ctx, ctx.e((0, 1), "G'"))
    assert x == ctx.e((0, 2))
    assert K.translate_to_single(ctx, ctx.e((0, 1))) == ctx.e((0, 1))


def test_translate_homomorphism_and_roundtrip(ctx, root):
    rng = random.Random(13)
    seqs = ctx.block_seqs(root)
    for _ in range(60):
        x = random_element(ctx, rng, seqs, TAGS)
        y = random_element(ctx, rng, seqs, TAGS)
        tx, ty = K.translate_to_single(ctx, x), K.translate_to_single(ctx, y)
        assert K.translate_to_single(ctx, x * y) == tx * ty
        assert translate_to_ambient(ctx, tx, root) == x
