"""Acceptance criteria, one test per criterion.

Everything is exact integer/rational arithmetic, so every check is equality
with zero tolerance.  Each test prints a single PASS line on success; the
whole module is the release gate.
"""

import itertools
import random

import klrcalc as K
from klrcalc import alternating as alt
from klrcalc import signop, suites
from klrcalc.algebra import Element
from spans import rank

TAGS = ("G", "G'")

QUIVERS = (K.cycle(3), K.path(3))


def test_criterion_klr_relation_suite():
    """Every defining relation, applied to all basis monomials with |a| <= 2,
    for cycle(3) and path(3), n in {2, 3}, all blocks: zero mismatches."""
    checked = 0
    for quiver in QUIVERS:
        for n in (2, 3):
            ctx = K.KLR(quiver, n)
            for root in K.all_roots(quiver, n):
                rows = suites._sweep_block(ctx, root, 2)
                bad = [r for r in rows if r["status"] != "pass"]
                assert not bad, (quiver.name, n, str(root), bad[:1])
                checked += sum(r["checked"] for r in rows)
    print(f"PASS klr-relations: {checked} relation applications, 0 mismatches")


def test_criterion_associativity_and_confluence():
    """500 random triples per configuration associate exactly; independently
    seeded rewrite strategies agree on 500 random words."""
    for quiver in QUIVERS:
        for n in (2, 3):
            ctx = K.KLR(quiver, n)
            count, failure = suites.associativity_fuzz(ctx, 500, seed=2024)
            assert failure is None, (quiver.name, n, failure)
    for quiver in QUIVERS:
        ctx = K.KLR(quiver, 3)
        count, failure = suites.strategy_fuzz(ctx, 500, seed=77)
        assert failure is None, (quiver.name, failure)
    print("PASS associativity/confluence: 4x500 triples and 2x500 words, "
          "0 mismatches")


def test_criterion_graded_dimensions_gamma3():
    """The one-strand table of the 3-cycle: 0->2, 2->1, 4->2, 6->1; and the
    halving identity over consecutive even degrees for k = 1..5."""
    ctx = K.make_context(K.cycle(3), 1)
    table = alt.alternating_dims_single(ctx, 6)
    assert {d: table[d] for d in (0, 2, 4, 6)} == {0: 2, 2: 1, 4: 2, 6: 1}
    full = alt.full_dims_single(ctx, 6)
    assert alt.dims_complete_window(ctx, 6) >= 12
    for k in range(1, 6):
        lo, hi = 2 * k, 2 * k + 2
        assert 2 * (table.get(lo, 0) + table.get(hi, 0)) == \
            full.get(lo, 0) + full.get(hi, 0), k
    print("PASS graded dimensions: table 0->2, 2->1, 4->2, 6->1 and halving "
          "for k=1..5")


def test_criterion_epsilon_properties():
    """For every sign choice on blocks with at most 4 sequences: the square
    is the identity and the sign map negates it; centrality holds exactly
    for the constant choices."""
    combos = [(K.cycle(3), n) for n in (1, 2, 3, 4)] + \
             [(K.path(3), n) for n in (1, 2, 3)]
    swept = 0
    for quiver, n in combos:
        ctx = K.make_context(quiver, n)
        for root in K.all_roots(quiver, n):
            seqs = ctx.block_seqs(root)
            if len(seqs) > 4:
                continue
            one = signop.ambient_unit(ctx, root)
            for signs in itertools.product((1, -1), repeat=len(seqs)):
                choice = K.CliffordChoice(tuple(zip(seqs, signs)))
                eps = K.make_epsilon(ctx, root, choice)
                assert eps * eps == one
                assert K.sgn(eps) == -eps
                assert eps.degree() == 0
                central, witness = K.centrality_check(ctx, eps, root)
                assert central == (len(set(signs)) == 1), (str(root), signs)
                if not central:
                    assert witness.startswith("psi")
                swept += 1
    print(f"PASS epsilon properties: {swept} Clifford choices swept")


def test_criterion_clifford_axioms():
    """All graded Clifford-system axioms on cycle(3), n <= 3, every block
    class, truncation |a| <= 1, default choice; even rank is half ambient."""
    quiver = K.cycle(3)
    blocks = 0
    for n in (1, 2, 3):
        ctx = K.make_context(quiver, n)
        for root in K.root_tau_classes(quiver, ctx.tau, n).reps:
            ok, axioms, meta = signop.clifford_axioms_check(
                ctx, root, bound=1, seed=5, max_pairs=400)
            assert ok, (n, str(root),
                        {k: v for k, v in axioms.items() if v["status"] != "pass"})
            blocks += 1
    print(f"PASS clifford axioms: {blocks} block classes, all axioms hold")


def test_criterion_alternating_basis():
    """cycle(3) and path(3), n <= 3, |a| <= 2: the parity-filtered set is
    exactly independent and counts half the ambient truncation."""
    blocks = 0
    for quiver in QUIVERS:
        for n in (1, 2, 3):
            ctx = K.make_context(quiver, n)
            for root in K.root_tau_classes(quiver, ctx.tau, n).reps:
                descs, elems = alt.alt_basis(ctx, root, 2)
                monos = ctx.enumerate_basis(root, 2, TAGS)
                assert 2 * len(elems) == len(monos), str(root)
                r = rank([e.terms for e in elems], ctx.dom)
                assert r == len(elems), str(root)
                for el in elems:
                    assert K.sgn(el) == el
                blocks += 1
    print(f"PASS alternating basis: rank = count = half ambient on "
          f"{blocks} block classes")


def test_criterion_presentation_relations():
    """Every relation instance of the alternating presentation for cycle(3),
    n in {2, 3}, all classes; every truncated basis element is reproduced
    from its generator word."""
    quiver = K.cycle(3)
    instances = 0
    for n in (2, 3):
        ctx = K.make_context(quiver, n)
        for root in K.root_tau_classes(quiver, ctx.tau, n).reps:
            rows, _ = alt.verify_alt_presentation(ctx, root)
            bad = [r for r in rows if r["status"] != "pass"]
            assert not bad, (n, str(root), bad[:1])
            instances += len(rows)
            rows = alt.express_coverage(ctx, root, 2)
            bad = [r for r in rows if r["status"] != "pass"]
            assert not bad, (n, str(root), bad[:1])
            instances += len(rows)
    print(f"PASS presentation: {instances} relation/expression instances")


def test_criterion_signed_algebra():
    """All signed-presentation relations hold for the realized generators;
    the two structure maps invert each other on generators over asymmetric
    classes; the bidegrees match; the even part equals the alternating
    subalgebra as truncated spans."""
    instances = 0
    roundtrips = 0
    configs = [(K.cycle(3), 2), (K.cycle(3), 3), (K.path(3), 2), (K.path(3), 3)]
    for quiver, n in configs:
        ctx = K.make_context(quiver, n)
        for root in K.root_tau_classes(quiver, ctx.tau, n).reps:
            rows, _ = alt.verify_signed_relations(ctx, root, bound=2)
            bad = [r for r in rows if r["status"] != "pass"]
            assert not bad, (quiver.name, n, str(root), bad[:1])
            instances += len(rows)
            roundtrips += sum("sigma(theta" in r["relation"] for r in rows)
    assert roundtrips > 0
    print(f"PASS signed algebra: {instances} instances incl. {roundtrips} "
          f"round-trip checks")


def test_criterion_homogeneity():
    """1000 random homogeneous products have additive degree; the sign map
    preserves degree."""
    ctx = K.make_context(K.cycle(3), 3)
    rng = random.Random(31)
    seqs = K.all_seqs(ctx.quiver, 3)
    done = 0
    while done < 1000:
        m1 = suites.random_mono(ctx, rng, seqs, TAGS)
        m2 = suites.random_mono(ctx, rng, seqs, TAGS)
        x = Element(ctx, {m1: ctx.dom.from_int(rng.choice([1, -1, 2]))})
        y = Element(ctx, {m2: ctx.dom.one})
        z = x * y
        if not z.is_zero():
            assert z.degree() == x.degree() + y.degree()
        assert K.sgn(x).degree() == x.degree()
        done += 1
    print("PASS homogeneity: 1000 products additive, sign map degree-preserving")
