"""Alternating subalgebra: generators, basis, dimensions, presentation."""

import pytest

import klrcalc as K
from klrcalc import alternating as alt
from klrcalc import signop
from klrcalc.algebra import E, F, Element, Mono, relation_instances
from klrcalc.perms import all_perms, length
from parity import twisted
from spans import Echelon, rank
from steps import log_steps

TAGS = ("G", "G'")


def alt_gens(ctx, root):
    """The alternating generators of the block as whole two-copy elements,
    built by multiplication: Psi_r = psi_r eps, Y_r = y_r eps and e[i]."""
    seqs = ctx.block_seqs(root)
    eps = signop.make_epsilon(ctx, root)
    Psi = {r: ctx.psi_element(r, seqs, TAGS) * eps for r in range(1, ctx.n)}
    Y = {r: ctx.y_element(r, seqs, TAGS) * eps for r in range(1, ctx.n + 1)}
    E = {s: signop.e_pair(ctx, s) for s in seqs}
    return Psi, Y, E


def acted_gens(ctx, root):
    """The same generators, as one-letter words acting on the two-copy block
    unit through `KLR.act`, read as the alternating rows read them."""
    one = signop.ambient_unit(ctx, root)

    def read(g):
        return twisted(ctx.act(g, one), (g,), alt.ALT_ODD)

    Psi = {r: read(("psi", r)) for r in range(1, ctx.n)}
    Y = {r: read(("y", r)) for r in range(1, ctx.n + 1)}
    E = {s: read(("e", s)) for s in ctx.block_seqs(root)}
    return Psi, Y, E


@pytest.fixture(scope="module")
def ctx2():
    return K.make_context(K.cycle(3), 2)


@pytest.fixture(scope="module")
def root01(ctx2):
    return K.make_root(ctx2.quiver, {0: 1, 1: 1})


def test_alt_generator_examples():
    ctx1 = K.make_context(K.cycle(3), 1)
    root = K.make_root(ctx1.quiver, {0: 1})
    want = Element(ctx1, {Mono("G", (0,), (1,), (0,)): 1,
                          Mono("G'", (0,), (1,), (0,)): -1})
    for _, Y, _ in (alt_gens(ctx1, root), acted_gens(ctx1, root)):
        assert Y[1] == want


def test_alt_generators_sign_fixed(ctx2, root01):
    Psi, Y, E = acted_gens(ctx2, root01)
    assert (len(Psi), len(Y), len(E)) == (1, 2, 2)
    for gens in (Psi, Y, E):
        for g in gens.values():
            assert K.sgn(g) == g


def test_class_idempotents_sum_to_identity(ctx2, root01):
    total = ctx2.zero()
    for s in ctx2.block_seqs(root01):
        total = total + signop.e_pair(ctx2, s)
    assert total == signop.ambient_unit(ctx2, root01)


def test_alt_basis_counts_and_rank(ctx2, root01):
    descs, elems = alt.alt_basis(ctx2, root01, 1)
    assert len(elems) == 12
    monos = ctx2.enumerate_basis(root01, 1, TAGS)
    assert len(monos) == 24
    assert rank([e.terms for e in elems], ctx2.dom) == 12
    for (w, a, s, b), el in zip(descs, elems):
        assert (length(w) + sum(a) + b) % 2 == 0  # the parity constraint
        assert K.sgn(el) == el
        assert el.degree() == ctx2.mono_degree(Mono("G", w, a, s))


def test_alt_basis_halving_all_blocks():
    for quiver in (K.cycle(3), K.path(3)):
        for n in (1, 2, 3):
            ctx = K.make_context(quiver, n)
            for root in K.root_tau_classes(quiver, ctx.tau, n).reps:
                descs, elems = alt.alt_basis(ctx, root, 2)
                monos = ctx.enumerate_basis(root, 2, TAGS)
                assert 2 * len(elems) == len(monos)
                assert rank([e.terms for e in elems], ctx.dom) == len(elems)


def sigma_fixed_dims_oracle(ctx, bound):
    """Independent oracle for the one-quiver alternating dimensions:
    dimension of the fixed space of the twisted involution, per degree,
    by exact rank of (sigma - id) on the truncated monomial basis."""
    from klrcalc.quiver import all_seqs
    tau = ctx.tau
    by_deg = {}
    for w in all_perms(ctx.n):
        for a in ctx.exponents_upto(bound):
            for s in all_seqs(ctx.quiver, ctx.n):
                m = Mono("G", w, a, s)
                by_deg.setdefault(ctx.mono_degree(m), []).append(m)
    table = {}
    for d, monos in by_deg.items():
        rows = []
        for m in monos:
            sign = (-1) ** (length(m.w) + sum(m.a))
            image = Mono("G", m.w, m.a, tau.seq(m.seq))
            row = {image: sign}
            row[m] = row.get(m, 0) - 1
            rows.append({k: v for k, v in row.items() if v})
        fixed = len(monos) - rank(rows, ctx.dom)
        if fixed:
            table[d] = fixed
    return dict(sorted(table.items()))


def test_gamma3_degree_table_and_oracle():
    ctx = K.make_context(K.cycle(3), 1)
    table = alt.alternating_dims_single(ctx, 3)
    assert table == {0: 2, 2: 1, 4: 2, 6: 1}
    assert table == sigma_fixed_dims_oracle(ctx, 3)
    full = alt.full_dims_single(ctx, 3)
    assert full == {0: 3, 2: 3, 4: 3, 6: 3}


@pytest.mark.parametrize("quiver,n,bound", [
    (K.cycle(3), 2, 2), (K.path(3), 2, 2), (K.cycle(3), 3, 1), (K.path(2), 2, 2),
])
def test_alternating_dims_match_rank_oracle(quiver, n, bound):
    ctx = K.make_context(quiver, n)
    assert alt.alternating_dims_single(ctx, bound) == \
        sigma_fixed_dims_oracle(ctx, bound)


def dims_by_listing(ctx, bound):
    """The (full, alternating) dims tables by listing every psi_w y^a e(i),
    one `mono_degree` per (w, a, i): the tables' old computation, kept as an
    oracle for their per-(w, i) sums."""
    tau = ctx.tau
    full, table = {}, {}

    def bump(t, w, a, s):
        d = ctx.mono_degree(Mono("G", w, a, s))
        t[d] = t.get(d, 0) + 1

    for w in all_perms(ctx.n):
        for a in ctx.exponents_upto(bound):
            for s in K.all_seqs(ctx.quiver, ctx.n):
                bump(full, w, a, s)
    for root in K.root_tau_classes(ctx.quiver, tau, ctx.n).reps:
        seqs = K.sequences(ctx.quiver, root)
        if tau.root(root) != root:
            for w in all_perms(ctx.n):
                for a in ctx.exponents_upto(bound):
                    for s in seqs:
                        bump(table, w, a, s)
            continue
        classes = K.tau_classes(ctx.quiver, seqs, tau)
        for w in all_perms(ctx.n):
            for a in ctx.exponents_upto(bound):
                even = (length(w) + sum(a)) % 2 == 0
                for cls, rep in zip(classes.classes, classes.reps):
                    if len(cls) == 2 or even:
                        bump(table, w, a, rep)
    return dict(sorted(full.items())), dict(sorted(table.items()))


LETTERS = K.make_quiver("letters", ["a", "b", "c"],
                        [("a", "b"), ("b", "c"), ("c", "a")],
                        {"a": "a", "b": "c", "c": "b"})


@pytest.mark.parametrize("quiver,n,bound", [
    *((K.cycle(3), n, b) for n in (1, 2, 3) for b in range(5)),
    (K.cycle(3), 4, 2), (K.path(3), 2, 3), (K.path(3), 3, 3),
    (K.cycle(4), 2, 3), (K.cycle(4), 3, 3), (K.cycle(0), 2, 3),
    (LETTERS, 2, 3),
], ids=lambda v: v.name if isinstance(v, K.Quiver) else str(v))
def test_dims_tables_match_listing(quiver, n, bound):
    ctx = K.make_context(quiver, n)
    assert (alt.full_dims_single(ctx, bound),
            alt.alternating_dims_single(ctx, bound)) == dims_by_listing(ctx, bound)


def test_dims_tables_degree_calls_do_not_grow_with_bound(monkeypatch):
    # one mono_degree per (w, i), however many exponent vectors a there are
    ctx = K.make_context(K.cycle(3), 3)
    calls = []
    mono_degree = K.KLR.mono_degree
    monkeypatch.setattr(K.KLR, "mono_degree",
                        lambda self, m: calls.append(m) or mono_degree(self, m))
    counts = []
    for bound in (2, 10):
        calls.clear()
        alt.full_dims_single(ctx, bound)
        alt.alternating_dims_single(ctx, bound)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_express_word_shapes(ctx2, root01):
    desc = ((1, 0), (2, 1), (0, 1), 0)  # l(w) + |a| = 4 even forces b = 0
    word = alt.express_alt(ctx2, desc)
    assert word == [("psi", 1), ("y", 1), ("y", 1), ("y", 2), ("e", (0, 1))]
    assert alt.express_alt(ctx2, ((0, 1), (0, 0), (0, 1), 0)) == [("e", (0, 1))]
    # the realized word reproduces the basis element with scalar one
    w, a, s, _b = desc
    el = Element(ctx2, {Mono("G", w, a, s): 1, Mono("G'", w, a, s): 1})
    Psi, Y, E = alt_gens(ctx2, root01)
    gens = {"psi": Psi, "y": Y}
    got = E[word[-1][1]]
    for kind, index in reversed(word[:-1]):
        got = gens[kind][index] * got
    assert got == el

    # and so do its letters, acting on the block unit, read with ALT_ODD
    def read(word):
        got = signop.ambient_unit(ctx2, root01)
        for g in reversed(word):
            got = ctx2.act(g, got)
        return got, twisted(got, tuple(word), alt.ALT_ODD)

    assert read(word) == (el, el)
    # an odd word: its plain value is psi_1 e[i], its reading psi_1 eps e[i]
    odd = alt.express_alt(ctx2, ((1, 0), (0, 0), (0, 1), 1))
    plain, got = read(odd)
    assert got == Element(ctx2, {Mono("G", (1, 0), (0, 0), (0, 1)): 1,
                                 Mono("G'", (1, 0), (0, 0), (0, 1)): -1})
    assert plain == Psi[1] * (E[(0, 1)] * signop.make_epsilon(ctx2, root01))
    assert plain != got


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_streamed_basis_is_alt_basis(bound):
    ctx = K.make_context(K.cycle(3), 3)
    for root in K.all_roots(ctx.quiver, 3):
        descs, elems = alt.alt_basis(ctx, root, bound)
        streamed = list(alt.iter_alt_basis(ctx, root, bound))
        assert [desc for desc, _ in streamed] == descs
        assert [el.terms for _, el in streamed] == [el.terms for el in elems]
        # the same terms in the same order
        assert [list(el.terms) for _, el in streamed] == \
            [list(el.terms) for el in elems]


def test_express_coverage_reads_no_degree(monkeypatch):
    ctx = K.make_context(K.cycle(3), 3)
    roots = K.all_roots(ctx.quiver, 3)

    def refuse(self, m):
        raise AssertionError("express coverage built a degree table")

    # the presentation checks' degree rows call mono_degree; express
    # coverage walks the basis without one
    monkeypatch.setattr(K.KLR, "mono_degree", refuse)
    counts = [sum(1 for row in alt.iter_express_coverage(ctx, root, 2)
                  if row["status"] == "pass") for root in roots]
    monkeypatch.undo()
    assert counts == [len(alt.alt_basis(ctx, root, 2)[1]) for root in roots]


def test_express_coverage_small(ctx2, root01):
    rows = alt.express_coverage(ctx2, root01, 1)
    assert rows and all(r["status"] == "pass" for r in rows)


def test_express_coverage_shares_suffixes(monkeypatch):
    # one psi action per non-identity permutation w, per y^a and per e[i]:
    # each canonical word extends its parent's by one letter, so a word's
    # value is one letter on the value of its suffix.  No letter acts
    # through `KLR.act`
    ctx = K.make_context(K.cycle(3), 3)
    root = K.make_root(ctx.quiver, {0: 1, 1: 1, 2: 1})
    log = log_steps(monkeypatch)
    acts = []
    act = K.KLR.act
    monkeypatch.setattr(K.KLR, "act", lambda self, g, x: acts.append(g) or
                        act(self, g, x))
    rows = alt.express_coverage(ctx, root, 1)
    assert rows and all(r["status"] == "pass" for r in rows)
    assert sum(kind == "psi" for kind, _ in log) == (6 - 1) * len(ctx.exponents_upto(1)) \
        * len(ctx.block_seqs(root)) == 120
    assert acts == []


def test_presentation_paper_instances(ctx2, root01):
    Psi, Y, E = alt_gens(ctx2, root01)
    e01 = E[(0, 1)]
    # edge 0 -> 1: Psi_1^2 e[(0,1)] = (Y_1 - Y_2) e[(0,1)]
    assert Psi[1] * (Psi[1] * e01) == (Y[1] - Y[2]) * e01

    sym = K.make_root(ctx2.quiver, {0: 2})
    Psi2, Y2, E2 = alt_gens(ctx2, sym)
    e00 = E2[(0, 0)]
    assert Psi2[1] * (Y2[2] * e00) == Y2[1] * (Psi2[1] * e00) + e00


def test_presentation_braid_instance():
    ctx = K.make_context(K.cycle(3), 3)
    root = K.make_root(ctx.quiver, {0: 2, 1: 1})
    Psi, Y, E = alt_gens(ctx, root)
    e010 = E[(0, 1, 0)]
    lhs = Psi[1] * (Psi[2] * (Psi[1] * e010))
    rhs = Psi[2] * (Psi[1] * (Psi[2] * e010)) - e010
    assert lhs == rhs


def test_presentation_full_sweep_n2():
    ctx = K.make_context(K.cycle(3), 2)
    for root in K.root_tau_classes(ctx.quiver, ctx.tau, 2).reps:
        rows, notes = alt.verify_alt_presentation(ctx, root)
        assert all(r["status"] == "pass" for r in rows)
        assert notes


def test_component_split_of_quadratic_and_braid(ctx2, root01):
    # the two tagged components of each side agree separately: the ambient
    # check on e[i] sums both orientations
    Psi, Y, E = alt_gens(ctx2, root01)

    def split(x):
        g = {m: c for m, c in x.terms.items() if m.tag == "G"}
        o = {m: c for m, c in x.terms.items() if m.tag == "G'"}
        return Element(ctx2, g), Element(ctx2, o)

    for i in ctx2.block_seqs(root01):
        lhs = Psi[1] * (Psi[1] * E[i])
        u, v = i[0], i[1]
        if ctx2.quiver.has_edge(u, v):
            rhs = (Y[1] - Y[2]) * E[i]
        elif ctx2.quiver.has_edge(v, u):
            rhs = (Y[2] - Y[1]) * E[i]
        else:
            rhs = E[i]
        for a, b in zip(split(lhs), split(rhs)):
            assert a == b


def test_generator_degrees(ctx2, root01):
    Psi, Y, E = acted_gens(ctx2, root01)
    assert Y[1].degree() == 2
    assert E[(0, 1)].degree() == 0
    # cartan entry -1 on the edge
    assert ctx2.act(("psi", 1), E[(0, 1)]).degree() == 1
    assert (Psi[1] * E[(0, 1)]).degree() == 1


@pytest.mark.parametrize("n", [2, 3])
def test_letters_act_as_their_generators(n):
    # differential: each letter of the two-copy realisation, acting on a
    # basis monomial and read as a one-letter word by the alternating and the
    # signed rows, against left multiplication by its whole generator
    ctx = K.make_context(K.cycle(3), n)
    for root in K.all_roots(ctx.quiver, n):
        seqs = ctx.block_seqs(root)
        eps = signop.make_epsilon(ctx, root)
        gens = [(("psi", r), ctx.psi_element(r, seqs, TAGS)) for r in range(1, n)]
        gens += [(("y", r), ctx.y_element(r, seqs, TAGS)) for r in range(1, n + 1)]
        # (letter of a word, letter it resolves to, odd kinds, generator)
        cases = [(g, g, alt.ALT_ODD, G * eps) for g, G in gens]
        cases += [(g, g, odd, G) for g, G in gens for odd in alt.SIGNED_ODD.values()]
        for j in seqs:
            e = ("e", j)
            cases += [(letter, e, alt.ALT_ODD, signop.e_pair(ctx, j))
                      for letter in (e, E, F, ("swap", 1))]
            # in the rows of (i, a), E and SWAP read eps_a and F eps_-a
            for a, odd in alt.SIGNED_ODD.items():
                cases += [(E, e, odd, alt.signed_eps(ctx, j, a)),
                          (("swap", 1), e, odd, alt.signed_eps(ctx, j, a)),
                          (F, e, odd, alt.signed_eps(ctx, j, "-" if a == "+" else "+"))]
        for m in ctx.enumerate_basis(root, 1, TAGS):
            x = Element(ctx, {m: 1})
            for letter, g, odd, G in cases:
                assert twisted(ctx.act(g, x), (letter,), odd) == G * x, (letter, m)


def test_presentations_act_without_multiply(monkeypatch):
    # express coverage and both presentations' relation tables act letter
    # by letter; no whole generator element is multiplied
    ctx = K.make_context(K.cycle(3), 3)

    def refuse(self, x, y):
        raise AssertionError("multiplied whole elements")

    monkeypatch.setattr(K.KLR, "multiply", refuse)
    for root in K.all_roots(ctx.quiver, 3):
        assert all(row["status"] == "pass"
                   for row in alt.iter_express_coverage(ctx, root, 1))
        labels = [(i, i, signop.e_pair(ctx, i)) for i in ctx.block_seqs(root)]
        for views, bare in (
                (((None, alt.ALT_ODD),), ({"y y"}, signop.ambient_unit(ctx, root))),
                (tuple(alt.SIGNED_ODD.items()), None)):
            assert all(diff is None for *_, diff in
                       relation_instances(labels, 3, views, bare))


def test_dims_complete_window():
    ctx = K.make_context(K.cycle(3), 1)
    assert alt.dims_complete_window(ctx, 6) == 12
    ctx3 = K.make_context(K.cycle(3), 3)
    assert alt.dims_complete_window(ctx3, 4) == 2


def test_truncated_span_closed_under_multiplication(ctx2, root01):
    # products of truncated basis elements re-expand with parity-consistent
    # terms only, inside the span of a larger truncation
    _, small = alt.alt_basis(ctx2, root01, 1)
    _, big = alt.alt_basis(ctx2, root01, 4)
    big_span = Echelon(ctx2.dom, [e.terms for e in big])
    for x in small:
        for y in small:
            z = x * y
            assert K.sgn(z) == z
            if not z.is_zero():
                assert not big_span.reduce(z.terms)


def test_symmetric_block_note_logged():
    ctx = K.make_context(K.cycle(3), 2)
    sym = K.make_root(ctx.quiver, {0: 2})
    _, notes = alt.verify_alt_presentation(ctx, sym)
    assert any("tag-swap classes vs" in n for n in notes)
