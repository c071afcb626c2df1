"""The rewrite engine: relations, degrees, products, basis enumeration."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from operator import add

import pytest

import klrcalc as K
from klrcalc import suites
from klrcalc.algebra import (KLR, TAGS_BOTH, E, Element, Mono, SuffixProgram,
                             _acc, _acc1, _LIMIT, _MAX_N, _STEM)
from klrcalc.cli import main
from klrcalc.perms import act, all_perms, canonical_word, left_mul_s, length
from klrcalc.scalars import PrimeField
from klrcalc.suites import random_element
from spans import inv
from steps import log_steps
from test_blocks import negate_three_letter_products
from words import fold


@pytest.fixture(scope="module")
def c3():
    return K.make_context(K.cycle(3), 2)


@pytest.fixture(scope="module")
def c3n3():
    return K.make_context(K.cycle(3), 3)


def test_degree_examples():
    ctx1 = K.KLR(K.cycle(3), 1)
    assert ctx1.mono_degree(Mono("G", (0,), (1,), (0,))) == 2
    ctx2 = K.KLR(K.cycle(3), 2)
    s1 = (1, 0)
    assert ctx2.mono_degree(Mono("G", s1, (0, 0), (0, 0))) == -2
    assert ctx2.mono_degree(Mono("G", s1, (0, 0), (0, 1))) == 1
    # degree additivity over the monomial parts
    assert ctx2.mono_degree(Mono("G", s1, (2, 1), (0, 1))) == 1 + 6


def test_left_mul_examples(c3, c3n3):
    psi1 = c3.psi_element(1)
    assert psi1 * (psi1 * c3.e((0, 0))) == c3.zero()
    want = c3.act(("y", 1), c3.e((0, 1))) - c3.act(("y", 2), c3.e((0, 1)))
    assert psi1 * (psi1 * c3.e((0, 1))) == want

    got = fold(c3, [("y", 2), ("psi", 1)], c3.e((0, 0)))
    want = Element(c3, {Mono("G", (1, 0), (1, 0), (0, 0)): 1,
                        Mono("G", (0, 1), (0, 0), (0, 0)): 1})
    assert got == want

    # psi_1 psi_2 psi_1 e(0,1,0) = psi_2 psi_1 psi_2 e(0,1,0) - e(0,1,0)
    e010 = c3n3.e((0, 1, 0))
    lhs = fold(c3n3, [("psi", 1), ("psi", 2), ("psi", 1)], e010)
    rhs = fold(c3n3, [("psi", 2), ("psi", 1), ("psi", 2)], e010) - e010
    assert lhs == rhs


def test_e_letter_and_bad_indices(c3):
    # ("e", j) keeps the terms of face j on both tags
    m = c3.e((0, 1)) + c3.e((0, 1), "G'")
    assert c3.act(("e", (0, 1)), m) == m
    assert c3.act(("e", (1, 0)), m) == c3.zero()
    x = c3.psi_element(1, [(0, 1), (1, 0)], TAGS_BOTH)
    assert c3.act(("e", (0, 1)), x) == c3.psi_element(1, [(1, 0)], TAGS_BOTH)
    for bad in (lambda: c3.psi_element(2), lambda: c3.psi_element(0),
                lambda: c3.y_element(0), lambda: c3.y_element(3)):
        with pytest.raises(K.BadGeneratorError):
            bad()


def test_idempotent_products_and_unit(c3):
    e01 = c3.e((0, 1))
    assert e01 * e01 == e01
    assert e01 * c3.e((1, 0)) == c3.zero()
    one = c3.unit()
    rng = random.Random(5)
    for _ in range(30):
        x = random_element(c3, rng)
        assert one * x == x
        assert x * one == x


def test_multiply_shape_errors(c3):
    other = K.KLR(K.cycle(3), 3)
    with pytest.raises(K.ShapeError):
        c3.multiply(c3.unit(), other.unit())
    with pytest.raises(K.ShapeError):
        c3.e((0, 1, 2))


def test_block_idempotent_is_central(c3):
    q = K.cycle(3)
    root = K.make_root(q, {0: 1, 1: 1})
    blk = c3.unit(c3.block_seqs(root))
    assert blk == c3.e((0, 1)) + c3.e((1, 0))
    rng = random.Random(11)
    seqs = c3.block_seqs(root)
    for _ in range(100):
        x = random_element(c3, rng, seqs)
        assert x * blk == blk * x == x
    # central against arbitrary elements of the whole rank, not just the block
    for _ in range(100):
        x = random_element(c3, rng)
        assert x * blk == blk * x


def test_associativity_fuzz(c3n3):
    checked, failure = suites.associativity_fuzz(c3n3, 200, seed=2)
    assert failure is None and checked == 200


def test_rewrite_strategy_agreement(c3n3):
    checked, failure = suites.strategy_fuzz(c3n3, 150, seed=9)
    assert failure is None


def test_degree_additive_on_products(c3n3):
    rng = random.Random(21)
    seqs = K.all_seqs(c3n3.quiver, 3)
    for _ in range(50):
        m1 = suites.random_mono(c3n3, rng, seqs)
        m2 = suites.random_mono(c3n3, rng, seqs)
        x = Element(c3n3, {m1: 1})
        y = Element(c3n3, {m2: 1})
        z = x * y
        if not z.is_zero():
            assert z.degree() == x.degree() + y.degree()


def mono_pair(ctx, m1, m2) -> dict:
    """m1 m2 by its definition: zero unless m2's face carries m1's tag and
    sequence, else m1's letters act on m2 one by one through `KLR.act`, y^a
    first and then psi_w right to left."""
    if m1.tag != m2.tag or m1.seq != ctx.mono_face(m2):
        return {}
    x = Element(ctx, {m2: ctx.dom.one})
    for r, k in enumerate(m1.a, start=1):
        for _ in range(k):
            x = ctx.act(("y", r), x)
    for c in reversed(canonical_word(m1.w)):
        x = ctx.act(("psi", c), x)
    return x.terms


def all_pairs_product(ctx, x, y) -> dict:
    """x y by its definition: every term pair, in order, through mono_pair."""
    dom = ctx.dom
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            for m, c in mono_pair(ctx, m1, m2).items():
                s = dom.add(out.get(m, dom.from_int(0)), dom.mul(dom.mul(c1, c2), c))
                if dom.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
    return out


@pytest.mark.parametrize("field", ["Q", "Fp:5"])
def test_multiply_matches_all_pairs_definition(field):
    dom = K.domain_from_flag(field)
    q = K.cycle(3)
    seqs = [s for content in ({0: 1, 1: 1, 2: 1}, {0: 2, 1: 1})
            for s in K.sequences(q, K.make_root(q, content))]
    ctx = K.make_context(q, 3, dom)
    rng = random.Random(17)
    meeting = missing = 0
    for _ in range(300):
        x = random_element(ctx, rng, seqs, (K.TAG_MAIN, K.TAG_OPP), max_terms=6)
        y = random_element(ctx, rng, seqs, (K.TAG_MAIN, K.TAG_OPP), max_terms=6)
        for m1 in x.terms:
            for m2 in y.terms:
                if (m1.tag, m1.seq) == (m2.tag, ctx.mono_face(m2)):
                    meeting += 1
                else:
                    missing += 1
        want = all_pairs_product(K.make_context(q, 3, dom), x, y)
        # term for term and in the same order
        assert list((x * y).terms.items()) == list(want.items())
    assert meeting > 100 and missing > 1000

    # cancelling terms: psi_1^2 e(0,1,2) is y_1 - y_2 up to sign, and a
    # y_1 term of x on the same idempotent cancels its y_1 part
    i = (0, 1, 2)
    psi = Mono("G", (1, 0, 2), (0, 0, 0), (1, 0, 2))
    y1 = Mono("G", (0, 1, 2), (1, 0, 0), i)
    m2 = Mono("G", (1, 0, 2), (0, 0, 0), i)
    square = ctx.multiply(Element(ctx, {psi: 1}), Element(ctx, {m2: 1}))
    assert set(square.terms) == {y1, Mono("G", (0, 1, 2), (0, 1, 0), i)}
    x = ctx.elem({psi: dom.one, y1: dom.neg(square.terms[y1])})
    y = ctx.elem({m2: dom.one, Mono("G", (0, 1, 2), (0, 0, 0), i): dom.one})
    got = x * y
    assert list(got.terms) == [Mono("G", (0, 1, 2), (0, 1, 0), i)]
    assert list(got.terms.items()) == list(
        all_pairs_product(ctx, x, y).items())


def test_rewrite_memo_is_exponent_free():
    q = K.cycle(3)
    ctx = K.make_context(q, 3)
    root = K.make_root(q, {0: 2, 1: 1})
    suites._sweep_block(ctx, root, 2)
    seqs = set(ctx.block_seqs(root))
    perm_set = set(all_perms(3))
    assert ctx._y_cache and ctx._psi_cache
    # the one-letter tables are keyed by (letter << 32) | stem, and a stem
    # is the exponent-free part (tag, w, seq) of a monomial
    for table, letters in ((ctx._y_cache, range(1, 4)), (ctx._psi_cache, range(1, 3))):
        for key in table:
            assert key >> 32 in letters
            tag, w, seq = ctx._stems[key & _STEM]
            assert w in perm_set and seq in seqs and tag in TAGS_BOTH
    # the exponents live in the memoised products, in the fields above the
    # stem bits: an exponent-free monomial is keyed by its stem id alone
    assert all(ctx._key(Mono(*stem[:2], (0, 0, 0), stem[2])) == k
               for k, stem in enumerate(ctx._stems))
    for table in (ctx._y_cache, ctx._psi_cache):
        assert any(k > _STEM for out in table.values() for k in out)


def test_rewrite_memo_is_the_one_letter_products():
    # the rewrite core keeps no table beside its two one-letter products: a
    # product of longer words is folded from them, letter by letter
    q = K.cycle(3)
    ctx = K.make_context(q, 3)
    suites._sweep_block(ctx, K.make_root(q, {0: 2, 1: 1}), 2)
    entries = sum(len(table) for name, table in vars(ctx).items()
                  if name.endswith("_cache"))
    assert entries == len(ctx._y_cache) + len(ctx._psi_cache) > 0


def test_each_one_letter_product_is_computed_once_per_context(monkeypatch):
    # a context keeps every one-letter product it computes, so a block's
    # sweep computes each once: n y and n - 1 psi products per stem.  A
    # context binds both products into its steps when it is built, so they
    # are counted from before it exists
    calls = Counter()

    def counted(name):
        product = getattr(KLR, name)

        def wrapper(self, g, stem):
            calls[name] += 1
            return product(self, g, stem)
        return wrapper

    for name in ("_y_stem", "_psi_stem"):
        monkeypatch.setattr(KLR, name, counted(name))
    q = K.cycle(3)
    ctx = K.make_context(q, 3)
    suites._sweep_block(ctx, K.make_root(q, {0: 2, 1: 1}), 2)
    stems = len(ctx._stems)
    assert calls["_y_stem"] == len(ctx._y_cache) == 3 * stems == 54
    assert calls["_psi_stem"] == len(ctx._psi_cache) == 2 * stems == 36


def _leading_term_cases():
    for q in (K.cycle(3), K.path(3)):
        for n in (1, 2, 3):
            for root in K.all_roots(q, n):
                yield q, n, root
    q = K.cycle(3)
    yield q, 4, K.make_root(q, {0: 2, 1: 1, 2: 1})


def test_one_letter_products_have_their_leading_terms():
    # the rewrite core subtracts psi_w e(i) from psi_r psi_{s_r w} e(i) for
    # a left descent r of w, so it relies on each product's leading term:
    # psi_r psi_w e(i) is psi_{s_r w} e(i) plus shorter terms when r is not
    # a left descent, shorter than w when it is, and y_s psi_w e(i) is
    # psi_w y_t e(i) plus shorter terms, t - 1 = w^-1(s - 1)
    checked = 0
    for q, n, root in _leading_term_cases():
        ctx = K.make_context(q, n)
        one, zero = ctx.dom.one, (0,) * n
        for tag, w, seq in itertools.product(TAGS_BOTH, all_perms(n),
                                             ctx.block_seqs(root)):
            x = Element(ctx, {Mono(tag, w, zero, seq): one})
            for r in range(1, n):
                terms = dict(ctx.act(("psi", r), x).terms)
                v = left_mul_s(r, w)
                if length(v) > length(w):
                    assert terms.pop(Mono(tag, v, zero, seq)) == one
                assert all(length(m.w) < max(length(v), length(w))
                           for m in terms)
            for s in range(1, n + 1):
                terms = dict(ctx.act(("y", s), x).terms)
                a = tuple(int(k == w.index(s - 1)) for k in range(n))
                assert terms.pop(Mono(tag, w, a, seq)) == one
                assert all(length(m.w) < length(w) for m in terms)
            checked += 1
    # per tag: the 3^n sequences of each quiver at n <= 3 times n!, and the
    # n = 4 block's 12 sequences times 4!
    assert checked == 2 * (2 * (3 + 9 * 2 + 27 * 6) + 12 * 24) == 1308


def test_cold_products_on_the_longest_word_nest_within_the_stack():
    # each product takes one relation step and calls products on shorter
    # stems, so at n = 9 psi_r and y_r on a cold psi_{w0} e(i) nest 37
    # products deep; each comes out homogeneous of the right degree
    n = 9
    ctx = K.make_context(K.cycle(3), n)
    w0, seq = tuple(range(n - 1, -1, -1)), tuple(k % 3 for k in range(n))
    x = Element(ctx, {Mono("G", w0, (0,) * n, seq): ctx.dom.one})
    face = act(w0, seq)
    for g in [("psi", 1), ("y", 1), ("psi", n - 1), ("y", n)]:
        r = g[1]
        shift = 2 if g[0] == "y" else -ctx.quiver.cartan_entry(face[r - 1], face[r])
        assert ctx.act(g, x).degree() == x.degree() + shift


def shifted(x, b) -> list:
    """The terms of x times y^b, in x's order."""
    return [(Mono(m.tag, m.w, tuple(p + q for p, q in zip(m.a, b)), m.seq), c)
            for m, c in x.terms.items()]


@pytest.mark.parametrize("field", ["Q", "Fp:5"])
def test_products_commute_with_right_y_shift(field):
    """psi_w y^(a+b) e(i) = (psi_w y^a e(i)) y^b, so a left product of the
    first is the b-shift of the same product of the second; each side is
    computed on a fresh context, so no memo is shared between them."""
    dom = K.domain_from_flag(field)
    q = K.cycle(3)
    seqs = [s for content in ({0: 1, 1: 1, 2: 1}, {0: 2, 1: 1})
            for s in K.sequences(q, K.make_root(q, content))]
    tags = (K.TAG_MAIN, K.TAG_OPP)
    rng = random.Random(23)
    shifts = nonzero = 0
    for _ in range(60):
        m = suites.random_mono(K.make_context(q, 3, dom), rng, seqs, tags)
        b = tuple(rng.randint(0, 2) for _ in range(3))
        shifts += any(b)
        mb = Mono(m.tag, m.w, tuple(p + q for p, q in zip(m.a, b)), m.seq)
        gen = rng.choice([("psi", 1), ("psi", 2), ("y", 1), ("y", 2), ("y", 3),
                          ("e", act(m.w, m.seq))])
        ctx, ctx_b = K.make_context(q, 3, dom), K.make_context(q, 3, dom)
        got = ctx_b.act(gen, Element(ctx_b, {mb: dom.one}))
        assert list(got.terms.items()) == shifted(
            ctx.act(gen, Element(ctx, {m: dom.one})), b)
        ctx, ctx_b = K.make_context(q, 3, dom), K.make_context(q, 3, dom)
        # every term of x ends on m's face, so its products are not zero by a mismatch
        x = random_element(ctx, rng, [act(m.w, m.seq)], (m.tag,), max_terms=4)
        got = ctx_b.multiply(Element(ctx_b, x.terms), Element(ctx_b, {mb: dom.one}))
        assert list(got.terms.items()) == shifted(
            ctx.multiply(x, Element(ctx, {m: dom.one})), b)
        nonzero += bool(got.terms)
    assert shifts > 40 and nonzero > 40


def test_enumerate_basis_counts():
    q = K.cycle(3)
    ctx1 = K.KLR(q, 1)
    total = 0
    for v in q.vertices:
        monos = ctx1.enumerate_basis(K.make_root(q, {v: 1}), 3)
        total += len(monos)
        degrees = Counter(map(ctx1.mono_degree, monos))
        assert degrees == {0: 1, 2: 1, 4: 1, 6: 1}
    assert total == 12  # y^k e(i), k <= 3, i in I

    ctx2 = K.KLR(q, 2)
    root = K.make_root(q, {0: 1, 1: 1})
    monos = ctx2.enumerate_basis(root, 1)
    assert len(monos) == 2 * 2 * 3  # perms * sequences * exponent vectors
    monos0 = ctx2.enumerate_basis(root, 0)
    assert len(monos0) == 2 * 2


def test_enumerate_basis_reads_no_degree(monkeypatch):
    def refuse(self, m):
        raise AssertionError("enumerate_basis built a degree table")

    monkeypatch.setattr(K.KLR, "mono_degree", refuse)
    ctx = K.KLR(K.cycle(3), 2)
    monos = ctx.enumerate_basis(K.make_root(ctx.quiver, {0: 1, 1: 1}), 2,
                                TAGS_BOTH)
    assert len(monos) == 2 * 2 * 2 * 6  # tags * perms * sequences * exponents


def test_basis_monomials_distinct_and_products_stay_in_shape(c3):
    root = K.make_root(K.cycle(3), {0: 1, 1: 1})
    monos = c3.enumerate_basis(root, 2)
    assert len(set(monos)) == len(monos)
    rng = random.Random(3)
    for _ in range(40):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        prod = Element(c3, {m1: 1}) * Element(c3, {m2: 1})
        for m in prod.terms:
            assert len(m.w) == 2 and len(m.a) == 2
            assert canonical_word(m.w) is not None
            assert K.root_of_seq(c3.quiver, m.seq) == root
            assert m.tag == "G"


def test_relation_sweep_small_blocks():
    for quiver in (K.cycle(3), K.path(3)):
        ctx = K.KLR(quiver, 2)
        for root in K.all_roots(quiver, 2):
            rows = suites._sweep_block(ctx, root, 2)
            bad = [r for r in rows if r["status"] != "pass"]
            assert not bad, bad


@pytest.mark.parametrize("quiver", ["cycle", "path"])
def test_relation_sweep_runs_every_letter_action(quiver, monkeypatch):
    # every letter of every relation word acts once per label, as one step
    # of the engine's step loop
    log = log_steps(monkeypatch)
    q = K.cycle(3) if quiver == "cycle" else K.path(3)
    for root in K.all_roots(q, 3):
        suites._sweep_block(K.make_context(q, 3), root, 1)
    assert Counter(kind for kind, _ in log) == {"e": 3240, "y": 9720, "psi": 9072}


def _acc_by_terms(out, src, scale, dom, a=None):
    """The reference merge: each term of src y^a merged on its own."""
    for m, c in src.items():
        if a is not None:
            m = m._replace(a=tuple(map(add, m.a, a)))
        _acc1(out, m, dom.mul(scale, c), dom)


def _coefficient(rng, dom):
    """A canonical coefficient, 0 included, and in Q sometimes a fraction."""
    if dom.char == 0 and rng.random() < 0.2:
        return Fraction(rng.choice([-3, -1, 1, 3]), 2)
    return dom.from_int(rng.randint(-3, 3))


def _random_mono(rng, n=3):
    return Mono(rng.choice(TAGS_BOTH), rng.choice(list(all_perms(n))),
                tuple(rng.randint(0, 2) for _ in range(n)),
                tuple(rng.randint(0, 2) for _ in range(n)))


@pytest.mark.parametrize("dom", [K.Rationals(), PrimeField(5)], ids=["Q", "F5"])
def test_acc_matches_a_term_by_term_merge(dom):
    # `_acc` merges packed terms; both sides are Mono dicts, encoded for it
    # and decoded after
    ctx = K.KLR(K.cycle(3), 3, dom)
    rng = random.Random(11)
    cases = cancelled = zero_in_src = 0
    for _ in range(20):
        src = {_random_mono(rng): _coefficient(rng, dom)
               for _ in range(rng.randint(0, 8))}
        for scale in map(dom.from_int, (0, 1, -1, 2)):
            # a target, which holds no zero, that meets some terms and
            # cancels some
            start = {_random_mono(rng): _coefficient(rng, dom) for _ in range(3)}
            for m, c in src.items():
                if rng.random() < 0.5:
                    start[m] = (dom.neg(dom.mul(scale, c)) if rng.random() < 0.5
                                else _coefficient(rng, dom))
            start = {m: c for m, c in start.items() if not dom.is_zero(c)}
            for out in ({}, start):
                got, want = ctx._encode(out), dict(out)
                packed = ctx._encode(src)
                before = dict(packed)
                _acc(got, packed, scale, dom)
                got = ctx._decode(got)
                _acc_by_terms(want, src, scale, dom)
                assert list(got.items()) == list(want.items())
                assert packed == before
                assert not any(dom.is_zero(c) for c in got.values())
                cases += 1
                cancelled += any(m not in got for m in out)
                zero_in_src += any(dom.is_zero(c) for c in src.values())
    assert cases == 20 * 4 * 2
    assert cancelled and zero_in_src


@pytest.mark.parametrize("dom", [K.Rationals(), PrimeField(5)], ids=["Q", "F5"])
def test_step_loop_matches_a_term_by_term_oracle(dom):
    # the step loop on many terms, with coefficients other than one, against
    # an oracle on a fresh context: each monomial's exponent-free product,
    # shifted by its y^a, scaled and merged on its own (`_acc_by_terms`).
    # The values and their term order agree.  Each input holds two monomials
    # whose products share a term, with coefficients that cancel it
    q = K.cycle(3)
    ctx = K.KLR(q, 3, dom)
    oracle = K.KLR(q, 3, dom)
    zero = (0, 0, 0)
    rng = random.Random(5)
    monos = [Mono(tag, w, a, i) for tag in TAGS_BOTH for w in all_perms(3)
             for a in (zero, (1, 0, 0), (0, 1, 0), (0, 0, 1))
             for i in ((0, 1, 1), (1, 0, 1), (0, 0, 0), (0, 1, 0))]
    cases = cancelled = 0
    for g in (("psi", 1), ("psi", 2), ("y", 1), ("y", 2), ("y", 3)):
        products = {m: oracle.act(g, Element(oracle, {m: dom.one})).terms
                    for m in monos}
        pairs = [(m1, m2, t) for m1, m2 in itertools.combinations(monos, 2)
                 for t in products[m1].keys() & products[m2].keys()]
        for m1, m2, t in rng.sample(pairs, 10):
            k = dom.from_int(rng.choice([1, 2, -3]))
            terms = {m1: dom.mul(k, products[m2][t]),
                     m2: dom.neg(dom.mul(k, products[m1][t]))}
            for m in rng.sample(monos, 3):
                terms.setdefault(m, _coefficient(rng, dom))
            terms = {m: c for m, c in terms.items() if not dom.is_zero(c)}
            want = {}
            for m, c in terms.items():
                p = oracle.act(g, Element(oracle, {m._replace(a=zero): dom.one}))
                _acc_by_terms(want, p.terms, c, dom, m.a)
            packed = ctx._encode(terms)
            before = dict(packed)
            got = ctx._decode(ctx._run_steps([ctx._resolve(g)], packed)[1])
            assert list(got.items()) == list(want.items())
            assert packed == before
            cases += 1
            cancelled += t not in got
    assert cases == 50 and cancelled > 25
    # a chain of steps, each on the slot before it, as `multiply` and
    # `_fold` run them, against one letter at a time on a fresh context
    letters = [("y", 2), ("psi", 1), ("psi", 2), ("y", 1), ("psi", 1)]
    x = {m: _coefficient(rng, dom) for m in rng.sample(monos, 12)}
    x = {m: c for m, c in x.items() if not dom.is_zero(c)}
    values = ctx._run_steps([ctx._resolve(g, t) for t, g in enumerate(letters)],
                            ctx._encode(x))
    want = oracle.elem(x)
    for g in letters:
        want = oracle.act(g, want)
    assert len(values) == len(letters) + 1
    assert list(ctx._decode(values[-1]).items()) == list(want.terms.items())


def test_sweep_sees_a_fault_in_the_key_decoding(monkeypatch):
    # a seeded fault in the packed term keys: decoding reads the exponent
    # fields in reverse order.  The relation rows compare packed values, so
    # only the row that compares a decoded product with its factor fails
    decode = KLR._decode
    monkeypatch.setattr(KLR, "_decode", lambda self, terms: {
        m._replace(a=m.a[::-1]): c for m, c in decode(self, terms).items()})
    q = K.cycle(3)
    failing = Counter(row["relation"] for root in K.all_roots(q, 3)
                      for row in suites._sweep_block(K.make_context(q, 3), root, 1)
                      if row["status"] == "fail")
    assert failing == {"sum_i e(i) acts as identity": 10}


def test_packed_exponents_add_as_vectors():
    # the shift by y^a is one integer add: over a window of exponents, every
    # entry 0..2 or at the limit less one, the key of m plus y_r's offset
    # decodes to m with a + e_r, and an entry that would reach the limit is
    # refused, never carried into the next field
    ctx = K.make_context(K.cycle(3), 3)
    stem = ("G", (1, 0, 2), (0, 1, 2))
    for a in itertools.product((0, 1, 2, _LIMIT - 1), repeat=3):
        key = ctx._key(Mono(stem[0], stem[1], a, stem[2]))
        for r in range(3):
            b = tuple(v + (k == r) for k, v in enumerate(a))
            if b[r] < _LIMIT:
                assert list(ctx._decode({key + ctx._unit_e[r]: 1})) == [
                    Mono(stem[0], stem[1], b, stem[2])]
            else:
                with pytest.raises(K.ShapeError):
                    ctx._decode({key + ctx._unit_e[r]: 1})


def test_exponents_past_the_limit_are_refused():
    ctx = K.make_context(K.cycle(3), 2)
    x = ctx.elem({Mono("G", (0, 1), (_LIMIT, 0), (0, 1)): 1})
    y = ctx.e((0, 1))
    for call in (lambda: ctx.act(("y", 1), x), lambda: x * y, lambda: y * x,
                 lambda: list(ctx.act_words([(("y", 1),)], [x])),
                 lambda: list(ctx.act_words([(("y", 1),) * _LIMIT], [y]))):
        with pytest.raises(K.ShapeError):
            call()
    with pytest.raises(K.ShapeError):  # a stem could pass 2^13 letters
        K.KLR(K.cycle(3), _MAX_N + 1)
    # an entry at the limit less one is admitted, and one more y is refused
    top = ctx.elem({Mono("G", (0, 1), (_LIMIT - 1, 0), (0, 1)): 1})
    assert ctx.act(("y", 2), top) == ctx.elem(
        {Mono("G", (0, 1), (_LIMIT - 1, 1), (0, 1)): 1})
    with pytest.raises(K.ShapeError):
        ctx.act(("y", 1), top)


def test_long_powers_still_print(capsys):
    assert main(["nf", "--n", "2", "y[1]^64"]) == 0
    assert capsys.readouterr().out.startswith("y[1]^64*e(0,0)@G + ")
    assert main(["mul", "--n", "2", "y[1]^64", "y[1]^64"]) == 0
    assert capsys.readouterr().out.startswith("y[1]^128*e(0,0)@G + ")


def _keyed_by_mono(x: Element) -> bool:
    return all(type(m) is Mono and m.tag in TAGS_BOTH and len(m.w) == len(m.a)
               == len(m.seq) == x.ctx.n and type(m.a) is tuple for m in x.terms)


@pytest.mark.parametrize("field", ["Q", "Fp:5"])
def test_public_results_are_keyed_by_mono(field, monkeypatch):
    # packed term keys never leave the engine: every Element that `act`,
    # `multiply`, the relation rows' diffs and express coverage's
    # diffs hand out is keyed by `Mono`s, on both tags, also where a product's
    # terms cancel
    from klrcalc import alternating as alt
    dom = K.domain_from_flag(field)
    q = K.cycle(3)
    ctx = K.make_context(q, 3, dom)
    root = K.make_root(q, {0: 2, 1: 1})
    seqs = ctx.block_seqs(root)
    rng = random.Random(7)
    gens = [("psi", 1), ("psi", 2), ("y", 1), ("y", 3)]
    for _ in range(20):
        x = random_element(ctx, rng, seqs, TAGS_BOTH, max_terms=6)
        y = random_element(ctx, rng, seqs, TAGS_BOTH, max_terms=6)
        for g in gens + [("e", rng.choice(seqs))]:
            assert _keyed_by_mono(ctx.act(g, x))
        assert _keyed_by_mono(x * y) and _keyed_by_mono(ctx.multiply(x - y, x + y))
    # x = m1 - (c1 / c2) m2, for basis monomials whose products by g share a
    # term, with coefficients c1 and c2 there: that term cancels in g x
    monos = ctx.enumerate_basis(root, 1, TAGS_BOTH)
    cancelled = set()
    for g in gens:
        products = [(m, ctx.act(g, Element(ctx, {m: dom.one})).terms) for m in monos]
        for k, (m1, p1) in enumerate(products):
            for m2, p2 in products[k + 1:]:
                shared = p1.keys() & p2.keys()
                if not shared:
                    continue
                t = min(shared, key=ctx.mono_sort_key)
                ratio = dom.mul(p1[t], inv(dom, p2[t]))
                x = ctx.elem({m1: dom.one, m2: dom.neg(ratio)})
                got = ctx.act(g, x)
                assert t not in got.terms and _keyed_by_mono(got)
                kind, r = g
                gen = ctx.psi_element(r, seqs, TAGS_BOTH) if kind == "psi" else \
                    ctx.y_element(r, seqs, TAGS_BOTH)
                assert got == gen * x
                cancelled.add(m1.tag)
    assert cancelled == set(TAGS_BOTH)

    # failing rows, with the braid correction dropped, hand out their diffs
    correction = K.algebra._correction
    monkeypatch.setattr(K.algebra, "_correction", lambda kind, *args: []
                        if kind == "braid" else correction(kind, *args))
    root3 = K.make_root(q, {0: 2, 1: 1})
    labels = [(i, i, K.e_pair(ctx, i)) for i in ctx.block_seqs(root3)]
    diffs = [diff for *_, diff in K.algebra.relation_instances(
        labels, 3, tuple(alt.SIGNED_ODD.items())) if diff is not None]
    assert diffs and all(map(_keyed_by_mono, diffs))
    assert {m.tag for d in diffs for m in d.terms} == set(TAGS_BOTH)
    monkeypatch.undo()

    # express coverage builds a diff only for a failing row: with the psi
    # products' terms of three-letter words negated, its failing rows hand
    # out theirs
    negate_three_letter_products(monkeypatch)
    seen = []
    row = alt._row
    monkeypatch.setattr(alt, "_row", lambda *args, diff=None:
                        seen.append(diff) or row(*args, diff=diff))
    rows = list(alt.iter_express_coverage(K.KLR(q, 3, dom), root, 1))
    diffs = [diff for diff in seen if diff is not None]
    assert len(seen) == len(rows) and diffs and all(map(_keyed_by_mono, diffs))
    assert len(diffs) == sum(r["status"] == "fail" for r in rows)
    assert {m.tag for d in diffs for m in d.terms} == set(TAGS_BOTH)


def test_element_arithmetic_and_equality(c3):
    x = c3.e((0, 1))
    y = c3.e((1, 0))
    assert x + y - x == y
    assert (x - x).is_zero()
    assert 2 * x == x + x
    assert (0 * x).is_zero()
    z = x.scale(3)
    assert z.terms[Mono("G", (0, 1), (0, 0), (0, 1))] == 3


def test_prime_field_context_and_char2_rejected():
    with pytest.raises(K.DomainError):
        PrimeField(2)
    ctx = K.KLR(K.cycle(3), 2, PrimeField(3))
    x = ctx.e((0, 1))
    assert (x + x + x).is_zero()
    psi1 = ctx.psi_element(1)
    assert psi1 * (psi1 * ctx.e((0, 0))) == ctx.zero()


def char_reduction_check(quiver, n, root, bound, primes, sample, seed=0):
    """Structure constants over the rationals, reduced mod p, against the
    ones computed natively mod p: returns (products compared, mismatching
    (p, m1, m2)).  The engine never divides, so none are expected."""
    rng = random.Random(seed)
    ctx_q = K.KLR(quiver, n)
    monos = ctx_q.enumerate_basis(root, bound)
    pairs = [(rng.choice(monos), rng.choice(monos)) for _ in range(sample)]
    mismatches = []
    for p in primes:
        fp = PrimeField(p)
        ctx_p = K.KLR(quiver, n, fp)
        for m1, m2 in pairs:
            reduced = {}
            for m, c in mono_pair(ctx_q, m1, m2).items():
                v = fp.from_int(int(c))  # integral structure constants
                if not fp.is_zero(v):
                    reduced[m] = v
            if reduced != mono_pair(ctx_p, m1, m2):
                mismatches.append((p, m1, m2))
    return len(pairs) * len(primes), mismatches


def test_char_reduction_spot_check():
    # mod-p structure constants match the rational ones reduced
    q = K.cycle(3)
    root = K.make_root(q, {0: 1, 1: 1})
    checked, mismatches = char_reduction_check(q, 2, root, 2, primes=(3, 5),
                                               sample=40)
    assert checked == 80
    assert mismatches == []


def test_normal_monomial_invariants(c3):
    # canonical words are reduced and multiply out to their permutation
    for w in all_perms(2):
        word = canonical_word(w)
        assert len(word) == sum(a > b for a, b in itertools.combinations(w, 2))


def test_evaluate_computes_each_suffix_once(c3, monkeypatch):
    i = (0, 1)
    words = [(("y", 1), ("psi", 1)), (("psi", 1), ("y", 1), ("psi", 1)),
             (("y", 2), ("psi", 1)), (("e", i), ("y", 1), ("psi", 1))]
    # the oracle, folded letter by letter before any step is logged
    want = [fold(c3, w, c3.e(i)) for w in words]
    calls = log_steps(monkeypatch)
    program = SuffixProgram()
    slots = [program.slot(w) for w in words]
    steps = program.resolve(c3)
    values = c3._run_steps(steps, c3._encode(c3.e(i).terms))
    suffixes = {w[t:] for w in words for t in range(len(w))}
    # one step, and one action, per distinct suffix
    assert len(calls) == len(program.steps) == len(steps) == len(suffixes)
    assert set(program.slots) == suffixes | {()}
    assert ("e", i) in calls
    assert [Element(c3, c3._decode(values[k])) for k in slots] == want

    # a compiled suffix adds no step, and a later word only its new suffixes
    assert program.slot((("y", 1), ("psi", 1))) == slots[0]
    assert len(program.steps) == len(suffixes)
    program = SuffixProgram()
    assert program.slot((E,)) == 1 and program.slot((("y", 1), E)) == 2
    assert program.steps == [(E, 0), (("y", 1), 1)]


@pytest.mark.parametrize("dom", [K.Rationals(), PrimeField(5)], ids=["Q", "F5"])
def test_act_words_matches_one_letter_at_a_time(dom, monkeypatch):
    # random y, psi and e words on random elements: each value is the word
    # folded onto the element through `KLR.act` one letter at a time, right
    # to left, on a fresh context, and each element runs one step per
    # distinct suffix
    q = K.cycle(3)
    ctx, oracle = K.KLR(q, 3, dom), K.KLR(q, 3, dom)
    rng = random.Random(13)
    letters = [("y", 1), ("y", 2), ("y", 3), ("psi", 1), ("psi", 2),
               ("e", (0, 1, 2)), ("e", (1, 0, 2)), ("e", (0, 0, 1))]
    words = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
             for _ in range(40)]
    xs = [ctx.elem({_random_mono(rng): _coefficient(rng, dom)
                    for _ in range(rng.randint(1, 6))}) for _ in range(6)]
    want = []
    for x in xs:
        row = []
        for word in words:
            v = oracle.elem(x.terms)
            for g in reversed(word):
                v = oracle.act(g, v)
            row.append(list(v.terms.items()))
        want.append(row)
    log = log_steps(monkeypatch)
    got = [[list(v.terms.items()) for v in values]
           for values in ctx.act_words(words, xs)]
    assert got == want
    assert any(row[k] for row in got for k, w in enumerate(words) if len(w) > 2)
    suffixes = {w[t:] for w in words for t in range(len(w))}
    assert Counter(log) == Counter(w[0] for w in suffixes for _ in xs)
