"""Expression parsing, printing, and serialization round trips."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klrcalc as K
from klrcalc import exprs
from klrcalc.algebra import Mono
from klrcalc.exprs import (MAX_LENGTH, MAX_TERMS, ExprError, element_to_json_obj,
                           element_to_text, eval_ast, normal_form, parse_element)
from klrcalc.perms import canonical_word
from klrcalc.scalars import PrimeField
from klrcalc.suites import random_element
from words import word_perm

TAGS = ("G", "G'")


def element_from_json(ctx, text):
    """Oracle: the element whose `element_to_json_obj` was dumped to `text`;
    every word must be the canonical word of its permutation."""
    terms = {}
    for rec in json.loads(text):
        w = word_perm(tuple(rec["word"]), ctx.n)
        assert canonical_word(w) == tuple(rec["word"])
        m = Mono(rec["tag"], w, tuple(rec["exp"]), tuple(rec["seq"]))
        terms[m] = ctx.dom.parse(rec["coeff"])
    return ctx.elem(terms)


@pytest.fixture(scope="module")
def ctx():
    return K.make_context(K.cycle(3), 2)


def test_parse_product_ast():
    ast = parse_element("psi[1]*y[2]^3*e(0,1)@G")
    assert ast[0] == "mul"


def test_parse_sum():
    ast = parse_element("e(0,1) + e(1,0)")
    assert ast[0] == "add"


def test_whitespace_insensitive(ctx):
    a = normal_form("psi[1] * y[2]^2*e( 0 , 1 )", ctx)
    b = normal_form("psi[1]*y[2]^2*e(0,1)", ctx)
    assert a == b


def test_syntax_error_position():
    with pytest.raises(ExprError) as exc:
        parse_element("e(0,1) +\n* e(1,0)")
    assert exc.value.line == 2 and exc.value.col == 1


def test_index_and_label_errors(ctx):
    with pytest.raises(ExprError, match="out of range"):
        normal_form("psi[5]*e(0,1)", ctx)
    with pytest.raises(ExprError, match="unknown vertex"):
        normal_form("e(0,7)", ctx)
    with pytest.raises(ExprError, match="length"):
        normal_form("e(0)", ctx)


def test_paper_example_normal_forms(ctx):
    assert normal_form("psi[1]*psi[1]*e(0,0)", ctx).is_zero()
    assert normal_form("e(0,1)", ctx) == ctx.e((0, 1))
    got = normal_form("y[1]*psi[1]*e(0,0)", ctx)
    want = normal_form("psi[1]*y[2]*e(0,0) - e(0,0)", ctx)
    assert got == want


def test_normal_form_idempotent_via_reprint(ctx):
    x = normal_form("psi[1]*y[1]*e(0,1) + 2*e(1,0) - 1/2*y[2]*e(2,2)", ctx)
    assert normal_form(element_to_text(x), ctx) == x


def test_scalars_eps_and_pow(ctx):
    one = eval_ast(parse_element("1"), ctx)
    assert one == ctx.unit(tags=TAGS)
    eps = normal_form("eps", ctx)
    assert eps * eps == one
    assert normal_form("eps^2", ctx) == one
    assert normal_form("-3*e(0,1)", ctx) == ctx.e((0, 1)).scale(-3)
    assert normal_form("0", ctx).is_zero()
    assert element_to_text(normal_form("0", ctx)) == "0"


def test_powers_match_repeated_products(ctx):
    # square-and-multiply gives the left-to-right product of k copies
    base = normal_form("psi[1]+y[2]+2", ctx)
    want = normal_form("1", ctx)
    for k in range(10):
        assert normal_form(f"(psi[1]+y[2]+2)^{k}", ctx) == want
        want = want * base
    # at the cap, nested or not, and refused past it, where the error names it
    square, want = normal_form("psi[1]^2", ctx), ctx.e((0, 1))
    for _ in range(MAX_LENGTH // 2):
        want = square * want
    assert len(want.terms) == MAX_LENGTH // 2 + 1
    assert normal_form(f"psi[1]^{MAX_LENGTH}*e(0,1)", ctx) == want
    assert normal_form("(psi[1]^8)^8*e(0,1)", ctx) == want
    assert normal_form("psi[1]^32*(y[1]+e(0,1))^16*psi[1]^16*e(0,1)", ctx) == \
        normal_form("psi[1]^32*(y[1]+e(0,1))^16*psi[1]^16", ctx) * ctx.e((0, 1))
    assert normal_form("2^64", ctx) == normal_form("1", ctx).scale(2 ** 64)
    for text in (f"psi[1]^{MAX_LENGTH + 1}", "((y[1]^2)^4)^9", "(e(0,1)+psi[1]^9)^8",
                 "y[1]^32*psi[1]^33", "e(0,1)^65", "2^65", "(2+e(0,1))^65"):
        with pytest.raises(ExprError, match=f"cap of {MAX_LENGTH}"):
            parse_element(text)


def test_values_past_the_term_cap_are_refused(monkeypatch):
    # 64 letters do not bound a value: at n = 2, (1+y[1])^a*(1+y[2])^b holds
    # (a+1)(b+1) terms on each of the 18 idempotents of both copies.  A sum,
    # product or power step whose value passes the cap on one idempotent is
    # refused at the token its subexpression starts at
    ctx = K.make_context(K.cycle(3), 2)
    at_cap = "(1+y[1])^31*(1+y[2])^15"
    assert len(normal_form(at_cap, ctx).terms) == 18 * MAX_TERMS == 18 * 32 * 16
    for text, col, most in ((f"{at_cap}+y[2]^16", 1, 513),
                            ("e(0,1)-3*(1+y[1])^31*(1+y[2])^31", 8, 1024)):
        with pytest.raises(ExprError, match=rf"value of {most} terms on one "
                           rf"idempotent, past the cap of {MAX_TERMS} \(") as exc:
            normal_form(text, ctx)
        assert exc.value.col == col

    # a power step, under a negation too, is refused where its base starts
    monkeypatch.setattr(exprs, "MAX_TERMS", 8)
    ctx = K.make_context(K.cycle(3), 1)
    assert len(normal_form("(1+y[1])^7", ctx).terms) == 6 * 8
    for text, col in (("(1+y[1])^8", 1), ("e(0)--(1+y[1])^8", 7)):
        with pytest.raises(ExprError, match="value of 9 terms on one idempotent, "
                           "past the cap of 8 ") as exc:
            normal_form(text, ctx)
        assert exc.value.col == col


def test_atoms_stay_under_the_term_cap_at_any_n():
    # the cap counts terms on one idempotent, so a letter, which holds one
    # term on each of the 13,122 idempotents at n = 8, passes it
    ctx = K.make_context(K.cycle(3), 8)
    units = 2 * 3 ** 8
    for text, terms in (("y[1]^2", units), ("2*y[1]", units), ("1+y[1]", 2 * units),
                        ("y[1]+y[2]+y[3]+y[4]+y[5]+y[6]+y[7]+y[8]", 8 * units)):
        assert len(normal_form(text, ctx).terms) == terms


def test_printed_normal_forms_stay_within_the_cap(ctx):
    # no term of a normal form is longer than its expression, so the printed
    # normal form of an admitted expression parses back to itself; a product
    # that would print a longer term is refused where it crosses the cap
    for text in ("y[1]^32*y[1]^32*e(0,1)", "y[2]^30*psi[1]^34*e(0,1)",
                 "(psi[1]+y[2]+2)^21*y[1]*e(1,0)@G'", "psi[1]^64*e(0,0)"):
        x = normal_form(text, ctx)
        assert normal_form(element_to_text(x), ctx) == x
    for text, col in (("y[1]^64*y[1]^64*e(0,1)", 9), ("y[1]*" * 64 + "y[2]", 321)):
        with pytest.raises(ExprError, match=f"cap of {MAX_LENGTH}") as exc:
            normal_form(text, ctx)
        assert exc.value.col == col


def test_tagged_atoms(ctx):
    assert normal_form("e(0,1)@G'", ctx) == ctx.e((0, 1), "G'")
    assert normal_form("e(0,1)@G", ctx) == ctx.e((0, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_print_parse_roundtrip(seed):
    ctx = K.make_context(K.cycle(3), 2)
    x = random_element(ctx, random.Random(seed), tags=TAGS)
    assert normal_form(element_to_text(x), ctx) == x


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_json_roundtrip(seed):
    ctx = K.make_context(K.cycle(3), 2)
    x = random_element(ctx, random.Random(seed), tags=TAGS)
    assert element_from_json(ctx, json.dumps(element_to_json_obj(x))) == x


def test_json_shape(ctx):
    x = normal_form("1/2*psi[1]*y[2]*e(0,1)@G'", ctx)
    data = element_to_json_obj(x)
    assert data == [{"tag": "G'", "word": [1], "exp": [0, 1],
                     "seq": [0, 1], "coeff": "1/2"}]


def test_prime_field_coeff_format():
    ctx = K.make_context(K.cycle(3), 2, PrimeField(5))
    x = ctx.e((0, 1)).scale(7)
    assert element_to_text(x) == "2*e(0,1)@G"
    data = element_to_json_obj(x)
    assert data[0]["coeff"] == "2 mod 5"
    assert element_from_json(ctx, json.dumps(element_to_json_obj(x))) == x
    assert normal_form(element_to_text(x), ctx) == x


def test_text_is_canonically_sorted(ctx):
    x = ctx.e((1, 0)) + ctx.e((0, 1))
    assert element_to_text(x) == "e(0,1)@G + e(1,0)@G"


# (source, message fragment, line, column); n = 2 on cycle(3)
MALFORMED = [
    ("e(0,1)@H", "expected G after @", 1, 7),
    ("e(0,1) +\n  e(1,0)@", "expected G after @", 2, 9),
    ("e(0,1) # 2", "unexpected character '#'", 1, 8),
    ("y[1]*\n\t e(0,1)$", "unexpected character '$'", 2, 9),
    ("y[1)*e(0,1)", "expected ']', found ')'", 1, 4),
    ("psi[1*e(0,1)", "expected ']', found '*'", 1, 6),
    ("e(0,1) e(1,0)", "trailing input 'e'", 1, 8),
    ("(e(0,1)))", "trailing input ')'", 1, 9),
    ("2*foo*e(0,1)", "unknown name 'foo'", 1, 3),
    ("e(0,*)", "bad sequence entry '*'", 1, 5),
    ("e(0,1) -\n e(,1)", "bad sequence entry ','", 2, 4),
    ("y[3]*e(0,1)", "y index 3 out of range 1..2", 1, 1),
    ("e(0,1) + \n y[0]", "y index 0 out of range 1..2", 2, 2),
    ("psi[2]*e(0,1)", "psi index 2 out of range 1..1", 1, 1),
]


@pytest.mark.parametrize("src,message,line,col", MALFORMED)
def test_malformed_expression_position(ctx, src, message, line, col):
    with pytest.raises(ExprError) as exc:
        normal_form(src, ctx)
    assert message in str(exc.value)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_negative_and_named_sequence_entries():
    line = K.make_context(K.cycle(0), 2)
    assert normal_form("e(-1,0)", line) == line.e((-1, 0))
    assert normal_form("e(- 3 , 3)@G'", line) == line.e((-3, 3), "G'")
    named = K.make_context(K.make_quiver("ab", ["a", "b"], [("a", "b")]), 2)
    assert normal_form("psi[1]*e(a,b)", named) == \
        named.act(("psi", 1), named.e(("a", "b")))


GRAMMAR_PIECES = ["e", "y", "psi", "eps", "x", "_", "(", ")", "[", "]", ",",
                  "+", "-", "*", "/", "^", "@G", "@G'", "@", "'", "G", "0",
                  "1", "2", "10", " ", "\t", "\n", "#"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=30))
def test_parse_returns_or_raises_expr_error(pieces):
    try:
        parse_element("".join(pieces))
    except ExprError:
        pass
