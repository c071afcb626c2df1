"""
The element expression language: parsing, printing, and JSON output.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' uint)?
    atom   := scalar | 'e' '(' seq ')' tag? | 'y' '[' uint ']'
            | 'psi' '[' uint ']' | 'eps' | '(' expr ')'
    tag    := '@G' | "@G'"
    scalar := uint | uint '/' uint
    seq    := entry (',' entry)*      entry := ['-'] uint | name

Unary minus is accepted anywhere a factor is, so printed elements with a
leading negative coefficient re-parse; everything the plain grammar accepts
is unchanged.  Untagged e(...) means the main copy '@G'.

Errors carry 1-based line and column of the offending token; a column
counts characters from the start of its line.  Nesting past the
interpreter's recursion limit is refused as an error at the token reached,
and so are an expression longer than MAX_LENGTH letters and a value past
MAX_TERMS (see there), the latter at the token its subexpression starts at.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import reduce

from .algebra import (TAG_MAIN, TAG_OPP, TAGS_BOTH, BadGeneratorError,
                      Element, KLR, Mono, ShapeError)
from .perms import canonical_word
from .quiver import all_seqs, labels_by_text


# The longest expression admitted, in letters: psi[r] and y[r] count one,
# e(...), eps and scalars none, a product adds up its factors, a sum takes
# its longest term, and a power k of a base of length L counts k * max(L, 1),
# so a scalar's power, whose exact value grows with k, is bounded too.  No
# rewrite step lengthens a term, so no term of a normal form is longer than
# its expression, and the printed normal form of an admitted expression is
# admitted again.
MAX_LENGTH = 64

# The most terms psi_w y^a e(i) a sum, product or power step may hold on one
# e(i) of either copy, since letters do not bound a value: at n = 2 the 32nd
# power of psi[1]+y[2] holds 775 on one e(i).  The cap grows with the unit,
# as atoms do, and in x y each term of y meets at most MAX_TERMS terms of x.
MAX_TERMS = 512


class ExprError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # INT NAME SYM TAG END
    text: str
    line: int
    col: int


# one token, or one whitespace character, or the one character no token
# starts with; a TAG's text is the tag itself, "@G'" -> "G'"
_TOKEN = re.compile(r"""(?P<INT>\d+) | (?P<NAME>[^\W\d]\w*) | (?P<TAG>@G'?)
                        | (?P<SYM>[-+*/^()\[\],]) | (?P<SPACE>\s) | (?P<BAD>.)""",
                    re.S | re.X)


def tokenize(src: str):
    out = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "BAD":
            raise ExprError("expected G after @" if text == "@"
                            else f"unexpected character {text!r}", line, col)
        if text == "\n":
            line, line_start = line + 1, m.end()
        elif kind != "SPACE":
            out.append(Token(kind, text[1:] if kind == "TAG" else text, line, col))
    out.append(Token("END", "", line, len(src) - line_start + 1))
    return out


class Parser:
    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ExprError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == text

    def parse(self):
        try:
            node = self.parse_expr()
        except RecursionError:
            tok = self.peek()
            raise ExprError("expression nested too deeply", tok.line, tok.col) from None
        tok = self.peek()
        if tok.kind != "END":
            raise ExprError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return node

    # a sum, product or power node ends with its first token
    def parse_expr(self):
        start = self.peek()
        terms = [("+", self.parse_term())]
        while self.at_sym("+") or self.at_sym("-"):
            terms.append((self.next().text, self.parse_term()))
        return ("add", terms, start) if len(terms) > 1 else terms[0][1]

    def parse_term(self):
        start = self.peek()
        factors = [self.parse_factor()]
        length = _length(factors[0])
        while self.at_sym("*"):
            self.next()
            tok = self.peek()
            factors.append(self.parse_factor())
            length += _length(factors[-1])
            if length > MAX_LENGTH:
                raise ExprError(f"product longer than the cap of {MAX_LENGTH} "
                                "letters", tok.line, tok.col)
        return ("mul", factors, start) if len(factors) > 1 else factors[0]

    def parse_factor(self):
        negate = False
        while self.at_sym("-"):
            self.next()
            negate = not negate
        start = self.peek()
        node = self.parse_atom()
        if self.at_sym("^"):
            self.next()
            tok = self.expect("INT")
            digits = tok.text.lstrip("0")
            if len(digits) > len(str(MAX_LENGTH)) or \
                    int(digits or "0") * max(_length(node), 1) > MAX_LENGTH:
                raise ExprError(f"power longer than the cap of {MAX_LENGTH} "
                                "letters", tok.line, tok.col)
            node = ("pow", node, int(tok.text), start)
        return ("neg", node) if negate else node

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "INT":
            if self.at_sym("/"):
                self.next()
                den = self.expect("INT")
                return ("num", tok.text + "/" + den.text, tok)
            return ("num", tok.text, tok)
        if tok.kind == "SYM" and tok.text == "(":
            node = self.parse_expr()
            self.expect("SYM", ")")
            return node
        if tok.kind == "NAME":
            if tok.text == "e":
                self.expect("SYM", "(")
                seq = self.parse_seq()
                self.expect("SYM", ")")
                tag = self.next().text if self.peek().kind == "TAG" else TAG_MAIN
                return ("e", seq, tag, tok)
            if tok.text in ("y", "psi"):
                self.expect("SYM", "[")
                idx = self.expect("INT")
                self.expect("SYM", "]")
                return (tok.text, int(idx.text), tok)
            if tok.text == "eps":
                return ("eps", tok)
            raise ExprError(f"unknown name {tok.text!r}", tok.line, tok.col)
        raise ExprError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def parse_seq(self):
        entries = [self.parse_entry()]
        while self.at_sym(","):
            self.next()
            entries.append(self.parse_entry())
        return tuple(entries)

    def parse_entry(self):
        """A sequence entry as text; it names a vertex by its text."""
        tok = self.next()
        if tok.kind == "SYM" and tok.text == "-":
            return "-" + self.expect("INT").text
        if tok.kind in ("INT", "NAME"):
            return tok.text
        raise ExprError(f"bad sequence entry {tok.text!r}", tok.line, tok.col)


def _length(node) -> int:
    """The length of an AST in letters, as `MAX_LENGTH` counts it."""
    kind = node[0]
    if kind == "pow":
        return node[2] * max(_length(node[1]), 1)
    if kind == "add":
        return max(_length(term) for _, term in node[1])
    if kind == "mul":
        return sum(map(_length, node[1]))
    if kind == "neg":
        return _length(node[1])
    return 1 if kind in ("y", "psi") else 0


def parse_element(src: str) -> tuple:
    """Parse to an AST; evaluation is separate so contexts can vary."""
    return Parser(src).parse()


def eval_ast(node, ctx: KLR) -> Element:
    """Evaluate an AST in a context; bare scalars scale the ambient identity
    over all of I^n, both copies.  Sums and products fold left to right; the
    engine checks each atom, and its error is reported at the atom's
    token."""
    seqs = all_seqs(ctx.quiver, ctx.n)
    labels = labels_by_text(ctx.quiver.vertices)

    def unit(tags=TAGS_BOTH):
        return ctx.unit(seqs, tags)

    def capped(x, node):
        most = max(Counter((m.tag, m.seq) for m in x.terms).values(), default=0)
        if most > MAX_TERMS:
            raise ExprError(f"value of {most} terms on one idempotent, past the "
                            f"cap of {MAX_TERMS}", node[-1].line, node[-1].col)
        return x

    def ev(node):
        kind = node[0]
        if kind == "num":
            return unit().scale(ctx.dom.parse(node[1]))
        if kind in ("e", "y", "psi"):
            tok = node[-1]
            try:
                if kind == "e":
                    return ctx.e([labels.get(t, t) for t in node[1]], node[2])
                return ctx.gen_left((kind, node[1]), unit())
            except (ShapeError, BadGeneratorError) as exc:
                raise ExprError(str(exc), tok.line, tok.col) from None
        if kind == "eps":
            return unit((TAG_MAIN,)) - unit((TAG_OPP,))
        if kind == "add":
            out = ctx.zero()
            for op, term in node[1]:
                out = capped(out + ev(term) if op == "+" else out - ev(term), node)
            return out
        if kind == "mul":
            return reduce(lambda x, y: capped(x * y, node), map(ev, node[1]))
        if kind == "neg":
            return -ev(node[1])
        if kind == "pow":
            # square-and-multiply, high bit first
            base, out = ev(node[1]), unit()
            for bit in bin(node[2])[2:]:
                out = capped(out * out, node)
                if bit == "1":
                    out = capped(out * base, node)
            return out
        raise ValueError(f"unknown AST node {kind!r}")

    return ev(node)


def normal_form(src: str, ctx: KLR) -> Element:
    """Parse and evaluate: the result is the normal-form expansion."""
    return eval_ast(parse_element(src), ctx)


# --- printing ----------------------------------------------------------------


def _mono_text(m: Mono) -> str:
    parts = [f"psi[{c}]" for c in canonical_word(m.w)]
    for r, k in enumerate(m.a, start=1):
        if k == 1:
            parts.append(f"y[{r}]")
        elif k > 1:
            parts.append(f"y[{r}]^{k}")
    parts.append("e(" + ",".join(str(v) for v in m.seq) + ")@" + m.tag)
    return "*".join(parts)


def _coeff_text(ctx: KLR, c) -> str:
    # prime-field values print as their representative so the text re-parses
    if ctx.dom.char:
        return str(c % ctx.dom.char)
    return str(c)


def element_to_text(x: Element) -> str:
    """Canonical, grammar-conforming rendering; parse(print(x)) == x."""
    if x.is_zero():
        return "0"
    ctx = x.ctx
    chunks = []
    for k, (m, c) in enumerate(x.sorted_items()):
        text = _coeff_text(ctx, c)
        neg = text.startswith("-")
        if neg:
            text = text[1:]
        body = _mono_text(m)
        if text != "1":
            body = text + "*" + body
        if k == 0:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


# --- JSON serialization -------------------------------------------------------


def element_to_json_obj(x: Element) -> list:
    out = []
    for m, c in x.sorted_items():
        out.append({
            "tag": m.tag,
            "word": list(canonical_word(m.w)),
            "exp": list(m.a),
            "seq": list(m.seq),
            "coeff": x.ctx.dom.format(c),
        })
    return out
