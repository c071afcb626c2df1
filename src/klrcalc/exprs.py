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

Errors carry 1-based line and column of the offending token.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import TAG_MAIN, TAG_OPP, Element, KLR, Mono
from .perms import canonical_word
from .quiver import all_seqs


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


_SYMBOLS = "+-*/^()[],"


def tokenize(src: str):
    out = []
    line, col = 1, 1
    k = 0
    while k < len(src):
        ch = src[k]
        if ch == "\n":
            line += 1
            col = 1
            k += 1
            continue
        if ch.isspace():
            col += 1
            k += 1
            continue
        if ch.isdigit():
            start = k
            while k < len(src) and src[k].isdigit():
                k += 1
            out.append(Token("INT", src[start:k], line, col))
            col += k - start
            continue
        if ch.isalpha() or ch == "_":
            start = k
            while k < len(src) and (src[k].isalnum() or src[k] == "_"):
                k += 1
            out.append(Token("NAME", src[start:k], line, col))
            col += k - start
            continue
        if ch == "@":
            if src[k + 1:k + 2] != "G":
                raise ExprError("expected G after @", line, col)
            if src[k + 2:k + 3] == "'":
                out.append(Token("TAG", TAG_OPP, line, col))
                k += 3
                col += 3
            else:
                out.append(Token("TAG", TAG_MAIN, line, col))
                k += 2
                col += 2
            continue
        if ch in _SYMBOLS:
            out.append(Token("SYM", ch, line, col))
            k += 1
            col += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", line, col)
    out.append(Token("END", "", line, col))
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
        node = self.parse_expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return node

    def parse_expr(self):
        node = self.parse_term()
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next().text
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.at_sym("*"):
            self.next()
            node = ("mul", node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.at_sym("-"):
            self.next()
            return ("neg", self.parse_factor())
        node = self.parse_atom()
        if self.at_sym("^"):
            self.next()
            tok = self.expect("INT")
            node = ("pow", node, int(tok.text))
        return node

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
                tag = None
                if self.peek().kind == "TAG":
                    tag = self.next().text
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
        tok = self.next()
        if tok.kind == "SYM" and tok.text == "-":
            num = self.expect("INT")
            return -int(num.text)
        if tok.kind == "INT":
            return int(tok.text)
        if tok.kind == "NAME":
            return tok.text
        raise ExprError(f"bad sequence entry {tok.text!r}", tok.line, tok.col)


def parse_element(src: str) -> tuple:
    """Parse to an AST; evaluation is separate so contexts can vary."""
    return Parser(src).parse()


def eval_ast(node, ctx: KLR, seqs=None) -> Element:
    """Evaluate an AST in a context; bare scalars scale the ambient identity
    over `seqs` (default all of I^n, both copies)."""
    if seqs is None:
        seqs = all_seqs(ctx.quiver, ctx.n)

    def unit():
        return ctx.unit(seqs, (TAG_MAIN, TAG_OPP))

    kind = node[0]
    if kind == "num":
        return unit().scale(ctx.dom.parse(node[1]))
    if kind == "e":
        _, seq, tag, tok = node
        if len(seq) != ctx.n:
            raise ExprError(f"sequence length {len(seq)} != n = {ctx.n}",
                            tok.line, tok.col)
        for v in seq:
            if v not in ctx.quiver._index:
                raise ExprError(f"unknown vertex label {v!r}", tok.line, tok.col)
        return ctx.e(seq, tag or TAG_MAIN)
    if kind == "y":
        _, r, tok = node
        if not 1 <= r <= ctx.n:
            raise ExprError(f"y index {r} out of range 1..{ctx.n}", tok.line, tok.col)
        return ctx.y_element(r, seqs, (TAG_MAIN, TAG_OPP))
    if kind == "psi":
        _, r, tok = node
        if not 1 <= r <= ctx.n - 1:
            raise ExprError(f"psi index {r} out of range 1..{ctx.n - 1}",
                            tok.line, tok.col)
        return ctx.psi_element(r, seqs, (TAG_MAIN, TAG_OPP))
    if kind == "eps":
        from .signop import eps_pair
        out = ctx.zero()
        for s in seqs:
            out = out + eps_pair(ctx, s)
        return out
    if kind == "add":
        return eval_ast(node[1], ctx, seqs) + eval_ast(node[2], ctx, seqs)
    if kind == "sub":
        return eval_ast(node[1], ctx, seqs) - eval_ast(node[2], ctx, seqs)
    if kind == "mul":
        return eval_ast(node[1], ctx, seqs) * eval_ast(node[2], ctx, seqs)
    if kind == "neg":
        return -eval_ast(node[1], ctx, seqs)
    if kind == "pow":
        base = eval_ast(node[1], ctx, seqs)
        out = unit()
        for _ in range(node[2]):
            out = out * base
        return out
    raise ValueError(f"unknown AST node {kind!r}")


def normal_form(src: str, ctx: KLR, seqs=None) -> Element:
    """Parse and evaluate: the result is the normal-form expansion."""
    return eval_ast(parse_element(src), ctx, seqs)


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
