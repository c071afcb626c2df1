"""
The quiver Hecke algebra engine: normal-form monomials, exact elements, and
a terminating rewrite system implementing the defining relations.

A monomial is psi_w * y^a * e(seq) on a tagged copy of the quiver: tag "G"
is the quiver itself, tag "G'" its opposite (same vertex labels, arrows
reversed).  psi_w multiplies the psi generators along the lex-least reduced
word of w, fixed once and for all; these monomials form a free basis and
every product rewrites back onto them.

The rewrite core is two one-letter products on the canonical word cw(w):
psi_r psi_w e(seq) and y_s psi_w e(seq).  Any other product is folded from
them, its letters acting one at a time, right to left.  Each is built from
the first letter of cw(w) = (c,) + cw(s_c w), by one relation and products
memoised in the same tables:

* y_s psi_w e(seq): y_s passes psi_c by a dot-slide relation, and psi_c
  acts on y_t psi_{s_c w} e(seq), less or plus its delta correction.
* psi_r psi_w e(seq), r not a left descent of w: psi_{s_r w} e(seq) if
  cw(s_r w) starts with r; else psi_r commutes past the first letter of
  cw(w), or meets psi_{r-1} psi_r in a braid, whose correction reads the
  arrows at the face.
* r a left descent of w: psi_r^2 fires on psi_{s_r w} e(seq) through the y
  products, and psi_r acts on the lower terms of psi_r psi_{s_r w} e(seq).

Each nested product has a shorter stem, or one of the same length and a
smaller psi letter, so the rewrite terminates.  Uniqueness of the resulting
expansion is a theorem about the algebra, not the code; the test suite
checks it by confluence fuzzing.

The rewriting never reads an exponent.  y^a sits right of every psi letter,
and the y's commute with each other and with e(seq), so psi_word y^a e(seq)
= (psi_word e(seq)) y^a, and right multiplication by y^a adds a to each
term's exponent.  The memo tables therefore hold exponent-free products,
and a caller's exponent is added to each term's packed int key (see `KLR`),
one integer add, in the one step loop that every letter, product and word
acts through, `KLR._run_steps`.

The defining presentation is also written down as data, apart from the
rewrite rules: `KLR_RELATIONS` lists the relation families once, and
`relation_instances` checks them on plain data: (label, sequence, base)
triples and the views that read each label's rows.  Per sequence it
compiles the table's words, their idempotent letters resolved for it, into
one `SuffixProgram`, one step (letter, source slot) per distinct suffix,
and runs it once per label on the packed terms of the label's base through
`KLR._run_steps`; a row compares packed term dicts, building an Element only
for a failing row's diff.  `KLR.act_words` runs any set of words the same
way.  The corrections read the quiver's arrows.
"""

from __future__ import annotations

from typing import NamedTuple

from . import perms
from .perms import act, canonical_word
from .quiver import Quiver, Root, all_seqs, sequences
from .scalars import Rationals

TAG_MAIN = "G"
TAG_OPP = "G'"
TAGS_BOTH = (TAG_MAIN, TAG_OPP)


class ShapeError(ValueError):
    pass


class BadGeneratorError(ValueError):
    pass


class NotHomogeneousError(ValueError):
    pass


class Mono(NamedTuple):
    """One basis monomial psi_w y^a e(seq) on the tagged quiver copy."""

    tag: str
    w: tuple
    a: tuple
    seq: tuple


class Element:
    """A finite linear combination of normal-form monomials.

    Immutable by convention: all operations build fresh elements.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: "KLR", terms: dict):
        self.ctx = ctx
        self.terms = terms

    def __add__(self, other):
        self.ctx._check_same(other.ctx)
        dom = self.ctx.dom
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc1(out, m, c, dom)
        return Element(self.ctx, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        dom = self.ctx.dom
        return Element(self.ctx, {m: dom.neg(c) for m, c in self.terms.items()})

    def scale(self, c):
        dom = self.ctx.dom
        if isinstance(c, int):
            c = dom.from_int(c)
        if dom.is_zero(c):
            return self.ctx.zero()
        return Element(self.ctx, {m: dom.mul(c, v) for m, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)
        return self.ctx.multiply(self, other)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.ctx.key == other.ctx.key and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_items(self):
        key = self.ctx.mono_sort_key
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]))

    def degree(self):
        """Z-degree of a homogeneous element (None for zero)."""
        degs = {self.ctx.mono_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise NotHomogeneousError(f"mixed degrees {sorted(degs)}")
        return degs.pop()

    def __repr__(self):
        from .exprs import element_to_text
        return element_to_text(self)


def _acc1(out: dict, m, c, dom) -> None:
    cur = out.get(m)
    if cur is None:
        if not dom.is_zero(c):
            out[m] = c
        return
    s = dom.add(cur, c)
    if dom.is_zero(s):
        del out[m]
    else:
        out[m] = s


# A packed term key (see `KLR`) is stem | sum_r a_r << (32 + _WIDTH (r - 1)).
# No field carries: no rewrite step lengthens a term, the engine refuses an
# entering exponent entry, x's |a| in `KLR.multiply` and a `SuffixProgram`
# word of _LIMIT = 2^14 or more, and n <= _MAX_N keeps a stem (or x's psi word)
# under 2^13 letters, so every entry stays below 2^14 + 2^14 + 2^13 + 2^13 = 2^16.
_STEM = (1 << 32) - 1
_WIDTH = 16
_LIMIT = 1 << 14
_MAX_N = 128


def _acc(out: dict, src: dict, scale, dom) -> None:
    """out += scale src."""
    unit = scale == dom.one
    for k, c in src.items():
        _acc1(out, k, c if unit else dom.mul(scale, c), dom)


class KLR:
    """Context for exact computation in R_n of a quiver (and its opposite).

    Holds the quiver, the strand count n, the coefficient domain, an optional
    validated reversal map, and all rewrite memo tables.  Elements are tied
    to their context; contexts with equal (quiver, n, domain) are compatible.

    Inside the engine a term is keyed by one int, its stem id with each
    y-exponent entry in a field above it (see `_STEM`), so y^a on the right
    adds a's key offset.  The stem is the exponent-free part (tag, w, seq),
    interned with its face w.seq and the canonical word of w.  `Mono` stays
    the only key of `Element.terms`: keys are encoded where terms enter the
    engine and decoded where they leave it.

    The rewrite core is two memo tables of exponent-free products,
    `_psi_cache` of psi_r psi_w e(seq) and `_y_cache` of y_s psi_w e(seq),
    by (letter, stem).  Each entry is one relation applied at the first
    letter of cw(w) plus products on shorter stems, or, for psi, on stems
    of the same length with a smaller letter.

    Every table is a plain dict that keeps each entry as long as the
    context lives, with no cap.  The suites build one context per block
    (`suites._on_own_context`), so the block bounds the tables: at most n y
    and n - 1 psi products per stem of the block.
    """

    def __init__(self, quiver: Quiver, n: int, domain=None, tau=None):
        if not 0 <= n <= _MAX_N:
            raise ShapeError(f"n must be in 0..{_MAX_N}")
        self.quiver = quiver
        self.n = n
        self.dom = domain if domain is not None else Rationals()
        self.tau = tau
        self._ops = (self.dom.one, self.dom.add, self.dom.mul, self.dom.is_zero)
        self.key = (quiver, n, self.dom)
        self._zero_a = (0,) * n
        self._unit_a = tuple(tuple(int(k == r) for k in range(n)) for r in range(n))
        self._id_perm = perms.identity(n)
        self._stem_ids: dict = {}
        self._stems: list = []  # (tag, w, seq)
        self._faces: list = []
        self._words: list = []  # canonical words
        self._exp_offsets: dict = {}  # a -> its key offset
        self._exp_vectors: dict = {}  # key offset >> 32 -> a
        self._unit_e = [1 << 32 + _WIDTH * r for r in range(n)]
        self._y_cache: dict = {}
        self._psi_cache: dict = {}
        # the steps of y_s and psi_r on the value before them, by s and r
        self._y_steps = [(self._y_cache, KLR._y_stem, s << 32, -1)
                         for s in range(n + 1)]
        self._psi_steps = [(self._psi_cache, KLR._psi_stem, r << 32, -1)
                           for r in range(n + 1)]

    # --- basic constructors -----------------------------------------------

    def _check_same(self, other_ctx: "KLR") -> None:
        if self.key != other_ctx.key:
            raise ShapeError("elements live in different algebra contexts")

    def _check_seq(self, seq) -> tuple:
        seq = tuple(seq)
        if len(seq) != self.n:
            raise ShapeError(f"sequence length {len(seq)} != n = {self.n}")
        for v in seq:
            if v not in self.quiver._index:
                raise ShapeError(f"unknown vertex {v!r} in sequence")
        return seq

    def zero(self) -> Element:
        return Element(self, {})

    def elem(self, terms: dict) -> Element:
        dom = self.dom
        return Element(self, {m: c for m, c in terms.items() if not dom.is_zero(c)})

    def e(self, seq, tag: str = TAG_MAIN) -> Element:
        m = Mono(tag, self._id_perm, self._zero_a, self._check_seq(seq))
        return Element(self, {m: self.dom.one})

    def unit(self, seqs=None, tags=(TAG_MAIN,)) -> Element:
        """Sum of idempotents over `seqs` (default: all of I^n) and `tags`."""
        if seqs is None:
            seqs = all_seqs(self.quiver, self.n)
        terms = {}
        for tag in tags:
            for s in seqs:
                terms[Mono(tag, self._id_perm, self._zero_a, tuple(s))] = self.dom.one
        return Element(self, terms)

    def y_element(self, r: int, seqs=None, tags=(TAG_MAIN,)) -> Element:
        self._check_y_index(r)
        if seqs is None:
            seqs = all_seqs(self.quiver, self.n)
        terms = {Mono(tag, self._id_perm, self._unit_a[r - 1], tuple(s)): self.dom.one
                 for tag in tags for s in seqs}
        return Element(self, terms)

    def psi_element(self, r: int, seqs=None, tags=(TAG_MAIN,)) -> Element:
        self._check_psi_index(r)
        if seqs is None:
            seqs = all_seqs(self.quiver, self.n)
        w = perms.right_mul_s(self._id_perm, r)
        terms = {Mono(tag, w, self._zero_a, tuple(s)): self.dom.one
                 for tag in tags for s in seqs}
        return Element(self, terms)

    def block_seqs(self, root: Root) -> tuple:
        return sequences(self.quiver, root)

    # --- structure of monomials --------------------------------------------

    def _check_y_index(self, r: int) -> None:
        if not 1 <= r <= self.n:
            raise BadGeneratorError(f"y index {r} out of range 1..{self.n}")

    def _check_psi_index(self, r: int) -> None:
        if not 1 <= r <= self.n - 1:
            raise BadGeneratorError(f"psi index {r} out of range 1..{self.n - 1}")

    def arrow(self, tag: str, u, v) -> bool:
        """Is u -> v an arrow on the tagged copy?"""
        if tag == TAG_MAIN:
            return self.quiver.has_edge(u, v)
        return self.quiver.has_edge(v, u)

    def mono_face(self, m: Mono) -> tuple:
        """The residue sequence visible on the left of the monomial: w . seq."""
        return act(m.w, m.seq)

    def mono_degree(self, m: Mono) -> int:
        return 2 * sum(m.a) + self._psi_degree(m.w, m.seq)

    def _psi_degree(self, w: tuple, seq: tuple) -> int:
        total = 0
        face = list(seq)
        for c in reversed(canonical_word(w)):
            total -= self.quiver.cartan_entry(face[c - 1], face[c])
            face[c - 1], face[c] = face[c], face[c - 1]
        return total

    def mono_sort_key(self, m: Mono):
        word = canonical_word(m.w)
        return (m.tag, len(word), word, m.a, self.quiver.seq_key(m.seq))

    # --- packed term keys -----------------------------------------------------

    def _stem(self, tag: str, w: tuple, seq: tuple) -> int:
        """The id of the stem (tag, w, seq), interned when first seen."""
        key = (tag, w, seq)
        k = self._stem_ids.get(key)
        if k is None:
            k = self._stem_ids[key] = len(self._stems)
            self._stems.append(key)
            self._faces.append(act(w, seq))
            self._words.append(canonical_word(w))
        return k

    def _exp_offset(self, a: tuple) -> int:
        """a's key offset, kept both ways; a has n entries below _LIMIT."""
        if len(a) != self.n or not all(0 <= v < _LIMIT for v in a):
            raise ShapeError(f"exponent {a} is not n entries in 0..{_LIMIT - 1}")
        off = sum(v << _WIDTH * r for r, v in enumerate(a)) << 32
        self._exp_offsets[a] = off
        self._exp_vectors[off >> 32] = a
        return off

    def _key(self, m: Mono) -> int:
        """The packed key of a monomial."""
        off = self._exp_offsets.get(m.a)
        if off is None:
            off = self._exp_offset(m.a)
        return off | self._stem(m.tag, m.w, m.seq)

    def _encode(self, terms: dict) -> dict:
        """Mono-keyed terms, packed."""
        return {self._key(m): c for m, c in terms.items()}

    def _decode(self, terms: dict) -> dict:
        """Packed terms, keyed by `Mono`s again, in their order."""
        stems, exps, new = self._stems, self._exp_vectors, tuple.__new__
        mask = (1 << _WIDTH) - 1
        out = {}
        for k, c in terms.items():
            tag, w, seq = stems[k & _STEM]
            try:
                a = exps[k >> 32]
            except KeyError:
                a = tuple(k >> 32 + _WIDTH * r & mask for r in range(self.n))
                self._exp_offset(a)  # refuses an entry past the limit
            # tuple.__new__ skips the namedtuple's Python-level __new__
            out[new(Mono, (tag, w, a, seq))] = c
        return out

    # --- generator action ---------------------------------------------------

    def gen_left(self, gen, x: Element) -> Element:
        """Left multiplication by one generator token, checked.

        Tokens: ("e", seq) or ("e", seq, tag), ("y", r), ("psi", r).
        """
        kind = gen[0]
        if kind == "e":
            tag = gen[2] if len(gen) > 2 else TAG_MAIN
            x = self.act(("e", self._check_seq(gen[1])), x)
            return Element(self, {m: c for m, c in x.terms.items() if m.tag == tag})
        if kind == "y":
            self._check_y_index(gen[1])
        elif kind == "psi":
            self._check_psi_index(gen[1])
        else:
            raise BadGeneratorError(f"unknown generator token {gen!r}")
        return self.act(gen, x)

    def act(self, g, x: Element) -> Element:
        """The product g x of one letter and an element: one step of
        `_run_steps`, unchecked.  g is ("y", r), ("psi", r) or ("e", j),
        which keeps the terms with face j on either tag."""
        terms = self._run_steps([self._resolve(g)], self._encode(x.terms))[1]
        return Element(self, self._decode(terms))

    def act_words(self, words, xs):
        """Yield [w x for w in words] for each element x of `xs`, unchecked:
        the words are compiled once into a `SuffixProgram`, whose steps run
        once per x, so words that share a suffix share its value."""
        program = SuffixProgram()
        slots = [program.slot(tuple(word)) for word in words]
        steps = program.resolve(self)
        for x in xs:
            values = self._run_steps(steps, self._encode(x.terms))
            yield [Element(self, self._decode(values[k])) for k in slots]

    def _resolve(self, g, src: int = -1) -> tuple:
        """Letter g as a step of `_run_steps` on slot src: (memo table,
        product, key s << 32, src) for ("y", s) and likewise ("psi", r);
        (None, None, j, src) for ("e", j)."""
        if g[0] == "e":
            return None, None, g[1], src
        return (self._y_steps if g[0] == "y" else self._psi_steps)[g[1]][:3] + (src,)

    def _run_steps(self, steps: list, base: dict) -> list:
        """The packed slot values of the `steps` (see `_resolve`) run on the
        packed terms `base`, slot 0: the one letter action.  An idempotent
        step keeps its face's terms; otherwise each term's product, memoised
        by (g, stem), is shifted by its y^a, one add per key: a term with
        coefficient one that meets no terms yet, as relation words mostly
        do, is copied in, and every other term merged in `_acc1`'s order."""
        faces, (one, add, mul, is_zero) = self._faces, self._ops
        values = [base]
        for table, product, g, src in steps:
            terms = values[src]
            if table is None:
                values.append({k: c for k, c in terms.items()
                               if faces[k & _STEM] == g})
                continue
            out: dict = {}
            for k, c in terms.items():
                stem = k & _STEM
                p = table.get(g | stem)
                if p is None:
                    p = product(self, g, stem)
                off = k - stem
                if not out and c == one:
                    # a shift is injective and no product holds a zero
                    if off:
                        for t, v in p.items():
                            out[t + off] = v
                    else:
                        out.update(p)
                    continue
                unit = c == one
                for t, v in p.items():
                    t += off
                    if not unit:
                        v = mul(c, v)
                    # in a field only a sum of nonzero terms can vanish
                    cur = out.get(t)
                    if cur is None:
                        out[t] = v
                    elif is_zero(v := add(cur, v)):
                        del out[t]
                    else:
                        out[t] = v
            values.append(out)
        return values

    # --- the rewrite core ----------------------------------------------------

    def _y_stem(self, g: int, stem: int) -> dict:
        """Normal form of y_s psi_w e(seq), kept in `_y_cache` by g = s << 32
        and the stem (tag, w, seq).  At w = 1 it is y_s e(seq).  Else
        cw(w) = (c,) + cw(v), and on the face j of psi_v e(seq) the dot
        slide reads y_s psi_c e(j) = psi_c y_t e(j) + (s - t) delta e(j),
        with t = s_c(s) and delta = [j_c = j_{c+1}]: psi_c acts on
        y_t psi_v e(seq)."""
        dom, s = self.dom, g >> 32
        tag, w, seq = self._stems[stem]
        word = self._words[stem]
        if not word:
            out = {stem + self._unit_e[s - 1]: dom.one}  # y_s e(seq)
        else:
            c = word[0]
            v = self._stem(tag, perms.left_mul_s(c, w), seq)
            t = c + 1 if s == c else c if s == c + 1 else s
            out = self._run_steps([self._y_steps[t], self._psi_steps[c]],
                                  {v: dom.one})[2]
            j = self._faces[v]
            if t != s and j[c - 1] == j[c]:
                _acc1(out, v, dom.from_int(s - t), dom)
        self._y_cache[g | stem] = out
        return out

    def _psi_stem(self, g: int, stem: int) -> dict:
        """Normal form of psi_r psi_w e(seq), kept in `_psi_cache` by
        g = r << 32 and the stem (tag, w, seq).

        If r is not a left descent of w, let d be the first letter of
        cw(s_r w): d = r gives psi_{s_r w} e(seq); d < r - 1 is the first
        letter of cw(w) too, and psi_r commutes past psi_d; d = r - 1 gives
        w = s_{r-1} s_r x, and the braid relation rewrites psi_r psi_{r-1}
        psi_r on psi_x e(seq).  If r is a descent, psi_r^2 fires on
        psi_{s_r w} e(seq) through the y products.  Where psi_w e(seq) is
        written as psi_r psi_u e(seq) less its lower terms, psi_r acts on
        those lower terms too.  Every nested product has a shorter stem, or
        the same length and a smaller psi letter."""
        dom, r = self.dom, g >> 32
        tag, w, seq = self._stems[stem]
        psi, one, minus = self._psi_steps, dom.one, dom.neg(dom.one)

        def lower(u, top):
            """psi_r psi_u e(seq) less psi_top e(seq), for r not a left
            descent of u and s_r u = top: terms shorter than top."""
            low = self._run_steps([psi[r]], {u: one})[1]
            _acc1(low, top, minus, dom)
            return low

        if perms.is_left_descent(w, r):
            u = self._stem(tag, perms.left_mul_s(r, w), seq)
            # psi_r^2 e(j) at the face j of psi_u e(seq)
            jr, js = self._faces[u][r - 1:r + 1]
            out, ys = {}, ()
            if jr == js:
                pass  # psi_r^2 e(j) = 0
            elif self.arrow(tag, jr, js):
                ys = ((r, 1), (r + 1, -1))
            elif self.arrow(tag, js, jr):
                ys = ((r + 1, 1), (r, -1))
            else:
                out[u] = one
            for s, sign in ys:
                _acc(out, self._run_steps([self._y_steps[s]], {u: one})[1],
                     dom.from_int(sign), dom)
            _acc(out, self._run_steps([psi[r]], lower(u, stem))[1], minus, dom)
        else:
            up = self._stem(tag, perms.left_mul_s(r, w), seq)
            d = self._words[up][0]
            v = self._stem(tag, perms.left_mul_s(d, w), seq)
            if d == r:
                out = {up: one}
            elif d < r - 1:
                out = self._run_steps([psi[r], psi[d]], {v: one})[2]
            else:
                x = self._stem(tag, perms.left_mul_s(r, self._stems[v][1]), seq)
                out = self._run_steps([psi[d], psi[r], psi[d]], {x: one})[3]
                _acc(out, self._run_steps([psi[d], psi[r]], lower(x, v))[2],
                     minus, dom)
                # psi_r psi_d psi_r e(j) = psi_d psi_r psi_d e(j) + beta e(j)
                # on the face j of psi_x e(seq)
                ja, jb, jc = self._faces[x][d - 1:r + 1]
                beta = self.arrow(tag, ja, jb) - self.arrow(tag, jb, ja)
                if ja == jc and beta:
                    _acc1(out, x, dom.from_int(beta), dom)
        self._psi_cache[g | stem] = out
        return out

    # --- products ------------------------------------------------------------

    def multiply(self, x: Element, y: Element) -> Element:
        """x y: each term m1 = psi_w y^a e(i) of x acts on the terms of y
        that it meets, letter by letter: y^a, then psi_w right to left.

        The algebra is the sum of its pieces e(i) R e(j), so m1 m2 is zero
        unless m2's face carries m1's tag and sequence; y's terms are
        packed and grouped by (tag, face), in their order.
        """
        self._check_same(x.ctx)
        self._check_same(y.ctx)
        by_face: dict = {}
        for m2, c2 in y.terms.items():
            k = self._key(m2)
            by_face.setdefault((m2.tag, self._faces[k & _STEM]), {})[k] = c2
        y, psi = self._y_steps, self._psi_steps
        out: dict = {}
        for m1, c1 in x.terms.items():
            terms = by_face.get((m1.tag, m1.seq))
            if terms is None:
                continue
            if sum(m1.a) >= _LIMIT:
                raise ShapeError(f"exponent {m1.a} sums to {_LIMIT} or more")
            steps = [y[s] for s, k in enumerate(m1.a, start=1) for _ in range(k)]
            steps += [psi[c] for c in reversed(canonical_word(m1.w))]
            _acc(out, self._run_steps(steps, terms)[-1], c1, self.dom)
        return Element(self, self._decode(out))

    def word_element(self, tokens, seq, tag: str = TAG_MAIN) -> Element:
        """Right-fold evaluation of a generator word onto e(seq)."""
        x = self.e(seq, tag)
        for gen in reversed(list(tokens)):
            x = self.gen_left(gen, x)
        return x

    # --- basis enumeration ----------------------------------------------------

    def exponents_upto(self, bound: int) -> tuple:
        """All a in N^n with |a| <= bound, lexicographic; a negative bound
        is refused, not read as an empty truncation."""
        if bound < 0:
            raise ShapeError("bound must be >= 0")
        out = [()]
        for _ in range(self.n):
            out = [a + (v,) for a in out for v in range(bound + 1 - sum(a))]
        return tuple(out)

    def enumerate_basis(self, root: Root, bound: int, tags=(TAG_MAIN,)):
        """All basis monomials over I^beta with |a| <= bound, in the canonical
        (tag, word, exponents, sequence) sort.  No degree is computed."""
        if root.height != self.n:
            raise ShapeError(f"root height {root.height} != n = {self.n}")
        seqs = self.block_seqs(root)
        monos = [Mono(tag, w, a, s)
                 for tag in tags
                 for w in perms.all_perms(self.n)
                 for a in self.exponents_upto(bound)
                 for s in seqs]
        monos.sort(key=self.mono_sort_key)
        return monos


# --- the defining presentation, written once ------------------------------------

# Letters of the relation words: ("y", k) and ("psi", k) sit at position r + k,
# or at s when k is "s"; E is e(i) for the instance's sequence i, F its
# correction idempotent and SWAP is e(s_r i).
E, F, SWAP = ("E",), ("F",), ("SWAP",)
Y_R, Y_R1, Y_S = ("y", 0), ("y", 1), ("y", "s")
PSI_R, PSI_R1, PSI_S = ("psi", 0), ("psi", 1), ("psi", "s")

# The relation families after the idempotent ones, in report order:
# (family, index range, lhs word, rhs word, correction).  A word is a product
# written left to right.  The correction is added to the rhs:
#   "delta"   E when i_r = i_{r+1};
#   "square"  the whole rhs Q_{i_r, i_{r+1}}(y_r, y_{r+1}) F: (y_r - y_{r+1}) F
#             for an arrow i_r -> i_{r+1}, (y_{r+1} - y_r) F for the reverse
#             arrow, E with no arrow and 0 when i_r = i_{r+1};
#   "braid"   -F when i_r = i_{r+2} and i_r -> i_{r+1}, +F when i_r = i_{r+2}
#             and i_{r+1} -> i_r.
KLR_RELATIONS = (
    ("y e", "r <= n", (Y_R, E), (E, Y_R), None),
    ("psi e", "r < n", (PSI_R, E), (SWAP, PSI_R), None),
    ("y y", "r < s <= n", (Y_R, Y_S, E), (Y_S, Y_R, E), None),
    ("psi y", "r < n", (PSI_R, Y_R1, E), (Y_R, PSI_R, E), "delta"),
    ("y psi", "r < n", (Y_R1, PSI_R, E), (PSI_R, Y_R, E), "delta"),
    ("psi y far", "r < n, s far", (PSI_R, Y_S, E), (Y_S, PSI_R, E), None),
    ("psi psi far", "r, s < n far", (PSI_R, PSI_S, E), (PSI_S, PSI_R, E), None),
    ("psi psi", "r < n", (PSI_R, PSI_R, E), None, "square"),
    ("braid", "r < n - 1", (PSI_R, PSI_R1, PSI_R, E), (PSI_R1, PSI_R, PSI_R1, E),
     "braid"),
)

_RANGES = {
    "r <= n": lambda n: [(r, None) for r in range(1, n + 1)],
    "r < n": lambda n: [(r, None) for r in range(1, n)],
    "r < n - 1": lambda n: [(r, None) for r in range(1, n - 1)],
    "r < s <= n": lambda n: [(r, s) for r in range(1, n + 1)
                             for s in range(r + 1, n + 1)],
    "r < n, s far": lambda n: [(r, s) for r in range(1, n) for s in range(1, n + 1)
                               if s not in (r, r + 1)],
    "r, s < n far": lambda n: [(r, s) for r in range(1, n) for s in range(1, n)
                               if abs(r - s) > 1],
}


def _correction(kind, r, i, arrow) -> list:
    """The signed words that a row's correction adds to its rhs, with their
    generators placed at r."""
    if kind == "delta" and i[r - 1] == i[r]:
        return [(1, (E,))]
    if kind == "square" and i[r - 1] != i[r]:
        y_r, y_r1 = ("y", r), ("y", r + 1)
        if arrow(i[r - 1], i[r]):
            return [(1, (y_r, F)), (-1, (y_r1, F))]
        if arrow(i[r], i[r - 1]):
            return [(1, (y_r1, F)), (-1, (y_r, F))]
        return [(1, (E,))]
    if kind == "braid" and i[r - 1] == i[r + 1]:
        if arrow(i[r - 1], i[r]):
            return [(-1, (F,))]
        if arrow(i[r], i[r - 1]):
            return [(1, (F,))]
    return []


class SuffixProgram:
    """Words compiled into one slot per distinct suffix.

    Slot 0 holds the base; step k, a pair (letter, source slot), computes
    slot k + 1 as the letter acting on the source slot's terms.  A run of
    the resolved steps acts each once, in order, so words sharing a suffix
    share its product and no word is looked up."""

    def __init__(self):
        self.slots = {(): 0}
        self.steps: list = []

    def slot(self, word: tuple) -> int:
        """The slot of `word`, appending a step for each of its suffixes
        not compiled yet, shortest first."""
        if len(word) >= _LIMIT:
            raise ShapeError(f"a word of {_LIMIT} letters or more")
        t = 0
        while (k := self.slots.get(word[t:])) is None:
            t += 1
        for t in range(t - 1, -1, -1):
            self.steps.append((word[t], k))
            k = self.slots[word[t:]] = len(self.steps)
        return k

    def resolve(self, ctx: KLR) -> list:
        """The steps, resolved for `ctx` (`KLR._resolve`)."""
        return [ctx._resolve(g, src) for g, src in self.steps]


def relation_instances(labels, n: int, views=((None, frozenset()),), bare=None):
    """Every instance of KLR_RELATIONS: yields (family, row label, r, s,
    diff), with s None in rows of one index and diff None where the row
    holds, else the Element lhs - rhs.

    `labels` holds (label, sequence i, base Element) triples: every word of
    a label acts on the terms of its base, right to left, letter by letter
    through `KLR._run_steps`.  Each (key, odd) of `views` reads the rows
    off that one run, each word `twisted` by `odd`, under the row label
    `label` for key None and (label, key) otherwise.  `bare`, if given, is
    (families, unit base): those families are checked once, with label
    None, their words leaving E out and acting on the unit base.

    The instances come label by label (the bare families last), view by
    view within a label and, within a view, in table order, so each
    family's instances are in row-label-major order.  A label's checks
    depend on it only through its sequence, so each sequence's words are
    compiled once into a `SuffixProgram`, its letters resolved for the
    sequence, and its views' checks built with it; a row compares term
    dicts."""
    families, unit = bare or ((), None)
    labelled, bare_rows = [], []
    for family, indices, lhs, rhs, correction in KLR_RELATIONS:
        if family in families:
            lhs, rhs = (tuple(g for g in word if g != E) for word in (lhs, rhs))
        (bare_rows if family in families else labelled).extend(
            (family, r, s, _place(lhs, r, s), rhs and _place(rhs, r, s), correction)
            for r, s in _RANGES[indices](n))
    for rows, triples in ((labelled, labels),
                          (bare_rows, [(None, None, unit)] if bare_rows else [])):
        compiled: dict = {}
        for label, i, base in triples:
            ctx = base.ctx
            if i not in compiled:
                program = SuffixProgram()
                checks = _checks(program, rows, ctx, i, views)
                compiled[i] = program.resolve(ctx), checks
            steps, checks = compiled[i]
            values = ctx._run_steps(steps, ctx._encode(base.terms))
            for (key, _), view in zip(views, checks):
                row_label = label if key is None else (label, key)
                for family, r, s, lhs, lhs_odd, rhs in view:
                    left = values[lhs]
                    right = values[rhs] if type(rhs) is int else _signed_sum(
                        ((sign, values[k], flip) for sign, k, flip in rhs), ctx)
                    diff = None if left == right else Element(ctx, ctx._decode(
                        _signed_sum(((1, left, lhs_odd), (-1, right, lhs_odd)), ctx)))
                    yield family, row_label, r, s, diff


def _checks(program: SuffixProgram, rows, ctx: KLR, i, views) -> list:
    """The checks of sequence i, one list per (key, odd) of `views`.  A
    check is (family, r, s, lhs slot, lhs odd, rhs): the rhs is the slot of
    a word read as the lhs is, else its (sign, slot, flip) parts, flipped
    where a word's parity differs from the lhs's.  Each word is compiled
    once, with E and F resolved to ("e", i) and ("swap", r) to ("e", s_r
    i); its parity in a view is counted on its placed letters, F as its own
    kind."""

    def slot(word):
        return program.slot(tuple(
            ("e", i) if g in (E, F) else
            ("e", i[:g[1] - 1] + (i[g[1]], i[g[1] - 1]) + i[g[1] + 1:])
            if g[0] == "swap" else g for g in word))

    # the corrections read the quiver's arrows, not the engine's
    # `KLR.arrow`, so a fault in the engine's orientation shows in the rows
    arrow = ctx.quiver.has_edge
    checks = [[] for _ in views]
    for family, r, s, lhs, rhs, correction in rows:
        words = [(1, lhs)] + ([(1, rhs)] if rhs else []) + _correction(
            correction, r, i, arrow)
        left, *slots = [slot(word) for _, word in words]
        for (_, odd), view in zip(views, checks):
            p, *odds = [sum(g[0] in odd for g in word) % 2 for _, word in words]
            parts = [(sign, k, q != p)
                     for (sign, _), k, q in zip(words[1:], slots, odds)]
            if len(parts) == 1 and parts[0][0] == 1 and not parts[0][2]:
                parts = parts[0][1]
            view.append((family, r, s, left, p, parts))
    return checks


def _place(word, r, s) -> tuple:
    """A table word with its generators at their positions; E and F stay,
    and SWAP becomes ("swap", r)."""
    return tuple(g if g in (E, F) else ("swap", r) if g == SWAP
                 else (g[0],) + tuple(s if k == "s" else r + k for k in g[1:])
                 for g in word)


def _signed_sum(parts, ctx: KLR) -> dict:
    """The sum of sign * terms over the (sign, packed terms, flip) of
    `parts`, the G' terms of a flipped part negated, a term's tag read from
    its stem.  No terms hold a zero, so a first part taken as it is is
    copied whole."""
    dom, stems = ctx.dom, ctx._stems
    out: dict = {}
    for sign, terms, flip in parts:
        if not out and sign > 0 and not flip:
            out.update(terms)
            continue
        for k, c in terms.items():
            if (sign < 0) != (flip and stems[k & _STEM][0] == TAG_OPP):
                c = dom.neg(c)
            _acc1(out, k, c, dom)
    return out


def twisted(x: Element, word: tuple, odd) -> Element:
    """x, the value of `word` under tag-preserving letters, with its G' terms
    negated when an odd number of the word's letters are of a kind in `odd`."""
    if sum(g[0] in odd for g in word) % 2 == 0:
        return x
    ctx = x.ctx
    return Element(ctx, ctx._decode(_signed_sum(((1, ctx._encode(x.terms), True),),
                                                ctx)))
