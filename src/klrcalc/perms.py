"""
Symmetric group utilities on one-line permutations of `range(n)`.

A permutation is a tuple `w` with `w[k]` the image of `k`.  Simple
transpositions are indexed 1-based: `s_r` swaps `r-1` and `r`, matching the
1-based indexing of the algebra generators built on top of them.

Every permutation gets one distinguished reduced word, the lexicographically
least one, via the recursion "smallest left descent first".  `move_path`
connects any two reduced words of the same permutation by elementary
commutation and braid moves; callers walk the path and account for the braid
corrections themselves.

>>> canonical_word((2, 1, 0))
(1, 2, 1)
>>> act((1, 0, 2), ('a', 'b', 'c'))
('b', 'a', 'c')
"""

from __future__ import annotations

import itertools

Perm = tuple

_CANWORD_CACHE: dict = {}
_LENGTH_CACHE: dict = {}
_MOVE_PATH_CACHE: dict = {}


def identity(n: int) -> Perm:
    return tuple(range(n))


def length(p: Perm) -> int:
    """Number of inversions = Coxeter length."""
    cached = _LENGTH_CACHE.get(p)
    if cached is not None:
        return cached
    n = len(p)
    out = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
    _LENGTH_CACHE[p] = out
    return out


def left_mul_s(r: int, p: Perm) -> Perm:
    """s_r o p: swaps the values r-1 and r."""
    q = list(p)
    q[p.index(r - 1)], q[p.index(r)] = r, r - 1
    return tuple(q)


def right_mul_s(p: Perm, r: int) -> Perm:
    """p o s_r: swaps the entries at positions r-1 and r."""
    q = list(p)
    q[r - 1], q[r] = q[r], q[r - 1]
    return tuple(q)


def is_left_descent(p: Perm, r: int) -> bool:
    """True iff l(s_r p) < l(p), i.e. the value r-1 sits right of the value r."""
    return p.index(r - 1) > p.index(r)


def left_descents(p: Perm) -> list:
    return [r for r in range(1, len(p)) if is_left_descent(p, r)]


def word_perm(word, n: int) -> Perm:
    """Product s_{word[0]} o ... o s_{word[-1]}."""
    p = list(range(n))
    for r in word:
        # right-multiplying by s_r swaps the entries at positions r-1, r
        p[r - 1], p[r] = p[r], p[r - 1]
    return tuple(p)


def act(p: Perm, seq: tuple) -> tuple:
    """Place action on sequences: (p . seq)[p[k]] = seq[k]."""
    out = [None] * len(seq)
    for k, v in enumerate(seq):
        out[p[k]] = v
    return tuple(out)


def canonical_word(p: Perm) -> tuple:
    """The lex-least reduced word of p (smallest left descent first)."""
    cached = _CANWORD_CACHE.get(p)
    if cached is not None:
        return cached
    word = []
    q = p
    while True:
        ds = left_descents(q)
        if not ds:
            break
        r = ds[0]
        word.append(r)
        q = left_mul_s(r, q)
    out = tuple(word)
    _CANWORD_CACHE[p] = out
    return out


def all_perms(n: int):
    return [tuple(p) for p in itertools.permutations(range(n))]


# --- elementary move paths between reduced words -------------------------
#
# A move is ("comm", t): swap the distant letters at positions t, t+1, or
# ("braid", t): replace (x, y, x) at positions t..t+2 by (y, x, y), |x-y|=1.


def move_path(w1: tuple, w2: tuple, n: int) -> tuple:
    """A sequence of elementary moves turning the reduced word w1 into w2.

    Both words must be reduced words for the same permutation.
    """
    key = (w1, w2)
    cached = _MOVE_PATH_CACHE.get(key)
    if cached is not None:
        return cached
    out = tuple(_move_path(w1, w2, n))
    _MOVE_PATH_CACHE[key] = out
    return out


def _shift(moves, d):
    return [(kind, t + d) for kind, t in moves]


def _move_path(w1, w2, n):
    if len(w1) != len(w2):
        raise ValueError("words of different lengths")
    if not w1:
        return []
    a, b = w1[0], w2[0]
    if a == b:
        return _shift(_move_path(w1[1:], w2[1:], n), 1)
    v = word_perm(w1, n)
    if abs(a - b) > 1:
        # a, b are commuting left descents of v, so v = s_a s_b z reduced
        z = canonical_word(left_mul_s(b, left_mul_s(a, v)))
        path = _shift(_move_path(w1[1:], (b,) + z, n), 1)
        path.append(("comm", 0))
        path.extend(_shift(_move_path((a,) + z, w2[1:], n), 1))
        return path
    # adjacent descents: the parabolic factor is the full braid s_a s_b s_a
    z = canonical_word(left_mul_s(a, left_mul_s(b, left_mul_s(a, v))))
    path = _shift(_move_path(w1[1:], (b, a) + z, n), 1)
    path.append(("braid", 0))
    path.extend(_shift(_move_path((a, b) + z, w2[1:], n), 1))
    return path
