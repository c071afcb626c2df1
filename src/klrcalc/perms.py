"""
Symmetric group utilities on one-line permutations of `range(n)`.

A permutation is a tuple `w` with `w[k]` the image of `k`.  Simple
transpositions are indexed 1-based: `s_r` swaps `r-1` and `r`, matching the
1-based indexing of the algebra generators built on top of them.

Every permutation gets one distinguished reduced word, the lexicographically
least one, via the recursion "smallest left descent first", so
cw(p) = (c,) + cw(s_c p) for c the smallest left descent of p.

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

