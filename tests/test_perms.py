"""Permutation utilities: lengths, canonical words."""

import doctest

import pytest

from klrcalc import perms
from klrcalc.perms import (act, all_perms, canonical_word, identity,
                           left_descents, left_mul_s, length)
from words import word_perm


def compose(p, q):
    """(p o q)(k) = p(q(k))."""
    return tuple(p[q[k]] for k in range(len(p)))


def inverse(p):
    inv = [0] * len(p)
    for k, v in enumerate(p):
        inv[v] = k
    return tuple(inv)


def bubble_swaps(p):
    """Oracle: the adjacent swaps bubble sort makes, one per inversion."""
    q, swaps = list(p), 0
    for end in range(len(q) - 1, 0, -1):
        for k in range(end):
            if q[k] > q[k + 1]:
                q[k], q[k + 1] = q[k + 1], q[k]
                swaps += 1
    return swaps


def brute_reduced_words(p):
    """Oracle: enumerate every reduced word by breadth-first search, its
    lengths read off `bubble_swaps`, not the code under test."""
    n = len(p)
    ell = bubble_swaps(p)
    if ell == 0:
        return [()]
    out = []
    for r in range(1, n):
        q = left_mul_s(r, p)
        if bubble_swaps(q) < ell:
            out.extend((r,) + tail for tail in brute_reduced_words(q))
    return out


def test_left_mul_swaps_the_values():
    # against the definition it replaced: s_r o p maps the value r - 1 to r
    # and r to r - 1
    for n in range(1, 6):
        for p in all_perms(n):
            for r in range(1, n):
                a, b = r - 1, r
                assert left_mul_s(r, p) == tuple(b if v == a else a if v == b
                                                 else v for v in p)
                assert type(left_mul_s(r, p)) is tuple


def test_word_perm_and_length():
    assert word_perm((), 3) == (0, 1, 2)
    assert word_perm((1,), 3) == (1, 0, 2)
    assert word_perm((1, 2), 3) == compose(word_perm((1,), 3), word_perm((2,), 3))
    w0 = (2, 1, 0)
    assert length(w0) == 3
    assert word_perm((1, 2, 1), 3) == w0 == word_perm((2, 1, 2), 3)


def test_length_counts_inversions():
    # twice over S_5: the second pass reads the canonical words the first
    # one cached
    for _ in range(2):
        for p in all_perms(5):
            assert length(p) == bubble_swaps(p)


def test_inverse_and_act_is_group_action():
    for p in all_perms(4):
        assert compose(p, inverse(p)) == identity(4)
    seq = ("a", "b", "c", "d")
    for p in all_perms(4):
        for q in all_perms(4):
            assert act(p, act(q, seq)) == act(compose(p, q), seq)


def test_act_simple_transposition_swaps_entries():
    s2 = word_perm((2,), 3)
    assert act(s2, (10, 20, 30)) == (10, 30, 20)


def test_canonical_word_longest_s3():
    # both reduced words of the longest element, lex-min is (1,2,1)
    assert sorted(brute_reduced_words((2, 1, 0))) == [(1, 2, 1), (2, 1, 2)]
    assert canonical_word((2, 1, 0)) == (1, 2, 1)
    assert canonical_word((0, 1, 2)) == ()
    assert canonical_word((1, 0, 2)) == (1,)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonical_word_is_lex_least_reduced(n):
    for p in all_perms(n):
        words = brute_reduced_words(p)
        cw = canonical_word(p)
        assert cw == min(words)
        assert len(cw) == length(p)
        assert word_perm(cw, n) == p


def test_left_descents():
    assert left_descents((0, 1, 2)) == []
    assert left_descents((2, 1, 0)) == [1, 2]
    assert left_descents((1, 0, 2)) == [1]


def test_module_doctests_run():
    result = doctest.testmod(perms)
    assert result.attempted > 0 and result.failed == 0
