"""Permutations from words, an oracle shared by the tests of the
permutation utilities and of the expression round trips."""


def word_perm(word, n: int) -> tuple:
    """Product s_{word[0]} o ... o s_{word[-1]}."""
    p = list(range(n))
    for r in word:
        # right-multiplying by s_r swaps the entries at positions r-1, r
        p[r - 1], p[r] = p[r], p[r - 1]
    return tuple(p)
