"""Words as oracles shared by the tests: the permutation of a word, for
the permutation utilities and the expression round trips, and a word's
value folded one letter at a time, for the engine's products."""


def word_perm(word, n: int) -> tuple:
    """Product s_{word[0]} o ... o s_{word[-1]}."""
    p = list(range(n))
    for r in word:
        # right-multiplying by s_r swaps the entries at positions r-1, r
        p[r - 1], p[r] = p[r], p[r - 1]
    return tuple(p)


def fold(ctx, word, x):
    """word x, its letters acting on x one at a time through `KLR.act`,
    right to left."""
    for g in reversed(word):
        x = ctx.act(g, x)
    return x
