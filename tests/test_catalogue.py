"""The verify suites on every small quiver with a reversal map.

The paper states its basis theorem and presentation for simply-laced
quivers in general.  This module lists every pair (Q, tau) of a simple
oriented quiver Q on one to four vertices (no loops, at most one arrow
between two vertices) and an involution tau of its vertices with u -> v an
arrow iff tau(v) -> tau(u), up to isomorphism: 36 pairs, disconnected
quivers and tau-fixed vertices included.  Each pair runs klr-relations,
alt-presentation, signed-relations and clifford at n = 2, bound 1,
in-process; the fuzz and clifford's sampled pairs are cut to a fifth and a
quarter of their defaults, which keeps the 144 runs near 3 s.  Unlike
cycle(3), many of these quivers have two distinct vertices with no arrow
between them, so the rewriting's psi_r^2 e(i) = e(i) branch runs.
"""

import json
from itertools import combinations, permutations, product

import pytest

from klrcalc import suites
from klrcalc.cli import main

SUITES = {"klr-relations": ["--fuzz", "20"], "alt-presentation": [],
          "signed-relations": [], "clifford": ["--max-pairs", "100"]}


def catalogue(max_vertices: int = 4) -> list:
    """(vertices, arrows, tau) per isomorphism class, tau as a tuple of
    images: each class once, as the least relabelling of its members."""
    found = set()
    for size in range(1, max_vertices + 1):
        vs = range(size)
        pairs = list(combinations(vs, 2))
        for choice in product((None, 0, 1), repeat=len(pairs)):
            arrows = frozenset(pair[::-1] if c else pair
                               for pair, c in zip(pairs, choice) if c is not None)
            for tau in permutations(vs):
                if any(tau[tau[v]] != v for v in vs) or \
                        any((tau[v], tau[u]) not in arrows for u, v in arrows):
                    continue
                # relabel v -> p[v]: arrows (p[u], p[v]), tau' = p tau p^-1
                found.add(min(
                    (size, tuple(sorted((p[u], p[v]) for u, v in arrows)),
                     tuple(p[tau[p.index(x)]] for x in vs))
                    for p in permutations(vs)))
    return [(tuple(range(size)), arrows, tau) for size, arrows, tau in sorted(found)]


CATALOGUE = catalogue()


def test_catalogue_counts():
    sizes = [len(vs) for vs, _, _ in CATALOGUE]
    assert [sizes.count(k) for k in (1, 2, 3, 4)] == [1, 3, 6, 26]
    # some quivers are disconnected or leave vertices unjoined, some have
    # tau-fixed vertices, and some reverse an arrow onto itself
    assert any(len(arrows) < len(vs) - 1 for vs, arrows, _ in CATALOGUE)
    assert any(len(vs) > 1 and not arrows for vs, arrows, _ in CATALOGUE)
    assert any(tau[v] == v for vs, _, tau in CATALOGUE for v in vs)
    assert any((tau[v], tau[u]) == (u, v) for _, arrows, tau in CATALOGUE
               for u, v in arrows)


@pytest.mark.parametrize("vertices, arrows, tau", CATALOGUE,
                         ids=[f"{len(vs)}v-{list(a)}-tau{list(t)}"
                              for vs, a, t in CATALOGUE])
def test_suites_pass_on_every_small_quiver(vertices, arrows, tau, monkeypatch, capsys):
    monkeypatch.setattr(suites, "POOL_MIN_WORK", 10**9)
    spec = json.dumps({"name": "catalogue", "vertices": list(vertices),
                       "edges": [list(a) for a in arrows],
                       "tau": {str(v): t for v, t in zip(vertices, tau)}})
    for suite, flags in SUITES.items():
        code = main(["verify", suite, "--quiver", spec, "--n", "2", "--bound", "1",
                     *flags])
        out = capsys.readouterr().out
        assert code == 0 and "FAIL" not in out, (suite, out)
