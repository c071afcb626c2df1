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

At n = 3, bound 0, where the braid rows run and a block can hold three
distinct vertices, the same runs take about 8 s of CPU on all 36 pairs, so
a fixed sample runs there: every pair on at most three vertices and the
four-vertex pairs of `FOUR_VERTEX_SAMPLE`, about 3.5 s.
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

# (arrows, tau) of the four-vertex pairs run at n = 3: all but the complete
# quiver leave two distinct vertices unjoined
FOUR_VERTEX_SAMPLE = [
    ((), (0, 1, 2, 3)),  # no arrow, tau fixing every vertex
    (((0, 1),), (1, 0, 3, 2)),  # one arrow and two unjoined vertices
    (((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), (3, 2, 1, 0)),  # complete
    (((0, 1), (0, 2), (1, 2)), (2, 1, 0, 3)),  # a triangle and a lone vertex
    (((0, 1), (0, 2), (1, 3), (2, 3)), (3, 1, 2, 0)),  # a square, tau-fixed corners
    (((0, 1), (1, 2)), (2, 1, 0, 3)),  # a path and a lone vertex
    (((0, 1), (1, 2), (2, 3)), (3, 2, 1, 0)),  # the path A_4
    (((0, 1), (2, 3)), (1, 0, 3, 2)),  # two arrows, each reversed onto itself
]
N3_SAMPLE = [c for c in CATALOGUE if len(c[0]) <= 3] + [
    ((0, 1, 2, 3), arrows, tau) for arrows, tau in FOUR_VERTEX_SAMPLE]


def pair_id(pair) -> str:
    vs, arrows, tau = pair
    return f"{len(vs)}v-{list(arrows)}-tau{list(tau)}"


def run_suites(pair, n: int, bound: int, monkeypatch, capsys) -> None:
    """Every suite of SUITES on the pair, in-process: each exits 0 with no
    FAIL line."""
    vertices, arrows, tau = pair
    monkeypatch.setattr(suites, "POOL_MIN_WORK", 10**9)
    spec = json.dumps({"name": "catalogue", "vertices": list(vertices),
                       "edges": [list(a) for a in arrows],
                       "tau": {str(v): t for v, t in zip(vertices, tau)}})
    for suite, flags in SUITES.items():
        code = main(["verify", suite, "--quiver", spec, "--n", str(n),
                     "--bound", str(bound), *flags])
        out = capsys.readouterr().out
        assert code == 0 and "FAIL" not in out, (suite, out)


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
    # the n = 3 sample is drawn from the catalogue, each pair once
    assert len(N3_SAMPLE) == len(set(N3_SAMPLE)) == 10 + 8
    assert set(N3_SAMPLE) <= set(CATALOGUE)


@pytest.mark.parametrize("vertices, arrows, tau", CATALOGUE,
                         ids=map(pair_id, CATALOGUE))
def test_suites_pass_on_every_small_quiver(vertices, arrows, tau, monkeypatch, capsys):
    run_suites((vertices, arrows, tau), 2, 1, monkeypatch, capsys)


@pytest.mark.parametrize("pair", N3_SAMPLE, ids=map(pair_id, N3_SAMPLE))
def test_suites_pass_at_n3_on_a_sample(pair, monkeypatch, capsys):
    run_suites(pair, 3, 0, monkeypatch, capsys)
