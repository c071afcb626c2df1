"""Quivers, reversal maps, roots, sequences, tau classes."""

import json
import math
import random

import pytest

import klrcalc as K
from klrcalc.algebra import TAG_MAIN, TAG_OPP
from klrcalc.quiver import (InvalidQuiverError, ReversalMismatchError,
                            ReversalNotInvolutiveError, TauClosureError,
                            UnsupportedParameterError, build_quiver,
                            parse_quiver_arg)


def test_cycle3_structure():
    q = K.cycle(3)
    assert q.vertices == (0, 1, 2)
    assert q.edges == frozenset({(0, 1), (1, 2), (2, 0)})
    assert q.cartan_matrix() == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


def test_path_family():
    q = K.path(1)
    assert q.vertices == (0,) and not q.edges
    assert q.cartan_matrix() == ((2,),)
    q2 = K.path(2)
    assert q2.edges == frozenset({(0, 1)})
    assert q2.cartan_matrix() == ((2, -1), (-1, 2))


def test_infinite_line_window():
    q = K.cycle(0, window=2)
    assert q.vertices == (-2, -1, 0, 1, 2)
    assert (1, 2) in q.edges and (2, -2) not in q.edges
    tau = K.default_reversal(q)
    assert tau.seq((1,)) == (-1,)


def test_bad_parameters():
    with pytest.raises(UnsupportedParameterError):
        K.cycle(1)
    with pytest.raises(UnsupportedParameterError):
        K.cycle(2)
    with pytest.raises(UnsupportedParameterError):
        K.path(0)


def test_invalid_quivers_name_offenders():
    with pytest.raises(InvalidQuiverError, match="double edge"):
        K.make_quiver("bad", [0, 1], [(0, 1), (1, 0)])
    with pytest.raises(InvalidQuiverError, match="loop"):
        K.make_quiver("bad", [0, 1], [(0, 0)])
    with pytest.raises(InvalidQuiverError, match="at least one vertex"):
        K.make_quiver("bad", [], [])
    with pytest.raises(InvalidQuiverError, match=r"repeated arrow \(0, 1\)"):
        K.make_quiver("bad", [0, 1], [(0, 1), (0, 1)])
    with pytest.raises(InvalidQuiverError, match="repeated vertex 0"):
        K.make_quiver("bad", [0, 0, 1], [(0, 1)])


def test_opposite_involution_and_cartan_invariance():
    # the engine's opposite copy reverses every arrow, and its Cartan
    # matrix, read off its arrows, is the quiver's
    for q in (K.cycle(3), K.path(3), K.cycle(5)):
        ctx = K.KLR(q, 1)
        for u in q.vertices:
            for v in q.vertices:
                assert ctx.arrow(TAG_OPP, u, v) == ctx.arrow(TAG_MAIN, v, u)
                joined = ctx.arrow(TAG_OPP, u, v) or ctx.arrow(TAG_OPP, v, u)
                if u != v:
                    assert q.cartan_entry(u, v) == (-1 if joined else 0)
    ctx = K.KLR(K.cycle(3), 1)
    assert {(u, v) for u in range(3) for v in range(3)
            if ctx.arrow(TAG_OPP, u, v)} == {(1, 0), (2, 1), (0, 2)}


def test_validate_reversal_cycle3():
    q = K.cycle(3)
    tau = K.validate_reversal(q, {0: 0, 1: 2, 2: 1})
    assert tau.seq((1,)) == (2,)

    # oracle: check the edge condition of i -> i+1 by hand enumeration
    shift = {i: (i + 1) % 3 for i in range(3)}
    witnesses = [(u, v) for (u, v) in q.edges
                 if not q.has_edge(shift[v], shift[u])]
    assert witnesses  # the shift is not a reversal
    with pytest.raises(ReversalMismatchError) as exc:
        K.validate_reversal(q, shift)
    assert exc.value.witness in witnesses

    # involutivity check needs an edge-compatible non-involution: no edges
    edgeless = K.make_quiver("three", [0, 1, 2], [])
    with pytest.raises(ReversalNotInvolutiveError):
        K.validate_reversal(edgeless, {0: 1, 1: 2, 2: 0})


def test_identity_accepted_iff_self_opposite():
    q = K.make_quiver("two", [0, 1], [])
    K.validate_reversal(q, {0: 0, 1: 1})  # no edges: fine
    with pytest.raises(ReversalMismatchError):
        K.validate_reversal(K.path(2), {0: 0, 1: 1})


def test_sequences_examples():
    q = K.cycle(3)
    assert K.sequences(q, K.make_root(q, {0: 1, 1: 1})) == ((0, 1), (1, 0))
    assert K.sequences(q, K.make_root(q, {0: 2})) == ((0, 0),)
    assert len(K.sequences(q, K.make_root(q, {0: 1, 1: 1, 2: 1}))) == 6


def test_sequences_random_roots_content_and_count():
    rng = random.Random(0)
    q = K.cycle(3)
    for _ in range(1000):
        content = {v: rng.randint(0, 2) for v in q.vertices}
        root = K.make_root(q, content)
        seqs = K.sequences(q, root)
        assert len(set(seqs)) == len(seqs)
        counts = [content.get(v, 0) for v in q.vertices]
        expect = math.factorial(sum(counts))
        for c in counts:
            expect //= math.factorial(c)
        assert len(seqs) == expect
        for s in seqs:
            assert K.root_of_seq(q, s) == root


def test_tau_classes_example():
    q = K.cycle(3)
    tau = K.default_reversal(q)
    table = K.tau_classes(q, [(0, 1), (0, 2), (1, 0), (2, 0)], tau)
    assert dict(zip(table.classes, table.reps)) == {
        ((0, 1), (0, 2)): (0, 1), ((1, 0), (2, 0)): (1, 0)}

    fixed = K.tau_classes(q, [(0, 0)], tau)
    assert fixed.classes == (((0, 0),),)

    with pytest.raises(TauClosureError) as exc:
        K.tau_classes(q, [(0, 1)], tau)
    assert exc.value.witness == (0, 1)


def test_tau_classes_partition_properties():
    q = K.cycle(5)
    tau = K.default_reversal(q)
    seqs = K.all_seqs(q, 2)
    table = K.tau_classes(q, seqs, tau)
    seen = [s for cls in table.classes for s in cls]
    assert sorted(seen) == sorted(seqs)  # each element in exactly one class
    for cls in table.classes:
        assert {tau.seq(s) for s in cls} == set(cls)
    # fixed-point-free case: no tau-fixed sequence of length 1 over {1,..,4}
    seqs1 = [(v,) for v in (1, 2, 3, 4)]
    t1 = K.tau_classes(q, seqs1, tau)
    assert len(t1.classes) == len(seqs1) // 2


def test_tau_extends_to_roots_compatibly():
    q = K.cycle(3)
    tau = K.default_reversal(q)
    for s in K.all_seqs(q, 3):
        assert K.root_of_seq(q, tau.seq(s)) == tau.root(K.root_of_seq(q, s))


def test_quiver_json_roundtrip_and_determinism():
    q = K.cycle(3)
    text = json.dumps(q.to_json_obj(), sort_keys=True)
    q2 = build_quiver(text)
    assert q2 == q
    assert json.dumps(q2.to_json_obj(), sort_keys=True) == text
    assert dict(q2.tau_default) == {0: 0, 1: 2, 2: 1}
    fam = build_quiver({"family": "cycle", "e": 3})
    assert fam == q
    assert parse_quiver_arg("cycle(3)") == q
    assert parse_quiver_arg("path(2)") == K.path(2)


def test_random_quivers_cartan_symmetric():
    rng = random.Random(1)
    for _ in range(50):
        nv = rng.randint(1, 5)
        edges = set()
        for u in range(nv):
            for v in range(u + 1, nv):
                roll = rng.random()
                if roll < 0.3:
                    edges.add((u, v))
                elif roll < 0.6:
                    edges.add((v, u))
        q = K.make_quiver("rand", range(nv), edges)
        cm = q.cartan_matrix()
        for i in range(nv):
            assert cm[i][i] == 2
            for j in range(nv):
                assert cm[i][j] == cm[j][i]
