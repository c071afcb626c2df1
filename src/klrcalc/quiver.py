"""
Simply-laced quivers, reversal maps, roots, residue sequences and their
tau-equivalence classes.

Vertices are opaque sortable labels; the built-in families use ints.  A
reversal map tau is an involutive vertex bijection reversing every edge
(i -> j is an edge iff tau(j) -> tau(i) is).  It is always user-supplied and
validated, never inferred; the families ship a conventional default
(negation mod e for cycles, end-for-end flip for paths).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping


class InvalidQuiverError(ValueError):
    pass


class UnsupportedParameterError(ValueError):
    pass


class ReversalNotInvolutiveError(ValueError):
    pass


class ReversalMismatchError(ValueError):
    """The reversal candidate fails the edge condition; carries a witness edge."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


class TauClosureError(ValueError):
    """A sequence set is not closed under entrywise tau; carries a witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Quiver:
    """A finite simply-laced quiver: no loops, at most one arrow per vertex pair."""

    name: str
    vertices: tuple
    edges: frozenset
    tau_default: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        vs = self.vertices
        if not vs:
            raise InvalidQuiverError("a quiver needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise InvalidQuiverError(f"duplicate vertex labels in {vs!r}")
        if len({type(v).__name__ for v in vs}) > 1:
            raise InvalidQuiverError("vertex labels must all have the same type")
        vset = set(vs)
        for (u, v) in self.edges:
            if u not in vset or v not in vset:
                raise InvalidQuiverError(f"edge ({u!r}, {v!r}) leaves the vertex set")
            if u == v:
                raise InvalidQuiverError(f"loop at vertex {u!r}")
            if (v, u) in self.edges:
                raise InvalidQuiverError(f"double edge between {u!r} and {v!r}")

    @cached_property
    def _index(self) -> dict:
        return {v: k for k, v in enumerate(self.vertices)}

    def has_edge(self, u, v) -> bool:
        return (u, v) in self.edges

    def joined(self, u, v) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def cartan_entry(self, u, v) -> int:
        if u == v:
            return 2
        return -1 if self.joined(u, v) else 0

    def cartan_matrix(self) -> tuple:
        vs = self.vertices
        return tuple(tuple(self.cartan_entry(u, v) for v in vs) for u in vs)

    def seq_key(self, seq) -> tuple:
        return tuple(self._index[v] for v in seq)

    def to_json_obj(self) -> dict:
        obj = {
            "name": self.name,
            "vertices": list(self.vertices),
            "edges": sorted([list(e) for e in self.edges],
                            key=lambda e: (self._index[e[0]], self._index[e[1]])),
        }
        if self.tau_default is not None:
            obj["tau"] = {str(a): b for a, b in self.tau_default}
        return obj


def make_quiver(name: str, vertices: Iterable, edges: Iterable, tau: Mapping | None = None) -> Quiver:
    """A quiver on the given vertices and arrows; a repeated vertex or arrow
    is refused, since two arrows u -> v would not be simply laced."""
    vs, es = tuple(vertices), tuple((u, v) for u, v in edges)
    for what, items in (("vertex", vs), ("arrow", es)):
        seen = set()
        for x in items:
            if x in seen:
                raise InvalidQuiverError(f"repeated {what} {x!r}")
            seen.add(x)
    hint = tuple(sorted(tau.items())) if tau is not None else None
    return Quiver(name, tuple(sorted(vs)), frozenset(es), tau_default=hint)


def cycle(e: int, window: int | None = None) -> Quiver:
    """The cyclic quiver on Z/eZ with arrows i -> i+1.

    e = 0 stands for the doubly infinite line, realised as the finite window
    [-window, window] (window 3 unless given) with arrows i -> i+1; all
    computations only ever touch finitely many vertices.  Only e = 0 takes
    a window.
    """
    if e in (1, 2):
        raise UnsupportedParameterError(f"cycle quiver needs e = 0 or e >= 3, got {e}")
    if e < 0:
        raise UnsupportedParameterError(f"cycle parameter must be nonnegative, got {e}")
    if e > 0 and window is not None:
        raise UnsupportedParameterError(f"cycle({e}) takes no window: only e = 0 does")
    if e == 0:
        window = 3 if window is None else window
        if window < 1:
            raise UnsupportedParameterError("window must be >= 1")
        vs = range(-window, window + 1)
        es = [(i, i + 1) for i in range(-window, window)]
        tau = {i: -i for i in vs}
        return make_quiver(f"cycle(0,window={window})", vs, es, tau)
    vs = range(e)
    es = [(i, (i + 1) % e) for i in vs]
    tau = {i: (-i) % e for i in vs}
    return make_quiver(f"cycle({e})", vs, es, tau)


def path(k: int) -> Quiver:
    """The linear quiver 0 -> 1 -> ... -> k-1."""
    if k < 1:
        raise UnsupportedParameterError(f"path quiver needs k >= 1, got {k}")
    tau = {i: k - 1 - i for i in range(k)}
    return make_quiver(f"path({k})", range(k), [(i, i + 1) for i in range(k - 1)], tau)


def _spec_field(spec: dict, key: str, kind: type, default=None):
    """spec[key], which must be a `kind` (JSON true/false are no ints)."""
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidQuiverError(f"quiver spec: {key!r} must be of type {kind.__name__}")
    return value


def labels_by_text(vertices) -> dict:
    """Each vertex label by its text: a label typed as text (a JSON key, a
    --block entry, an e(...) entry) names the vertex whose text it is."""
    return {str(v): v for v in vertices}


def tau_from_json(vertices, raw) -> dict:
    """A reversal map given as a JSON object, its keys matched to the
    vertex labels by their text."""
    if not isinstance(raw, dict):
        raise InvalidQuiverError("a reversal map must be a JSON object")
    by_text = labels_by_text(vertices)
    for k in raw:
        if k not in by_text:
            raise InvalidQuiverError(f"reversal map names unknown vertex {k!r}")
    return {by_text[k]: v for k, v in raw.items()}


def build_quiver(spec) -> Quiver:
    """Build a quiver from a family spec or an explicit description.

    Accepts {"family": "cycle", "e": 3[, "window": N]}, {"family": "path", "k": 2},
    or {"name": ..., "vertices": [...], "edges": [[u, v], ...][, "tau": {...}]}.
    Vertex labels are all integers or all strings.
    """
    if isinstance(spec, Quiver):
        return spec
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise InvalidQuiverError("a quiver spec must be a JSON object")
    if "family" in spec:
        fam = spec["family"]
        if fam == "cycle":
            window = _spec_field(spec, "window", int) if "window" in spec else None
            return cycle(_spec_field(spec, "e", int), window)
        if fam == "path":
            return path(_spec_field(spec, "k", int))
        raise UnsupportedParameterError(f"unknown quiver family {fam!r}")
    vertices = _spec_field(spec, "vertices", list)
    if not (all(type(v) is int for v in vertices)
            or all(type(v) is str for v in vertices)):
        raise InvalidQuiverError("vertex labels must be all integers or all strings")
    edges = []
    for e in _spec_field(spec, "edges", list):
        if not (isinstance(e, list) and len(e) == 2 and all(v in vertices for v in e)):
            raise InvalidQuiverError(f"edge {e!r} is not a pair of vertices")
        edges.append(tuple(e))
    tau = tau_from_json(vertices, spec["tau"]) if "tau" in spec else None
    return make_quiver(_spec_field(spec, "name", str, "quiver"), vertices, edges, tau)


def parse_quiver_arg(text: str) -> Quiver:
    """CLI form: 'cycle(3)', 'path(2)', '@file.json', or inline JSON."""
    text = text.strip()
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise InvalidQuiverError(f"cannot read {text[1:]!r}: {exc.strerror}") from None
        return build_quiver(spec)
    if text.startswith("{"):
        return build_quiver(text)
    for fam, make, max_args in (("cycle", cycle, 2), ("path", path, 1)):
        if text.startswith(fam + "(") and text.endswith(")"):
            args = [int(a) for a in text[len(fam) + 1:-1].split(",") if a.strip()]
            if 1 <= len(args) <= max_args:
                return make(*args)
    raise UnsupportedParameterError(f"cannot parse quiver spec {text!r}")


# --- reversal maps --------------------------------------------------------


@dataclass(frozen=True)
class ReversalMap:
    """A validated involutive anti-automorphism of a quiver."""

    quiver: Quiver
    pairs: tuple  # ((v, tau(v)), ...) in vertex order

    @cached_property
    def _map(self) -> dict:
        return dict(self.pairs)

    def seq(self, seq: tuple) -> tuple:
        return tuple(self._map[x] for x in seq)

    def root(self, root: "Root") -> "Root":
        return make_root(self.quiver, {self._map[v]: m for v, m in root.items})


def validate_reversal(quiver: Quiver, mapping: Mapping) -> ReversalMap:
    """Check that `mapping` is a total involution with i -> j an edge iff
    tau(j) -> tau(i) is, and wrap it up."""
    missing = [v for v in quiver.vertices if v not in mapping]
    if missing:
        raise ReversalNotInvolutiveError(f"map not total: missing {missing!r}")
    for v in quiver.vertices:
        img = mapping[v]
        if img not in quiver.vertices:  # by ==: an unhashable image fails here
            raise ReversalMismatchError(f"tau({v!r}) = {img!r} is not a vertex", (v, img))
    # edge condition first: it carries the more informative witness
    for (u, v) in quiver.edges:
        if not quiver.has_edge(mapping[v], mapping[u]):
            raise ReversalMismatchError(
                f"edge {u!r}->{v!r} has no mirror {mapping[v]!r}->{mapping[u]!r}",
                (u, v))
    for v in quiver.vertices:
        if mapping[mapping[v]] != v:
            raise ReversalNotInvolutiveError(
                f"not an involution: tau(tau({v!r})) = {mapping[mapping[v]]!r}")
    pairs = tuple((v, mapping[v]) for v in quiver.vertices)
    return ReversalMap(quiver, pairs)


def default_reversal(quiver: Quiver) -> ReversalMap | None:
    """The family default reversal, validated, if the quiver carries one."""
    if quiver.tau_default is None:
        return None
    return validate_reversal(quiver, dict(quiver.tau_default))


# --- roots and residue sequences ------------------------------------------


@dataclass(frozen=True)
class Root:
    """Nonnegative vertex content; the empty root has height 0."""

    items: tuple  # ((vertex, mult), ...), mult > 0, in vertex order

    @property
    def height(self) -> int:
        return sum(m for _, m in self.items)

    def mult(self, v) -> int:
        for u, m in self.items:
            if u == v:
                return m
        return 0

    def __str__(self):
        if not self.items:
            return "0"
        return "+".join(f"{m}*a[{v}]" if m > 1 else f"a[{v}]" for v, m in self.items)


def make_root(quiver: Quiver, content: Mapping) -> Root:
    for v in content:
        if v not in quiver._index:
            raise InvalidQuiverError(f"root mentions unknown vertex {v!r}")
        if content[v] < 0:
            raise ValueError(f"negative multiplicity at {v!r}")
    items = tuple((v, content[v]) for v in quiver.vertices if content.get(v, 0) > 0)
    return Root(items)


def root_of_seq(quiver: Quiver, seq: Iterable) -> Root:
    content: dict = {}
    for v in seq:
        content[v] = content.get(v, 0) + 1
    return make_root(quiver, content)


def sequences(quiver: Quiver, root: Root) -> tuple:
    """All residue sequences with the given content, lexicographic in the
    vertex order; the list length is the multinomial coefficient."""
    base = []
    for v, m in root.items:
        base.extend([v] * m)
    seqs = set(itertools.permutations(base))
    return tuple(sorted(seqs, key=quiver.seq_key))


def all_seqs(quiver: Quiver, n: int) -> tuple:
    return tuple(itertools.product(quiver.vertices, repeat=n))


def all_roots(quiver: Quiver, n: int) -> tuple:
    """All height-n roots, ordered by content vector."""
    out = []
    for combo in itertools.combinations_with_replacement(quiver.vertices, n):
        out.append(root_of_seq(quiver, combo))
    return tuple(sorted(set(out), key=lambda r: tuple(-r.mult(v) for v in quiver.vertices)))


# --- tau-equivalence classes ----------------------------------------------


@dataclass(frozen=True)
class TauClassTable:
    """Partition of a finite set into tau-orbits of size 1 or 2."""

    classes: tuple  # tuple of tuples, each sorted
    reps: tuple     # one distinguished member per class, aligned with classes


def _orbit_table(items, image: Callable, sort_key: Callable) -> TauClassTable:
    items = sorted(set(items), key=sort_key)
    seen = set()
    classes = []
    for x in items:
        if x in seen:
            continue
        y = image(x)
        orbit = (x,) if y == x else tuple(sorted({x, y}, key=sort_key))
        seen.update(orbit)
        classes.append(orbit)
    return TauClassTable(tuple(classes), tuple(c[0] for c in classes))


def tau_classes(quiver: Quiver, seqs: Iterable, tau: ReversalMap) -> TauClassTable:
    """Partition a tau-closed sequence set into orbits {i, tau(i)}.

    The representative of an orbit is its lexicographically smaller member.
    """
    seqset = set(seqs)
    for s in sorted(seqset, key=quiver.seq_key):
        if tau.seq(s) not in seqset:
            raise TauClosureError(f"set not tau-closed: tau of {s!r} missing", s)
    return _orbit_table(seqset, tau.seq, quiver.seq_key)


def root_tau_classes(quiver: Quiver, tau: ReversalMap, n: int) -> TauClassTable:
    """Tau-orbits of all height-n roots, each represented by its first member
    in content order."""
    roots = all_roots(quiver, n)
    key = lambda r: tuple(-r.mult(v) for v in quiver.vertices)
    return _orbit_table(roots, tau.root, key)
