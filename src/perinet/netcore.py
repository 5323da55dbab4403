"""Core model of lattice-periodic networks and their measures.

A network is stored as a finite quotient multigraph whose edges carry
integer lattice shifts, together with a rank-n lattice basis and
Cartesian vertex positions.  The infinite periodic lift is implicit: the
edge (t, h, s) lifts to straight segments from x_t + Bk to x_h + B(k+s)
for every integer vector k, where B is the basis matrix.
"""

from __future__ import annotations

import math
import numbers
import operator
import weakref
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .intlinalg import smith_invariant_factors

# Two unit directions closer than this in max norm count as positively
# parallel; straight segments sharing an endpoint overlap exactly then.
DIRECTION_TOL = 1e-9


def _freeze(a, dtype=None, shape=None) -> np.ndarray:
    """A read-only C-ordered copy of ``a`` in ``dtype``, reshaped to ``shape``.
    It owns its data: one copy, and a second only where the shape changes,
    since a view would keep its base alive as a second array."""
    a = np.array(a, dtype=dtype, order="C")    # copy, so the caller's array stays writable
    if shape is not None:
        view = a.reshape(shape)
        if view.shape != a.shape:
            a = view.copy()
    a.flags.writeable = False
    return a


def _integers(a, name: str) -> np.ndarray:
    """``a`` as an array, refused unless its entries are integers: integral
    floats pass, as the JSON reader reads them; bools, fractions and
    non-finite entries, which the cast to int64 would mangle, do not.  An
    integer array passes as it is, with no copy."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu" and not (a.dtype.kind == "f" and np.isfinite(a).all()
                                         and (np.trunc(a) == a).all()):
        raise ValueError(f"{name} must be integers")
    return a


def _integer(value) -> int | None:
    """``value`` as a Python int, or None unless it is an integer; a bool is
    none, since numpy would read it as a mask."""
    try:
        return None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        return None


def _count(value, name: str, least: int) -> int:
    """``value`` as a Python int, refused with a ``ValueError`` naming the
    argument ``name`` unless it is an integer (``_integer``: no bool, float
    or string) of at least ``least``: the gate of every integer argument of
    the public API but the ids, which pass ``_known_id``."""
    i = _integer(value)
    if i is None:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if i < least:
        raise ValueError(f"{name} must be at least {least}, not {i}")
    return i


def _known_id(value, count: int, kind: str) -> int:
    """``value`` as a Python int, refused unless it is an integer id of ``count`` ``kind``s."""
    i = _integer(value)
    if i is None or not 0 <= i < count:
        raise ValueError(f"unknown {kind} id {value}")
    return i


def _real(value, name: str, high: float = math.inf) -> float:
    """``value`` as a Python float, refused as ``_count`` refuses unless it
    is a real number (no bool or string) in (0, ``high``): the gate of every
    real argument of the public API with a range."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
            and 0.0 < float(value) < high):
        raise ValueError(f"{name} must " + ("be positive and finite" if high == math.inf else
                         f"lie strictly between 0 and {high:g}") + f", not {value!r}")
    return float(value)


@dataclass(frozen=True)
class QuotientGraph:
    """Finite multigraph with an integer shift vector on every edge.

    ``tails``/``heads`` are edge endpoint indices, ``shifts`` the
    (E, dim) integer shift matrix.  Loops are stored once and count
    twice towards the vertex degree.
    """

    dim: int
    vertex_count: int
    tails: np.ndarray
    heads: np.ndarray
    shifts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _count(self.dim, "dim", 2))
        object.__setattr__(self, "vertex_count", _count(self.vertex_count, "vertex_count", 1))
        tails = _freeze(_integers(self.tails, "tails"), np.int64, -1)
        heads = _freeze(_integers(self.heads, "heads"), np.int64, -1)
        shifts = _freeze(_integers(self.shifts, "shifts"), np.int64, (len(tails), self.dim))
        if len(heads) != len(tails):
            raise ValueError("tail/head arrays differ in length")
        ends = tails.tolist() + heads.tolist()      # a few edges: cheaper than numpy's min
        if ends and (min(ends) < 0 or max(ends) >= self.vertex_count):
            raise ValueError("edge endpoint out of range")
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "shifts", shifts)

    @classmethod
    def from_edges(cls, dim: int, vertex_count: int,
                   edges: Iterable[tuple[int, int, Sequence[int]]]) -> "QuotientGraph":
        edges = list(edges)
        return cls(dim, vertex_count, [e[0] for e in edges], [e[1] for e in edges],
                   [list(e[2]) for e in edges])

    @property
    def edge_count(self) -> int:
        return len(self.tails)

    @property
    def edges(self) -> list[tuple[int, int, tuple[int, ...]]]:
        return [(t, h, tuple(s)) for t, h, s in
                zip(self.tails.tolist(), self.heads.tolist(), self.shifts.tolist())]

    def degrees(self) -> np.ndarray:
        V = self.vertex_count
        return np.bincount(self.tails, minlength=V) + np.bincount(self.heads, minlength=V)

    def is_connected(self) -> bool:
        return self.skeleton().connected

    def cycle_shift_matrix(self) -> np.ndarray:
        """Net shifts around the fundamental cycles of a spanning tree.

        Row i is the total shift accumulated by the cycle that the i-th
        non-tree edge closes.  For a connected graph the row count is the
        circuit rank.
        """
        return self.skeleton().cycles @ self.shifts

    def skeleton(self) -> "Skeleton":
        """The record of the graph's skeleton (vertex count, tails, heads),
        looked up on the first request and kept: one record is shared by
        every graph over the skeleton (``Skeleton``)."""
        if "_skeleton" not in self.__dict__:
            key = (self.vertex_count, tuple(self.tails.tolist()), tuple(self.heads.tolist()))
            record = _SKELETONS.get(key) or \
                _SKELETONS.setdefault(key, _skeleton(*key, self.tails, self.heads))
            object.__setattr__(self, "_skeleton", record)
        return self.__dict__["_skeleton"]

    def facts(self) -> "GraphFacts":
        """What one pass over the graph's shifts decides (``GraphFacts``),
        made on the first request and kept; the graph is frozen, so they
        never go stale."""
        if "_facts" not in self.__dict__:
            object.__setattr__(self, "_facts", _graph_facts(self))
        return self.__dict__["_facts"]


@dataclass(frozen=True)
class Lattice:
    """Rank-n lattice given by an ordered real basis (columns of ``basis``)."""

    basis: np.ndarray

    def __post_init__(self):
        b = _freeze(self.basis, np.float64)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("lattice basis must be a square matrix")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def volume(self) -> float:
        """|det(basis)|, kept once computed (the basis is read-only); raises
        on a non-finite or singular basis."""
        if "_volume" not in self.__dict__:
            if not np.isfinite(self.basis).all():
                raise ValueError("non-finite lattice basis")
            d = abs(float(np.linalg.det(self.basis)))
            if d == 0.0 or not np.isfinite(d):
                raise ValueError("singular lattice basis")
            object.__setattr__(self, "_volume", d)
        return self.__dict__["_volume"]


@dataclass(frozen=True)
class PeriodicNetwork:
    """Immutable periodic network: quotient graph, lattice, vertex positions."""

    graph: QuotientGraph
    lattice: Lattice
    positions: np.ndarray

    def __post_init__(self):
        p = _freeze(self.positions, np.float64)
        if p.shape != (self.graph.vertex_count, self.graph.dim):
            raise ValueError("positions must be (vertex_count, dim)")
        if self.lattice.dim != self.graph.dim:
            raise ValueError("lattice dimension does not match graph")
        object.__setattr__(self, "positions", p)

    @property
    def dim(self) -> int:
        return self.graph.dim


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of all structural and geometric checks on a network."""

    degree_regular: bool
    degree: int | None
    immersed: bool
    quotient_connected: bool
    simple: bool
    cycle_rank: int
    rank_full: bool
    lift_connected: bool
    invariant_factors: tuple[int, ...]
    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True, eq=False)
class GraphFacts:
    """What the checks ask of a quotient graph's shifts (``QuotientGraph.facts``),
    the rest being its skeleton's (``Skeleton``): ``simple`` (no edge
    repeats), the Smith ``invariant_factors`` of the cycle shifts, and the
    graph's ``violations`` in two parts, those that ``validate`` lists
    before the geometric ones and those it lists after them.
    """

    simple: bool
    invariant_factors: tuple[int, ...]
    violations: tuple[tuple[str, ...], tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class Skeleton:
    """What the checks ask of a skeleton (vertex count, tails, heads), the
    quotient graph without its shifts: one record per skeleton, held by
    every graph over it (``QuotientGraph.skeleton``) and kept while one
    lives.  The same edges in another order are another skeleton.

    ``tails`` and ``heads`` are Python ints; ``degree`` is the common
    degree, None for an irregular graph; ``tree`` holds the edges of a
    depth-first spanning tree from vertex 0 in walk order.  Row i of
    ``cycles`` is the cycle that the i-th non-tree edge e closes, unit(e) +
    path(tail) - path(head) with path(v) the signed tree path from vertex 0
    to v, so ``cycles @ shifts`` are the cycle shifts.  ``cut_edges`` are the
    tree edges on no cycle (the bridges of a connected graph), in edge
    order; ``end_pairs`` are those of :func:`end_pairs`; ``loops`` counts the
    loops at each vertex; ``stars`` are the oriented stars (:func:`oriented_star`);
    ``incidence`` is the (E, V) signed incidence (:func:`incidence`);
    ``faults`` are the violation strings of degree and connectivity, which
    ``validate`` lists first.  Every array is read-only.
    """

    vertex_count: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    degree: int | None
    connected: bool
    tree: tuple[int, ...]
    cycles: np.ndarray
    cut_edges: tuple[int, ...]
    end_pairs: tuple[np.ndarray, np.ndarray, np.ndarray]
    loops: tuple[int, ...]
    stars: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    incidence: np.ndarray
    faults: tuple[str, ...]

    def projector(self) -> np.ndarray:
        """The balancing projector of ``incidence`` (``_balancing_projector``),
        built on the first request and kept, read-only."""
        if "_projector" not in self.__dict__:
            object.__setattr__(self, "_projector", _freeze(_balancing_projector(self.incidence)))
        return self.__dict__["_projector"]


# the record of every skeleton some live graph holds, by (vertex count,
# tails, heads); an entry goes with the last graph holding its record
_SKELETONS: "weakref.WeakValueDictionary[tuple, Skeleton]" = weakref.WeakValueDictionary()


def _skeleton(V: int, tails: tuple[int, ...], heads: tuple[int, ...],
              tail_array: np.ndarray, head_array: np.ndarray) -> Skeleton:
    """The record of a skeleton from one pass over its edge list and one
    spanning-tree walk.  Tiny graphs are the common case, so the walk runs
    on Python ints."""
    E = len(tails)
    star = [[] for _ in range(V)]       # (edge, +1 leaving / -1 entering, far end)
    at = [[] for _ in range(V)]         # the loops at each vertex
    for e, (t, h) in enumerate(zip(tails, heads)):
        if t == h:
            at[t].append(e)
        else:
            star[t].append((e, 1, h))
            star[h].append((e, -1, t))
    deg = [len(s) + 2 * len(a) for s, a in zip(star, at)]

    # path[v]: the signed edges of the tree path from vertex 0 to v
    path = [[0] * E for _ in range(V)]
    reached, tree, stack = {0}, [], [0]
    # once every vertex is reached, no edge is left to join the tree
    while stack and len(reached) < V:
        v = stack.pop()
        for e, sign, w in star[v]:
            if w in reached:
                continue
            reached.add(w)
            tree.append(e)
            path[w] = path[v].copy()
            path[w][e] += sign
            stack.append(w)
    in_tree = set(tree)
    rows = []
    for e in range(E):
        if e not in in_tree:
            rows.append([p - q for p, q in zip(path[tails[e]], path[heads[e]])])
            rows[-1][e] += 1
    connected = len(reached) == V

    faults = []
    regular = deg.count(deg[0]) == V
    degree = deg[0] if regular else None
    if not regular:
        faults.append(f"degrees not regular: {deg}")
    elif degree < 3:
        faults.append(f"degree {degree} < 3")
    if not connected:
        faults.append("quotient graph disconnected")
    stars = tuple((_freeze([e for e, _, _ in s], np.int64),
                   _freeze([sign for _, sign, _ in s], np.int64), _freeze(a, np.int64))
                  for s, a in zip(star, at))
    return Skeleton(
        V, tails, heads, degree, connected, tuple(tree), _freeze(rows, np.int64, (len(rows), E)),
        tuple(sorted(e for e in tree if not any(row[e] for row in rows))),
        tuple(map(_freeze, end_pairs(tail_array, head_array, V))), tuple(map(len, at)), stars,
        _freeze(incidence(tail_array, head_array, V)), tuple(faults))


# ---------------------------------------------------------------------------
# geometry kernel
#
# Every measure of a network is built from its lifted edges
# x_head + B s - x_tail.  The kernel works on a stack of N networks over
# one skeleton (tails, heads): positions X (N, V, n), bases B (N, n, n)
# and transposed shifts ST (N, n, E).  A single network is a stack of one,
# measured once per network object (``_measured``).

def lifted_edges(X: np.ndarray, B: np.ndarray, ST: np.ndarray,
                 tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Edge vectors x_head + B s - x_tail of every stacked network, (N, E, n)."""
    return (B @ ST).transpose(0, 2, 1) + X.take(heads, axis=1) - X.take(tails, axis=1)


def edge_norms(vec: np.ndarray) -> np.ndarray:
    """Lengths (N, E) of stacked edge vectors (N, E, n)."""
    return np.sqrt(np.einsum('aei,aei->ae', vec, vec))


def incidence(tails: np.ndarray, heads: np.ndarray, V: int) -> np.ndarray:
    """(E, V) signed incidence: +1 at the head, -1 at the tail, loops 0."""
    unit = np.eye(V)
    return unit.take(heads, axis=0) - unit.take(tails, axis=0)


def vertex_forces(P: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Forces P^T u (N, V, n): the head end of an edge pulls +u, the tail -u."""
    return np.einsum('ev,aei->avi', P, units)


def _balancing_projector(P: np.ndarray) -> np.ndarray:
    """(E, E) orthogonal projector I - P P^+ onto the edge stresses u with
    P^T u = 0, balanced at every vertex; a loop's stress passes unchanged."""
    return np.eye(len(P)) - P @ np.linalg.pinv(P)


def _stress_bounds(proj: np.ndarray, units: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Lower bounds (N,) on L^n/V over every realization of the stacked
    shifts ``S`` (N, E, n), from unit edge vectors ``units`` (N, E, n).

    The units are projected onto balanced stresses by ``proj``
    (``_balancing_projector``) and scaled to max |u_e| = 1.  Then L >=
    sum_e u_e . v_e = tr(B M^T) with M = u^T S, for every rotation of a
    realization, and the largest trace over rotations, the sum of B M^T's
    singular values, is at least n |det B M^T|^(1/n) by AM-GM: L^n/V >=
    n^n |det M|, whatever the frame of ``S``.  At a critical point the
    units are balanced already and the bound is the value itself; a
    zero-length edge gives NaN.
    """
    u = proj @ units
    u /= edge_norms(u).max(axis=1)[:, None, None]
    n = S.shape[2]
    return n ** n * np.abs(np.linalg.det(u.transpose(0, 2, 1) @ S))


_NO_STAR = tuple(_freeze([], np.int64) for _ in range(3))


def oriented_star(g: QuotientGraph, v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges at vertex ``v``: its non-loop edges in edge order, their
    signs (+1 where the edge leaves v, -1 where it enters), and its loops;
    all three empty for a vertex the graph lacks.  They are read off the
    skeleton's record (``Skeleton.stars``), read-only and shared."""
    stars = g.skeleton().stars
    return stars[v] if 0 <= v < len(stars) else _NO_STAR


def end_pairs(tails: np.ndarray, heads: np.ndarray,
              V: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of edge ends that meet at a vertex: end indices i < j into
    (tails, heads) concatenated, and the (pairs, V) indicator of the vertex."""
    at = np.concatenate([tails, heads])
    k = np.arange(len(at))
    i, j = ((at[:, None] == at) & (k[:, None] < k)).nonzero()
    return i, j, at[i, None] == np.arange(V)


def parallel_ends(vec: np.ndarray, ell: np.ndarray, pairs) -> np.ndarray:
    """(N, V) flags of the vertices where two edge ends leave in one direction.

    ``pairs`` are the end pairs of :func:`end_pairs` (``skeleton().end_pairs``).
    Edge e leaves its tail along u_e = vec_e / ell_e and its head along
    -u_e (a loop does both at one vertex).  Two ends at a vertex are
    parallel when their directions differ by less than ``DIRECTION_TOL``
    in max norm; an edge of zero or non-finite length is parallel to none.
    """
    i, j, vertex = pairs
    with np.errstate(divide='ignore', invalid='ignore'):
        units = vec / np.where(np.isfinite(ell), ell, np.nan)[..., None]
    dirs = np.concatenate([units, -units], axis=1)
    par = np.abs(dirs[:, i] - dirs[:, j]).max(axis=2) < DIRECTION_TOL
    return par @ vertex


def edge_vector(net: PeriodicNetwork, e: int) -> np.ndarray:
    """Cartesian vector of quotient edge ``e``: pos[head] + B shift - pos[tail]."""
    return edge_vectors(net)[_known_id(e, net.graph.edge_count, "edge")]


def edge_vectors(net: PeriodicNetwork) -> np.ndarray:
    """All edge vectors as an (E, dim) array, a copy of ``_measured``'s."""
    return _measured(net).vecs.copy()


def edge_lengths(net: PeriodicNetwork) -> np.ndarray:
    """All edge lengths, a copy of ``_measured``'s; NaN or inf for non-finite geometry."""
    return _measured(net).ell.copy()


def length(net: PeriodicNetwork) -> float:
    """Total length of the quotient network; raises on a zero-length or
    non-finite edge length."""
    return _total_length(_measured(net).ell)


def _edge_faults(ell: np.ndarray) -> tuple[list[str], list[str]]:
    """The violation strings of the zero-length edges and of the non-finite
    edge lengths among ``ell``, each in edge order: ``validate`` reports
    them all, and a measure refuses the first."""
    lengths = ell.tolist()
    return ([f"zero-length edge {e}" for e, x in enumerate(lengths) if x == 0.0],
            [f"non-finite edge length {e}" for e, x in enumerate(lengths)
             if not math.isfinite(x)])


def _total_length(ell: np.ndarray) -> float:
    zero, infinite = _edge_faults(ell)
    if zero or infinite:
        raise ValueError((zero + infinite)[0])
    return float(ell.sum())


def volume(net: PeriodicNetwork) -> float:
    """Volume of the fundamental domain, |det(basis)|."""
    return net.lattice.volume()


def length_quotient(net: PeriodicNetwork) -> float:
    """Scaling-invariant objective L^n / V; raises where ``length`` or
    ``volume`` does."""
    return _length_quotient(net, _measured(net).ell)


def _length_quotient(net: PeriodicNetwork, ell: np.ndarray) -> float:
    """L^n / V of ``net`` from its edge lengths ``ell``; raises on a
    zero-length or non-finite edge length or a non-finite or singular basis."""
    return _total_length(ell) ** net.dim / volume(net)


def _direction(s: Sequence[int]) -> tuple[int, ...]:
    """Nonzero integer ``s`` over its gcd, signed so its first nonzero entry is
    positive: two shifts are parallel iff their directions are equal."""
    g = math.gcd(*s)
    p = tuple(x // g for x in s)
    return max(p, tuple(-x for x in p))


def _graph_facts(g: QuotientGraph) -> GraphFacts:
    """The facts of ``g``: what one pass over its shifts adds to its
    skeleton's record (``QuotientGraph.skeleton``), the violation strings
    in ``validate``'s order."""
    sk = g.skeleton()
    bare, repeated, parallel, seen = [], [], [], set()
    along = {}                          # (vertex, loop direction) -> first loop, its shift
    for e, (t, h, s) in enumerate(zip(sk.tails, sk.heads, map(tuple, g.shifts.tolist()))):
        # an edge read backwards, (h, t, -s), is the same edge: at t < h the key is s as it is
        key = (t, h, s) if t < h else min((t, h, s), (h, t, back := tuple(-x for x in s)))
        if t == h:
            if not any(s):      # a zero-length lift edge
                bare.append(e)
            else:   # loops with proportional shifts leave t in one direction
                f, s0 = along.setdefault((t, _direction(s)), (e, s))
                if s0 != s and s0 != back:      # else a duplicate
                    parallel.append(f"loop {e} parallel to loop {f}")
        if key in seen:
            repeated.append((t, h, s))
        seen.add(key)
    factors = smith_invariant_factors(sk.cycles @ g.shifts)

    before = sk.faults + tuple(f"loop {e} has zero shift" for e in bare)
    after = [f"duplicate edge {edge}" for edge in repeated] + parallel
    if len(factors) != g.dim:
        after.append(f"cycle-shift rank {len(factors)} < dimension {g.dim}")
    elif factors != (1,) * g.dim:
        after.append(f"lift disconnected: invariant factors {factors}")
    return GraphFacts(not repeated, factors, (before, tuple(after)))


def validate(net: PeriodicNetwork) -> ValidityReport:
    """Run every structural and geometric check; never raises.

    Covers degree regularity, finite and nonzero edge lengths, a finite
    nonsingular lattice basis, immersion of the lift (pairwise distinct
    outgoing directions at each vertex), quotient connectivity,
    quotient-level simplicity, the rational rank of the cycle-shift
    matrix, and lift connectivity (all Smith invariant factors 1).  The
    checks on the graph alone are its skeleton's record and its kept
    ``facts``; the edges are those of the network's one measurement
    (``_measured``), and the report made from it is kept with it for
    back-to-back calls of ``validate`` or ``verify`` (``_validate``).
    """
    return _validate(net)[0]


# the last network's measurement, naming it by weak reference (``ref``); a
# call on any other network replaces it, so it keeps no network alive
_LAST = SimpleNamespace(ref=lambda: None)


def _measured(net: PeriodicNetwork) -> SimpleNamespace:
    """The slot of ``net`` (``_LAST``): what was measured for the same object
    last, as it is, or else a new measurement (``_measure``).  A network is
    frozen, so its measurement never goes stale."""
    global _LAST
    slot = _LAST        # one read: another thread may replace the slot
    if slot.ref() is not net:
        slot = _LAST = _measure(net)
    return slot


def _measure(net: PeriodicNetwork) -> SimpleNamespace:
    """A new slot for ``net``: edge vectors ``vecs`` and lengths ``ell``,
    read-only, NaN or inf with no warning for non-finite geometry, and no
    ``report`` yet.  Every measure of one network reads its edges here."""
    g = net.graph
    with np.errstate(invalid='ignore'):     # an infinite entry gives NaN
        vecs = lifted_edges(net.positions[None], net.lattice.basis[None],
                            g.shifts.T[None].astype(np.float64), g.tails, g.heads)[0]
        ell = edge_norms(vecs[None])[0]
    vecs.flags.writeable = ell.flags.writeable = False
    return SimpleNamespace(ref=weakref.ref(net), vecs=vecs, ell=ell, report=None)


def _validate(net: PeriodicNetwork) -> tuple[ValidityReport, np.ndarray, np.ndarray]:
    """``validate`` and the edge lengths and vectors it read, from the slot of
    ``net``: the report is made from them on the first request, then kept."""
    slot = _measured(net)
    vecs, ell = slot.vecs, slot.ell
    if slot.report is None:
        g = net.graph
        sk, facts = g.skeleton(), g.facts()
        zero, infinite = _edge_faults(ell)
        geometric = zero + infinite
        try:
            net.lattice.volume()
        except ValueError as exc:       # a non-finite or singular basis
            geometric.append(str(exc))
        crossed = np.flatnonzero(parallel_ends(vecs[None], ell[None], sk.end_pairs)[0])
        if len(crossed):
            geometric.append(f"parallel outgoing edges at vertex {crossed[0]}")
        factors = facts.invariant_factors
        before, after = facts.violations
        slot.report = ValidityReport(
            degree_regular=sk.degree is not None,
            degree=sk.degree,
            immersed=not len(crossed),
            quotient_connected=sk.connected,
            simple=facts.simple,
            cycle_rank=len(factors),
            rank_full=len(factors) == g.dim,
            lift_connected=factors == (1,) * g.dim,
            invariant_factors=factors,
            violations=before + tuple(geometric) + after,
        )
    return slot.report, ell, vecs


def with_positions(net: PeriodicNetwork, positions: np.ndarray) -> PeriodicNetwork:
    """Copy of ``net`` with replaced vertex positions."""
    return PeriodicNetwork(net.graph, net.lattice, positions)


def scaled(net: PeriodicNetwork, c: float) -> PeriodicNetwork:
    """Similarity image of the network: positions and basis scaled by c."""
    c = _real(c, "scale factor")
    return PeriodicNetwork(net.graph, Lattice(net.lattice.basis * c),
                           net.positions * c)
