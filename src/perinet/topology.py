"""Combinatorics of quotient graphs on one or two vertices.

Covers circuit rank, classification into bouquet/double-bouquet/dipole
families, admissible topologies for given (dimension, degree), abstract
graph builders, and enumeration of integer shift assignments and of
their orbits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil, comb

import numpy as np

from .intlinalg import det_int_batch
from .netcore import QuotientGraph

ENUMERATION_LIMIT = 10 ** 7
_ENUM_BLOCK = 1 << 13         # candidates screened per vectorized block


@dataclass(frozen=True)
class TopologyClass:
    """Structural type of a quotient graph.

    ``kind`` is one of 'bouquet', 'double_bouquet', 'dipole', 'other';
    ``loops`` counts loops per bouquet vertex and ``bridges`` the
    connecting edges.
    """

    kind: str
    loops: int
    bridges: int
    circuit_rank: int
    degree: int
    vertex_count: int

    @staticmethod
    def bouquet(loops: int) -> "TopologyClass":
        if loops < 1:
            raise ValueError("bouquet needs at least one loop")
        return TopologyClass("bouquet", loops, 0, loops, 2 * loops, 1)

    @staticmethod
    def double_bouquet(loops: int, bridges: int) -> "TopologyClass":
        if loops < 0 or bridges < 1:
            raise ValueError("double bouquet needs loops >= 0 and bridges >= 1")
        kind = "dipole" if loops == 0 else "double_bouquet"
        return TopologyClass(kind, loops, bridges, 2 * loops + bridges - 1,
                             2 * loops + bridges, 2)

    @staticmethod
    def dipole(bridges: int) -> "TopologyClass":
        return TopologyClass.double_bouquet(0, bridges)

    @property
    def tag(self) -> str:
        if self.kind == "bouquet":
            return f"B{self.loops}"
        if self.kind == "dipole":
            return f"D{self.bridges}"
        if self.kind == "double_bouquet":
            return f"D{self.loops},{self.bridges}"
        return "other"

    @staticmethod
    def from_tag(tag: str) -> "TopologyClass":
        """Parse tags like 'B3', 'D5', 'D1,3' (also 'D1_3')."""
        t = tag.strip().upper().replace("_", ",")
        try:
            if t.startswith("B"):
                return TopologyClass.bouquet(int(t[1:]))
            if t.startswith("D"):
                body = t[1:]
                if "," in body:
                    l, k = body.split(",")
                    return TopologyClass.double_bouquet(int(l), int(k))
                return TopologyClass.dipole(int(body))
        except ValueError as exc:
            raise ValueError(f"cannot parse topology tag {tag!r}") from exc
        raise ValueError(f"cannot parse topology tag {tag!r}")


def circuit_rank(g: QuotientGraph) -> int:
    """1 - #vertices + #edges; the number of independent cycles."""
    if not g.is_connected():
        raise ValueError("circuit rank requires a connected graph")
    return 1 - g.vertex_count + g.edge_count


def classify(g: QuotientGraph) -> TopologyClass:
    """Exact structural match against the bouquet/double-bouquet families."""
    if not g.is_connected():
        raise ValueError("classification requires a connected graph")
    deg = g.degrees()
    if len(set(deg.tolist())) != 1:
        raise ValueError(f"graph is not regular: degrees {deg.tolist()}")
    d = int(deg[0])
    rank = circuit_rank(g)
    V = g.vertex_count
    loops_at = np.zeros(V, dtype=int)
    bridges = 0
    for t, h, _ in g.edges:
        if t == h:
            loops_at[t] += 1
        else:
            bridges += 1
    if V == 1:
        return TopologyClass("bouquet", int(loops_at[0]), 0, rank, d, 1)
    if V == 2 and loops_at[0] == loops_at[1]:
        l = int(loops_at[0])
        kind = "dipole" if l == 0 else "double_bouquet"
        return TopologyClass(kind, l, bridges, rank, d, 2)
    return TopologyClass("other", int(loops_at.sum()), bridges, rank, d, V)


def min_vertex_count(n: int, d: int) -> tuple[int, list[TopologyClass]]:
    """Least possible quotient vertex count and the admissible topologies.

    For even d >= 2n a single vertex suffices (bouquet); for the other
    d >= n+1 two vertices with the double-bouquet types D_{l,k}, k >= 2,
    2l + k = d.  For d <= n only the counting bound is reported, with no
    structural candidates.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if d < 3:
        raise ValueError("degree must be >= 3")
    if d % 2 == 0 and d >= 2 * n:
        return 1, [TopologyClass.bouquet(d // 2)]
    if d >= n + 1:
        ks = range(d, 1, -2)
        return 2, [TopologyClass.double_bouquet((d - k) // 2, k) for k in ks]
    return ceil((2 * n - 2) / (d - 2)), []


def build_abstract(tag: TopologyClass | str, dim: int) -> QuotientGraph:
    """Combinatorial multigraph for a topology tag, all shifts zero.

    Edge order: loops at vertex 0, loops at vertex 1, then bridges; the
    first bridge doubles as the spanning-tree edge in enumeration.
    """
    top = TopologyClass.from_tag(tag) if isinstance(tag, str) else tag
    z = [0] * dim
    if top.kind == "bouquet":
        edges = [(0, 0, z) for _ in range(top.loops)]
        return QuotientGraph.from_edges(dim, 1, edges)
    if top.kind in ("dipole", "double_bouquet"):
        edges = [(0, 0, z) for _ in range(top.loops)]
        edges += [(1, 1, z) for _ in range(top.loops)]
        edges += [(0, 1, z) for _ in range(top.bridges)]
        return QuotientGraph.from_edges(dim, 2, edges)
    raise ValueError(f"cannot build abstract graph for kind {top.kind!r}")


def _nonzero_shifts(n: int, s_max: int) -> list[tuple[int, ...]]:
    return [s for s in itertools.product(range(-s_max, s_max + 1), repeat=n)
            if any(s)]


def _sign_canonical(s: tuple[int, ...]) -> tuple[int, ...]:
    for x in s:
        if x > 0:
            return s
        if x < 0:
            return tuple(-v for v in s)
    return s


def _loop_classes(n: int, s_max: int) -> list[tuple[int, ...]]:
    return sorted(set(_sign_canonical(s) for s in _nonzero_shifts(n, s_max)))


def _combinations(m: int, k: int) -> np.ndarray:
    """All k-subsets of range(m) as rows, in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), k))
    return np.fromiter(flat, dtype=np.int64, count=comb(m, k) * k).reshape(comb(m, k), k)


def _lex_le(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a <= b."""
    # a sentinel column, smaller in a, settles rows that are equal
    a = np.hstack([a, np.zeros((len(a), 1), a.dtype)])
    b = np.hstack([b, np.ones((len(b), 1), b.dtype)])
    col = (a != b).argmax(axis=1)
    rows = np.arange(len(a))
    return a[rows, col] < b[rows, col]


def _rows_generate_zn(rows: np.ndarray, n: int) -> np.ndarray:
    """Per stacked row set: do the integer rows generate Z^n?"""
    # gcd of all n x n minors equals 1 <=> rank n and all Smith factors 1
    g = np.zeros(len(rows), dtype=np.int64)
    for sub in itertools.combinations(range(rows.shape[1]), n):
        g = np.gcd(g, det_int_batch(rows[:, sub]))
    return g == 1


def enumerate_shifts(g: QuotientGraph, n: int, s_max: int = 1) -> list[QuotientGraph]:
    """All valid shift assignments for a one- or two-vertex skeleton.

    The first bridge is gauge-fixed to shift zero; loop shifts are taken
    sign-canonically (a loop and its reverse are the same edge).  Kept
    assignments have full-rank, lattice-generating cycle shifts; exact
    duplicates and global-negation duplicates are removed.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    return [QuotientGraph(n, g.vertex_count, g.tails, g.heads, S)
            for S in enumerate_shift_arrays(g, n, s_max)]


def enumerate_shift_arrays(g: QuotientGraph, n: int, s_max: int = 1) -> list[np.ndarray]:
    """Shift matrices for :func:`enumerate_shifts`, in the skeleton's edge order."""
    return list(iter_shift_arrays(g, n, s_max))


def iter_shift_arrays(g: QuotientGraph, n: int, s_max: int = 1):
    """Lazy form of :func:`enumerate_shift_arrays`; same guard and order."""
    top = classify(g)
    if top.kind == "other":
        raise ValueError("shift enumeration supports one- and two-vertex skeletons only")
    loops0 = [e for e, (t, h, _) in enumerate(g.edges) if t == h and t == 0]
    loops1 = [e for e, (t, h, _) in enumerate(g.edges) if t == h and t == 1]
    bridges = [e for e, (t, h, _) in enumerate(g.edges) if t != h]

    classes = np.array(_loop_classes(n, s_max))
    nonzero = np.array(_nonzero_shifts(n, s_max))
    k = (len(loops0), len(loops1), max(len(bridges) - 1, 0))
    raw = comb(len(classes), k[0]) * comb(len(classes), k[1]) * comb(len(nonzero), k[2])
    if raw > ENUMERATION_LIMIT:
        raise RuntimeError(
            f"raw shift-assignment count {raw} exceeds limit {ENUMERATION_LIMIT}")

    # candidates in product order (loop set at 0, loop set at 1, free
    # bridge set), screened in blocks; negating the free bridges reverses
    # the order of ``nonzero``, so of a set and its negation (the same
    # assignment) the lexicographically first index tuple is kept
    sets = (_combinations(len(classes), k[0]), _combinations(len(classes), k[1]),
            _combinations(len(nonzero), k[2]))
    first = _lex_le(sets[2], (len(nonzero) - 1 - sets[2])[:, ::-1])
    free = loops0 + loops1 + bridges[1:]
    for lo in range(0, raw, _ENUM_BLOCK):
        flat = np.arange(lo, min(lo + _ENUM_BLOCK, raw))
        i0, i1, ib = np.unravel_index(flat, [len(x) for x in sets])
        i0, i1, ib = i0[first[ib]], i1[first[ib]], ib[first[ib]]
        S = np.zeros((len(ib), g.edge_count, n), dtype=np.int64)
        S[:, loops0] = classes[sets[0][i0]]
        S[:, loops1] = classes[sets[1][i1]]
        S[:, bridges[1:]] = nonzero[sets[2][ib]]
        yield from S[_rows_generate_zn(S[:, free], n)]


@dataclass(frozen=True)
class ShiftOrbit:
    """A class of equivalent shift assignments: ascending positions in
    :func:`enumerate_shift_arrays`, and the shifts of the first."""

    members: np.ndarray
    shifts: np.ndarray

    @property
    def index(self) -> int:
        return int(self.members[0])

    @property
    def size(self) -> int:
        return len(self.members)


def shift_orbits(g: QuotientGraph, n: int, s_max: int = 1) -> list[ShiftOrbit]:
    """Enumerated shift assignments grouped into classes of equal landscape.

    Assignments are equivalent when a unimodular basis change (S -> S U^T)
    and a skeleton automorphism (permuting the loops at a vertex or the
    bridges, reversing loops, swapping the vertices) map one onto the
    other; L^n/V takes the same values on both.  Circuit rank r = n gives
    one class, as any two unimodular cycle-shift matrices differ by a basis
    change; r = n + 1 is classified by :func:`_relation_keys`; for larger r
    every assignment is its own class.  Classes come in representative order.
    """
    arrays = enumerate_shift_arrays(g, n, s_max)
    if not arrays:
        return []
    r = circuit_rank(g)
    if r == n:
        labels = np.zeros(len(arrays), dtype=np.int64)
    elif r == n + 1:
        _, labels = np.unique(_relation_keys(g, np.stack(arrays)), return_inverse=True)
    else:
        labels = np.arange(len(arrays))
    members = np.split(np.argsort(labels, kind='stable'),
                       np.cumsum(np.bincount(labels))[:-1])
    members.sort(key=lambda m: m[0])
    return [ShiftOrbit(m, arrays[m[0]]) for m in members]


def _relation_keys(g: QuotientGraph, S: np.ndarray) -> np.ndarray:
    """Orbit key of each assignment in ``S``, for circuit rank n + 1.

    The signed maximal minors of the (n+1) x n cycle-shift matrix span its
    left kernel; carried to the edges they give the primitive relation mu
    (mu^T S = 0), free of the spanning tree and fixed up to sign by a basis
    change.  Automorphisms act on mu by reversing loops (|mu| on loops),
    permuting within an edge class (sorting) and, on two vertices,
    exchanging the loop classes and reversing the bridges.  The key is the
    lexicographic rank of the least image.
    """
    E = g.edge_count
    # the cycle-shift matrix of unit edge shifts is the cycle-edge incidence Z
    Z = QuotientGraph(E, g.vertex_count, g.tails, g.heads,
                      np.eye(E, dtype=np.int64)).cycle_shift_matrix()
    C = np.einsum('ce,aei->aci', Z, S)
    minors = np.stack([(-1) ** i * det_int_batch(np.delete(C, i, axis=1))
                       for i in range(len(Z))], axis=1)
    mu = minors @ Z
    mu //= np.gcd.reduce(mu, axis=1, keepdims=True)

    tails, heads = g.tails, g.heads
    bridges = np.flatnonzero(tails != heads)
    mu_b = mu[:, bridges] * np.where(tails[bridges] == 0, 1, -1)   # oriented 0 -> 1
    loops = [np.sort(np.abs(mu[:, (tails == v) & (heads == v)]), axis=1)
             for v in range(g.vertex_count)]
    pos, neg = np.sort(mu_b, axis=1), np.sort(-mu_b, axis=1)
    images = [np.hstack(loops + [pos]), np.hstack(loops + [neg])]
    if g.vertex_count == 2:
        images += [np.hstack(loops[::-1] + [neg]), np.hstack(loops[::-1] + [pos])]
    images = np.stack(images, axis=1)
    _, rank = np.unique(images.reshape(-1, images.shape[2]), axis=0, return_inverse=True)
    return rank.reshape(images.shape[:2]).min(axis=1)
