"""Combinatorics of quotient graphs on one or two vertices.

Covers classification into bouquet/double-bouquet/dipole families (with
the circuit rank), admissible topologies for given (dimension, degree),
abstract graph builders, and enumeration of integer shift assignments
and one representative per orbit of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil, comb, factorial

import numpy as np

from .intlinalg import det_int_batch
from .netcore import QuotientGraph, oriented_star

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


def classify(g: QuotientGraph) -> TopologyClass:
    """Exact structural match against the bouquet/double-bouquet families,
    read off the graph's kept ``facts``."""
    facts = g.facts()
    if not facts.connected:
        raise ValueError("classification requires a connected graph")
    if facts.degree is None:
        raise ValueError(f"graph is not regular: degrees {g.degrees().tolist()}")
    d, V, loops = facts.degree, g.vertex_count, facts.loops
    rank = g.edge_count - V + 1         # the circuit rank, g being connected
    bridges = g.edge_count - sum(loops)
    if V == 1:
        return TopologyClass("bouquet", loops[0], 0, rank, d, 1)
    if V == 2 and loops[0] == loops[1]:
        kind = "dipole" if loops[0] == 0 else "double_bouquet"
        return TopologyClass(kind, loops[0], bridges, rank, d, 2)
    return TopologyClass("other", sum(loops), bridges, rank, d, V)


def min_vertex_count(n: int, d: int) -> tuple[int, list[TopologyClass]]:
    """Least possible quotient vertex count and the admissible topologies.

    For even d >= 2n a single vertex suffices (bouquet); for the other
    d >= n+1 two vertices with the double-bouquet types D_{l,k}, k >= 2,
    2l + k = d.  For d <= n only the counting bound is reported, with no
    structural candidates.  k = 1 is excluded by the cut-edge lemma: sum
    the vertex forces over the vertices on one side of a cut edge; every
    other edge, loops included, has both ends there and cancels, leaving
    +-u_e, so a quotient with a cut edge has no balanced realization with
    positive edge lengths and no minimizer.
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


def _loop_classes(n: int, s_max: int) -> list[tuple[int, ...]]:
    # of s and -s, the sign-canonical one (first nonzero entry positive) is
    # the lexicographically larger
    return sorted({max(s, tuple(-x for x in s)) for s in _nonzero_shifts(n, s_max)})


def _combinations(m: int, k: int) -> np.ndarray:
    """All k-subsets of range(m) as rows, in lexicographic order."""
    out = np.zeros((k, 1), dtype=np.int64)          # the empty subset, as a column
    last = np.full(1, -1)
    for j in range(k):
        # each subset is followed by every entry that still leaves room
        # for the k - 1 - j after it, in increasing order
        counts = np.maximum(m - k + j - last, 0)
        out = np.repeat(out, counts, axis=1)
        last = np.repeat(last + 1 - np.cumsum(counts) + counts, counts)
        last += np.arange(len(last))
        out[j] = last
    return out.T


def _rows_generate_zn(rows: np.ndarray, n: int, s_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row set: do the integer rows, every entry at most ``s_max`` in
    absolute value, generate Z^n?  ``rows`` is (r, n, N), one row set per
    entry of the last axis.  Returns that mask and the n x n minors it was
    read from, one row of minors per n-subset of the rows in lexicographic
    order, one column per row set.

    The gcd of all n x n minors is 1 exactly when the rank is n and every
    Smith invariant factor is 1.  It screens up to ``ENUMERATION_LIMIT``
    candidates with small bounded entries, vectorized, which the
    one-matrix-at-a-time Smith form of ``validate`` could not do at speed;
    its C(r, n) minors stay few because enumerated skeletons are small.
    They are taken in int32 where n! s_max^n, which bounds every partial
    sum of the cofactor expansion (Hadamard's bound on a minor itself is
    n^(n/2) s_max^n), fits, and in int64 otherwise.
    """
    dtype = np.int32 if factorial(n) * s_max ** n < 2 ** 31 else np.int64
    rows = rows.astype(dtype)
    subs = _combinations(len(rows), n)
    minors = np.empty((len(subs), rows.shape[-1]), dtype=dtype)
    for k, sub in enumerate(subs):
        minors[k] = det_int_batch(np.moveaxis(rows[sub], -1, 0))
    return np.gcd.reduce(minors, axis=0) == 1, minors


def enumerate_shift_arrays(g: QuotientGraph, n: int, s_max: int = 1) -> np.ndarray:
    """All valid shift assignments for a one- or two-vertex skeleton.

    Returns the shift matrices stacked (N, E, n), each the tree gauge of
    its cycle-shift matrix (shift 0 on the first bridge); loop shifts are
    taken sign-canonically (a loop and its reverse are the same edge).
    Kept assignments have lattice-generating cycle shifts and no two
    proportional loops at a vertex; exact and negation duplicates are removed.
    """
    return tree_gauge(g, _screened_rows(g, n, s_max)[0])


def _screened_rows(g: QuotientGraph, n: int, s_max: int,
                   fold_swap: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The assignments of :func:`enumerate_shift_arrays` as cycle-shift
    matrices (N, r, n), rows in ``facts().cycles`` order, and the n x n
    minors the lattice-generation screen took of them (``_rows_generate_zn``)
    at r = n + 1, where the orbit fold reads them; None at other ranks.
    The matrices are int8 while s_max < 128 (int64 above).

    With ``fold_swap``, at r = n + 1 on two vertices only the loop-set
    pairs (i0, i1) with i0 <= i1 are enumerated: swapping the vertices
    maps candidate (i0, i1, B) onto (i1, i0, +-B), which lies in the same
    orbit and passes the same screen, so the first member of every orbit
    is kept, and in its place in the order.
    """
    if classify(g).kind == "other":
        raise ValueError("shift enumeration supports one- and two-vertex skeletons only")
    bridges, _, loops0 = oriented_star(g, 0)
    loops1 = oriented_star(g, 1)[2]

    classes = np.array(_loop_classes(n, s_max))
    nonzero = np.array(_nonzero_shifts(n, s_max))
    k = (len(loops0), len(loops1), max(len(bridges) - 1, 0))
    raw = comb(len(classes), k[0]) * comb(len(classes), k[1]) * comb(len(nonzero), k[2])
    if raw > ENUMERATION_LIMIT:
        raise RuntimeError(
            f"raw shift-assignment count {raw} exceeds limit {ENUMERATION_LIMIT}")

    # loop sets with two proportional shifts, a ``facts()`` violation, are skipped
    along = np.unique(classes // np.gcd.reduce(classes, axis=1, keepdims=True), axis=0,
                      return_inverse=True)[1].ravel()      # the direction of each class
    sets = [s[(np.diff(np.sort(along[s]), axis=1) != 0).all(axis=1)]
            for s in (_combinations(len(classes), k[0]), _combinations(len(classes), k[1]))]
    # negating the free bridges reverses the order of ``nonzero``, so of a
    # set and its negation (the same assignment) the lexicographically
    # first is kept, compared column by column from the last
    bridge_sets = _combinations(len(nonzero), k[2])
    neg = len(nonzero) - 1 - bridge_sets[:, ::-1]
    first = np.ones(len(neg), dtype=bool)
    for a, b in zip(bridge_sets.T[::-1], neg.T[::-1]):
        first = (a < b) | ((a == b) & first)
    bridge_sets = bridge_sets[first]
    r = sum(k)
    if fold_swap and r == n + 1 and g.vertex_count == 2:
        i0, i1 = np.triu_indices(len(sets[0]), m=len(sets[1]))
    else:
        i0, i1 = np.indices((len(sets[0]), len(sets[1]))).reshape(2, -1)
    # the shifts of each loop-set pair and of each bridge set as rows of C,
    # (rows, n, pairs or sets): a block of candidates gathers whole rows
    dtype = np.int8 if s_max < 2 ** 7 else np.int64
    tables = [np.ascontiguousarray(t.transpose(1, 2, 0), dtype=dtype) for t in
              (np.concatenate([classes[sets[0][i0]], classes[sets[1][i1]]], axis=1),
               nonzero[bridge_sets])]
    # candidates in product order (loop-set pair, free bridge set),
    # screened in blocks and kept as (r, n, N); the tree is the first
    # bridge, at shift 0: a cycle has its edge's shift
    to_cycles = np.argsort(np.concatenate([loops0, loops1, bridges[1:]]))
    count = len(i0) * len(bridge_sets)
    blocks, minors = [], ([] if r == n + 1 else None)
    for lo in range(0, max(count, 1), _ENUM_BLOCK):    # an empty first block at least
        ip, ib = np.divmod(np.arange(lo, min(lo + _ENUM_BLOCK, count)), len(bridge_sets))
        C = np.concatenate([np.take(tables[0], ip, axis=2),
                            np.take(tables[1], ib, axis=2)])[to_cycles]
        ok, m = _rows_generate_zn(C, n, s_max)
        blocks.append(np.compress(ok, C, axis=2))
        if minors is not None:
            minors.append(np.compress(ok, m, axis=1))
    C = np.moveaxis(np.concatenate(blocks, axis=2), 2, 0)
    return C, None if minors is None else np.concatenate(minors, axis=1)


def shift_orbits(g: QuotientGraph, n: int, s_max: int = 1) -> np.ndarray:
    """One representative shift assignment per class of equal landscape.

    Assignments are equivalent when a unimodular basis change (S -> S U^T)
    and a skeleton automorphism (permuting the loops at a vertex or the
    bridges, reversing loops, swapping the vertices) map one onto the
    other; L^n/V takes the same values on both.  Returns the
    representatives stacked (K, E, n), each the tree gauge of its
    cycle-shift matrix (:func:`tree_gauge`).  At circuit rank r = n there
    is one class, as a surjection Z^r -> Z^n is fixed up to a basis change
    by its kernel; its representative is built, nothing enumerated: its
    cycle-shift matrix is I_n.  At r = n + 1 the enumerated assignments
    are classed by :func:`_relation_keys`, the first member of each class
    representing it; at larger r every enumerated assignment is its own
    class.  Enumerated classes come in first-member order.

    The relation vector is a function of the maximal minors the
    enumeration's screen took, so only the first assignment with each
    distinct minor vector is keyed, found by a stable sort and a scan;
    on two vertices the enumeration leaves out the loop-set pairs that a
    vertex swap maps onto earlier ones (``_screened_rows``).  D1,3 in R^3
    keys 766 of 10,125 such assignments (19,380 in all), D5 654 of 5,590.
    """
    if classify(g).circuit_rank == n:
        return tree_gauge(g, np.eye(n, dtype=np.int64)[None])
    C, minors = _screened_rows(g, n, s_max, fold_swap=True)
    if minors is None or not len(C):
        return tree_gauge(g, C)
    if np.abs(minors).max() < 2 ** 15:
        minors = minors.astype(np.int16)    # exact, and sorted by radix
    order = np.lexsort(minors[::-1])
    ranked = minors[:, order]
    new = np.ones(len(C), dtype=bool)
    new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    keyed = np.sort(order[new])             # the least index of each
    first = np.unique(_relation_keys(g, minors[:, keyed]), return_index=True)[1]
    return tree_gauge(g, C[keyed[np.sort(first)]])


def tree_gauge(g: QuotientGraph, C: np.ndarray) -> np.ndarray:
    """The assignments (..., E, n) of ``g`` with the stacked cycle-shift
    matrices ``C`` (..., r, n), in the vertex gauge of its spanning tree:
    shift 0 on the tree edges and the rows of each C, in order, on the
    others (the order of the rows of ``facts().cycles``)."""
    S = np.zeros(C.shape[:-2] + (g.edge_count, C.shape[-1]), dtype=np.int64)
    S[..., np.delete(np.arange(g.edge_count), g.facts().tree), :] = C
    return S


def _relation_keys(g: QuotientGraph, minors: np.ndarray) -> np.ndarray:
    """Orbit key of each assignment, for circuit rank r = n + 1, from the
    n x n minors of its cycle-shift matrix C as ``_rows_generate_zn`` lays
    them out, one column per assignment.

    The signed maximal minors span the left kernel of C: mu_i is (-1)^i
    times the minor that leaves out row i, the (r-1-i)-th subset.  Carried
    to the edges by ``facts().cycles`` they give the primitive relation mu
    (mu^T S = 0), free of the spanning tree and fixed up to sign by a basis
    change.  Automorphisms act on mu by reversing loops (|mu| on loops),
    permuting within an edge class (sorting) and, on two vertices,
    exchanging the loop classes and reversing the bridges.  The key is the
    lexicographic rank of the least image, ranked by one sort and a scan.
    """
    Z = g.facts().cycles
    mu = ((-1) ** np.arange(len(Z)) * minors[::-1].T) @ Z
    mu //= np.gcd.reduce(mu, axis=1, keepdims=True)

    bridges, sign, _ = oriented_star(g, 0)
    mu_b = mu[:, bridges] * sign        # oriented 0 -> 1
    loops = [np.sort(np.abs(mu[:, oriented_star(g, v)[2]]), axis=1)
             for v in range(g.vertex_count)]
    pos, neg = np.sort(mu_b, axis=1), np.sort(-mu_b, axis=1)
    images = [np.hstack(loops + [pos]), np.hstack(loops + [neg])]
    if g.vertex_count == 2:
        images += [np.hstack(loops[::-1] + [neg]), np.hstack(loops[::-1] + [pos])]
    images = np.stack(images, axis=1)
    rows = images.reshape(-1, images.shape[2])
    order = np.lexsort(rows.T[::-1])            # the first column is the primary key
    ranked = rows[order]
    rank = np.empty(len(rows), dtype=np.int64)
    rank[order] = np.diff(ranked, axis=0, prepend=ranked[:1]).any(axis=1).cumsum()
    return rank.reshape(images.shape[:2]).min(axis=1)
