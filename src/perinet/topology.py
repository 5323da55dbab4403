"""Combinatorics of quotient graphs on one or two vertices.

Covers classification into bouquet/double-bouquet/dipole families (with
the circuit rank), admissible topologies for given (dimension, degree),
abstract graph builders, and enumeration of integer shift assignments
and one representative per orbit of them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import ceil, comb, factorial

import numpy as np

from .intlinalg import det_int_batch
from .netcore import QuotientGraph, _count, oriented_star

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
        loops = _count(loops, "loops", 1)
        return TopologyClass("bouquet", loops, 0, loops, 2 * loops, 1)

    @staticmethod
    def double_bouquet(loops: int, bridges: int) -> "TopologyClass":
        loops, bridges = _count(loops, "loops", 0), _count(bridges, "bridges", 1)
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
    read off the record of the graph's skeleton (``QuotientGraph.skeleton``)."""
    sk = g.skeleton()
    if not sk.connected:
        raise ValueError("classification requires a connected graph")
    if sk.degree is None:
        raise ValueError(f"graph is not regular: degrees {g.degrees().tolist()}")
    d, V, loops = sk.degree, g.vertex_count, sk.loops
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
    n, d = _count(n, "dimension n", 2), _count(d, "degree d", 3)
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
    z = [0] * _count(dim, "dim", 2)
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


@functools.lru_cache
def _box_maps(n: int, s_max: int) -> tuple[np.ndarray, ...]:
    """The nonzero shifts of the box in product order, the loop classes
    their second half; the class index of each class's direction, on two
    copies of the classes, the second shifted by N/2; the signed coordinate
    permutations W, 2^n n! maps, the identity first and -w half of them
    after w, as permutations of the shift indices (G, N); as loop maps
    (G, N), w on both copies, then exchanging them, as a vertex swap does (w
    and -w agree on classes); and the masks (``_masks``) of both.  Indices
    are read off base-(2 s_max + 1) codes, which count the box in product
    order; -s has code N - code.
    """
    P = np.array(_nonzero_shifts(n, s_max))
    half, digits = len(P) // 2, (2 * s_max + 1) ** np.arange(n - 1, -1, -1)
    signs = np.array([(1,) + s for s in itertools.product((1, -1), repeat=n - 1)])
    signs = np.concatenate([signs, -signs])
    images = P[:, list(itertools.permutations(range(n)))] * signs[:, None, None]
    code = ((images + s_max) @ digits).transpose(0, 2, 1).reshape(-1, len(P))
    along = (P[half:] // np.gcd.reduce(P[half:], axis=1, keepdims=True) + s_max) @ digits - half - 1
    classes = np.maximum(code, len(P) - code)[:len(code) // 2, half:] - half - 1
    both = np.hstack([classes, classes + half])
    maps, loops = code - (code > half), np.concatenate([both, (both + half) % len(P)])
    out = (P, np.concatenate([along, along + half]), maps, loops, _masks(maps), _masks(loops))
    for a in out:       # kept per (n, s_max), shared by every call
        a.flags.writeable = False
    return out


def _masks(maps: np.ndarray) -> np.ndarray:
    """Reverse bitmasks of the image of each element under each map of
    ``maps`` (G, N), in words of b bits: (N, words, G).  Element e sets bit
    b - 1 - e % b of word e // b, so of two sorted sets of one size, their
    masks summed and compared word by word from the first, the larger is
    the lexicographically earlier.  Words are int32 of 31 bits where one
    word holds range(N), int64 of 62 bits otherwise."""
    b = 31 if maps.shape[1] <= 31 else 62
    img, words = maps.T[:, None, :], np.arange(-(-maps.shape[1] // b))[:, None]
    return np.where(img // b == words, 1 << (b - 1 - img % b),
                    0).astype(np.int32 if b == 31 else np.int64, order='C')


def _extend(rows: np.ndarray, lo: int, hi: int,
            along: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each sorted row of ``rows`` (M, j) followed by every larger element
    e with lo <= e < hi, with ``along`` only by those of another class of
    it than the row's, as (parent row, element); rows in lexicographic
    order stay in it."""
    e = np.arange(lo, hi)
    ok = e > (rows[:, -1:] if rows.shape[1] else np.full((len(rows), 1), -1))
    if along is not None:
        ok &= (along[rows][:, :, None] != along[e]).all(axis=1)
    parent, i = np.nonzero(ok)
    return parent, e[i]


def _negation_first(sets: np.ndarray, N: int) -> np.ndarray:
    """Per sorted row of ``sets``: does it come, lexicographically, no later
    than its negation, N - 1 - the row reversed?  Compared column by column
    from the last."""
    first = np.ones(len(sets), dtype=bool)
    for a, b in zip(sets.T[::-1], N - 1 - sets.T):
        first = (a < b) | ((a == b) & first)
    return first


def _least_sets(bits: np.ndarray, parts: list[tuple[int, int]], owners: np.ndarray | None = None,
                along: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The sets least among their sorted images under G maps, permutations
    of range(N) with the identity first given by their masks ``bits``
    (``_masks``), built level by level: each prefix of a least set is least,
    as the i-th smallest element of a superset's image is at most the
    subset's.  A set takes k elements of each part (size, k) of range(N) in
    turn; ``owners`` (P, G) marks the maps of each of P owners (one with
    every map if None); with ``along`` no set holds two elements of one
    class of it.  Returns (owner, sorted rows), owner-major, then in
    lexicographic order.
    """
    barred = None if owners is None else ~owners
    P = 1 if owners is None else len(owners)
    owner, rows, lo = np.arange(P), np.zeros((P, 0), dtype=np.int64), 0
    for size, k in parts:
        for j in range(k):
            parent, e = _extend(rows, lo, lo + size - k + j + 1, along)
            prefix = bits[rows].sum(axis=1, dtype=bits.dtype)
            least = np.empty(len(e), dtype=bool)
            for c in range(0, len(e), _ENUM_BLOCK):     # (block, words, G) keys at a time
                p, x = parent[c:c + _ENUM_BLOCK], e[c:c + _ENUM_BLOCK]
                keys = prefix[p] + bits[x]
                le = keys[:, -1] <= keys[:, -1, :1]     # no image earlier, word by word
                for w in range(keys.shape[1] - 2, -1, -1):
                    le = (keys[:, w] < keys[:, w, :1]) | (keys[:, w] == keys[:, w, :1]) & le
                if barred is not None:
                    le |= barred[owner[p]]
                least[c:c + _ENUM_BLOCK] = le.all(axis=1)
            keep = parent[least]
            owner, rows = owner[keep], np.column_stack([rows[keep], e[least]])
        lo += size
    return owner, rows


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
    rows = rows.astype(dtype, order='C')
    minors = np.stack([det_int_batch(np.moveaxis(rows[list(sub)], -1, 0))
                       for sub in itertools.combinations(range(len(rows)), n)])
    return np.gcd.reduce(minors, axis=0) == 1, minors


def enumerate_shift_arrays(g: QuotientGraph, n: int, s_max: int = 1) -> np.ndarray:
    """All valid shift assignments for a one- or two-vertex skeleton.

    Returns the shift matrices stacked (N, E, n), each the tree gauge of
    its cycle-shift matrix (shift 0 on the first bridge); loop shifts are
    taken sign-canonically (a loop and its reverse are the same edge).
    Kept assignments have lattice-generating cycle shifts and no two
    proportional loops at a vertex; exact and negation duplicates are removed.
    """
    n, s_max = _count(n, "dimension n", 2), _count(s_max, "s_max", 1)
    return tree_gauge(g, _screened_rows(g, n, s_max)[0])


def _screened_rows(g: QuotientGraph, n: int, s_max: int,
                   orbits: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The assignments of :func:`enumerate_shift_arrays` as cycle-shift
    matrices (N, r, n), rows in ``skeleton().cycles`` order, and the n x n
    minors the lattice-generation screen took of them (``_rows_generate_zn``)
    at r = n + 1, where the orbit fold reads them; None at other ranks.
    The matrices are int8 while s_max < 128 (int64 above).  A candidate is
    a pair of loop sets and a set of free bridge shifts, in product order,
    built and screened about ``_ENUM_BLOCK`` at a time.

    Only candidates that no map of a group maps earlier are built: of the
    identity alone, every candidate; with ``orbits``, of the signed
    coordinate permutations w, at any rank.  S -> S w^T is a basis change
    that keeps the box, the folds and the screen, so every folded image of
    an orbit's first member is a kept member, no earlier: first members are
    built.  Loop sets are least under the maps and the vertex swap, bridge
    sets under the maps fixing them, the last element under -I alone.
    """
    if classify(g).kind == "other":
        raise ValueError("shift enumeration supports one- and two-vertex skeletons only")
    bridges, _, loops0 = oriented_star(g, 0)
    loops1 = oriented_star(g, 1)[2]

    N = (2 * s_max + 1) ** n - 1        # the box's nonzero shifts, counted before it is built
    Nc = N // 2
    k = (len(loops0), len(loops1), max(len(bridges) - 1, 0))
    raw = comb(Nc, k[0]) * comb(Nc, k[1]) * comb(N, k[2])
    if raw > ENUMERATION_LIMIT:
        raise RuntimeError(
            f"raw shift-assignment count {raw} exceeds limit {ENUMERATION_LIMIT}")
    nonzero, along, _, _, bits, loop_bits = _box_maps(n, s_max)
    r = sum(k)
    # the shifts of the classes, then of the free bridges, as rows of C; the
    # tree is the first bridge, at shift 0: a cycle has its edge's shift
    table = np.concatenate([nonzero[Nc:], nonzero]).astype(np.int8 if s_max < 2 ** 7 else np.int64)
    to_cycles = np.argsort(np.concatenate([loops0, loops1, bridges[1:]]))

    # both loop sets as one set on two copies of the classes, then the
    # bridge sets under the maps whose action on the classes fixes it; the
    # loop maps are the H maps w on the classes (where w and -w agree), then
    # each with the vertex swap
    G = bits.shape[2] if orbits else 1
    H, swap = max(G // 2, 1), orbits and k[1] > 0
    loop_bits = loop_bits if swap else loop_bits[..., :H]
    q = _least_sets(loop_bits, [(Nc, k[0]), (Nc, k[1])], along=along)[1]
    keys = np.zeros((len(q),) + loop_bits.shape[1:], dtype=loop_bits.dtype)
    for col in q.T:     # a column at a time: q holds every loop-set pair at G = 1
        keys += loop_bits.take(col, axis=0)
    fixing = (keys == keys[..., :1]).all(axis=1)
    fixing = fixing[:, :H] | fixing[:, H:] if swap else fixing
    owner, b = _least_sets(bits[..., :G], [(N, max(k[2] - 1, 0))], np.tile(fixing, 2)[:, :G])
    # the last bridge element, its negation fold and the screen, a block of
    # prefixes at a time: 4 _ENUM_BLOCK / N prefixes take fewer than
    # 4 _ENUM_BLOCK last elements, about half of which pass the fold
    step = max(4 * _ENUM_BLOCK // N, 1) if k[2] else _ENUM_BLOCK
    loop_rows, blocks, minors = table.take(q % Nc, axis=0), [], ([] if r == n + 1 else None)
    for lo in range(0, max(len(b), 1), step):       # an empty first block at least
        o, c = owner[lo:lo + step], b[lo:lo + step]
        if k[2]:
            parent, e = _extend(c, 0, N)
            c = np.column_stack([c[parent], e])
            first = _negation_first(c, N)
            o, c = o[parent[first]], c[first]
        C = np.concatenate([loop_rows.take(o, axis=0), table.take(c + Nc, axis=0)],
                           axis=1)[:, to_cycles]
        ok, m = _rows_generate_zn(C.transpose(1, 2, 0), n, s_max)
        blocks.append(C[ok])
        if minors is not None:
            minors.append(m[:, ok])
    return np.concatenate(blocks), None if minors is None else np.concatenate(minors, axis=1)


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
    cycle-shift matrix is I_n.  At r = n + 1 the class of an enumerated
    assignment is keyed by :func:`_relation_keys`, and its first member in
    the enumeration's order represents it.  Only candidates that no signed
    coordinate permutation maps earlier are built (``_screened_rows``),
    every first member among them, and each kept one is keyed once: D1,3
    in R^3 screens 1,308 candidates in place of 15,379 and keys 786, D5
    screens 769 in place of 7,514 and keys 531.  At larger r nothing is
    keyed: the folded assignments represent the classes, some more than
    once (D1,5 in R^3: 34,541 of the 1,182,925 enumerated).  Classes come
    in first-member order.
    """
    n, s_max = _count(n, "dimension n", 2), _count(s_max, "s_max", 1)
    if classify(g).circuit_rank == n:
        return tree_gauge(g, np.eye(n, dtype=np.int64)[None])
    C, minors = _screened_rows(g, n, s_max, orbits=True)
    if minors is not None:
        C = C[np.sort(np.unique(_relation_keys(g, minors), return_index=True)[1])]
    return tree_gauge(g, C)


def tree_gauge(g: QuotientGraph, C: np.ndarray) -> np.ndarray:
    """The assignments (..., E, n) of ``g`` with the stacked cycle-shift
    matrices ``C`` (..., r, n), in the vertex gauge of its spanning tree:
    shift 0 on the tree edges and the rows of each C, in order, on the
    others (the order of the rows of ``skeleton().cycles``)."""
    S = np.zeros(C.shape[:-2] + (g.edge_count, C.shape[-1]), dtype=np.int64)
    S[..., sorted(set(range(g.edge_count)) - set(g.skeleton().tree)), :] = C
    return S


def _relation_keys(g: QuotientGraph, minors: np.ndarray) -> np.ndarray:
    """Orbit key of each assignment, for circuit rank r = n + 1, from the
    n x n minors of its cycle-shift matrix C as ``_rows_generate_zn`` lays
    them out, one column per assignment.

    The signed maximal minors span the left kernel of C: mu_i is (-1)^i
    times the minor that leaves out row i, the (r-1-i)-th subset.  Carried
    to the edges by ``skeleton().cycles`` they give the primitive relation mu
    (mu^T S = 0), free of the spanning tree and fixed up to sign by a basis
    change.  Automorphisms act on mu by reversing loops (|mu| on loops),
    permuting within an edge class (sorting) and, on two vertices,
    exchanging the loop classes and reversing the bridges.  The key is the
    least image with its entries as the digits of one integer in base
    2B + 1, B the largest |mu_e|, whose order is the lexicographic.
    """
    Z = g.skeleton().cycles
    # primitive: the gcd of the minors is 1 on every assignment the screen keeps
    mu = ((-1) ** np.arange(len(Z)) * minors[::-1].T) @ Z

    bridges, sign, _ = oriented_star(g, 0)
    mu_b = mu[:, bridges] * sign        # oriented 0 -> 1
    loops = [np.sort(np.abs(mu[:, oriented_star(g, v)[2]]), axis=1)
             for v in range(g.vertex_count)]
    pos = np.sort(mu_b, axis=1)
    neg = -pos[:, ::-1]
    images = [np.hstack(loops + [pos]), np.hstack(loops + [neg])]
    if g.vertex_count == 2:
        images += [np.hstack(loops[::-1] + [neg]), np.hstack(loops[::-1] + [pos])]
    base, E = 2 * int(np.abs(mu).max(initial=0)) + 1, mu.shape[1]
    if base ** E > 2 ** 63:     # |mu_e| <= r n! s_max^n: no skeleton under ENUMERATION_LIMIT
        raise RuntimeError(f"relation vectors up to {base // 2} overflow a {E}-digit key")
    return (np.stack(images) @ base ** np.arange(E - 1, -1, -1)).min(axis=0)
