"""Exact balanced constructions and the catalog of minimizing networks.

The generic constructors realize one- and two-vertex balanced networks
of any admissible degree over an arbitrary lattice; the catalog holds
closed-form coordinates of the sharp minimizers, with their expected
length quotients stored as exact expressions evaluated on demand.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .balance import geometric_median
from .bounds import bound_dipole, bound_even
from .netcore import (DIRECTION_TOL, Lattice, PeriodicNetwork, QuotientGraph, _count, _direction,
                      _real)
from .topology import TopologyClass, _nonzero_shifts, classify


@dataclass(frozen=True)
class CatalogEntry:
    """Metadata for one catalog network."""

    name: str
    dim: int
    degree: int
    topology: TopologyClass
    parameters: dict = field(default_factory=dict)
    expected_quotient: float = float("nan")
    expected_expr: str = ""


def _net(dim, vertex_count, edges, basis, positions) -> PeriodicNetwork:
    g = QuotientGraph.from_edges(dim, vertex_count, edges)
    return PeriodicNetwork(g, Lattice(np.asarray(basis, float)),
                           np.asarray(positions, float))


def _shift_pool(n: int, basis: np.ndarray, span: int = 2) -> list[tuple[int, ...]]:
    """The loop classes (``_box_maps``) ordered by lattice-vector norm."""
    shifts = _nonzero_shifts(n, span)
    return sorted(shifts[len(shifts) // 2:],
                  key=lambda s: (float(np.linalg.norm(basis @ np.array(s, float))),
                                 tuple(-x for x in s)))


def _pick_loops(n: int, basis: np.ndarray, per_vertex: int, required: list,
                *, skip_axes: tuple[int, ...] = (), out_of_plane: bool = False,
                avoid_dirs: tuple[np.ndarray, ...] = ()) -> list[tuple]:
    """Distribute loop shifts over two vertices, as the loop edges at
    vertex 0 and then at vertex 1.

    Required generator shifts are dealt alternately, then the pool tops up
    each vertex; within a vertex no two loop vectors may be parallel, and
    none may be parallel to a direction in ``avoid_dirs``.  Every
    admissible degree leaves each vertex room for its half of ``required``.
    """
    pool = _shift_pool(n, basis)
    if out_of_plane:
        pool = [s for s in pool if any(s[i] for i in range(n) if i not in skip_axes)]
    else:
        axes = {_unit_shift(n, i) for i in skip_axes}      # their own directions
        pool = [s for s in pool if _direction(s) not in axes]
    return [(v, v, s) for v in range(2)
            for s in _top_up(required[v::2], per_vertex, pool, basis, avoid_dirs)]


def _top_up(chosen: list, count: int, pool: list, basis: np.ndarray,
            avoid_dirs: tuple[np.ndarray, ...] = ()) -> list[tuple[int, ...]]:
    """``chosen`` extended in pool order to ``count`` shifts, skipping those
    parallel to a shift already chosen or, as lattice vectors, to a
    direction in ``avoid_dirs``."""
    chosen = list(chosen)
    for cand in pool:
        if len(chosen) == count:
            break
        if _direction(cand) in map(_direction, chosen):
            continue
        vec = basis @ np.array(cand, float)
        u = vec / np.linalg.norm(vec)
        if any(min(np.max(np.abs(u - w)), np.max(np.abs(u + w))) < DIRECTION_TOL
               for w in avoid_dirs):
            continue
        chosen.append(cand)
    if len(chosen) < count:
        raise RuntimeError("shift pool exhausted while placing loops")
    return chosen


def _unit_shift(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def construct_bouquet(n: int, d: int, lattice: Lattice) -> PeriodicNetwork:
    """One-vertex balanced network of even degree d >= 2n over ``lattice``.

    The first n loops run along the lattice generators; further loops use
    the shortest lattice vectors that are not parallel to any loop already
    chosen, so the star of the single vertex stays embedded.
    """
    n, d = _count(n, "dimension n", 2), _count(d, "degree d", 3)
    if d % 2 != 0 or d < 2 * n:
        raise ValueError("bouquet construction needs even degree d >= 2n")
    if lattice.dim != n:
        raise ValueError("lattice dimension mismatch")
    B = lattice.basis
    chosen = _top_up([_unit_shift(n, i) for i in range(n)], d // 2, _shift_pool(n, B), B)
    edges = [(0, 0, s) for s in chosen]
    return _net(n, 1, edges, B, np.zeros((1, n)))


def _lagrange_reduce_pair(basis: np.ndarray) -> np.ndarray:
    """The basis with its first two columns Lagrange-Gauss reduced within
    their plane, by a unimodular change of those two only: the reduced pair
    satisfies |g1| <= |g2| <= |g2 +- g1| and encloses an angle in [60, 90]
    degrees.  In practice a handful of sweeps suffice."""
    B = np.array(basis, dtype=np.float64)
    for _ in range(1000):
        if np.dot(B[:, 0], B[:, 0]) > np.dot(B[:, 1], B[:, 1]):
            B[:, [0, 1]] = B[:, [1, 0]]
        mu = round(float(np.dot(B[:, 0], B[:, 1]) / np.dot(B[:, 0], B[:, 0])))
        if mu == 0:
            break
        B[:, 1] -= mu * B[:, 0]
    else:
        raise RuntimeError("plane reduction did not terminate")
    if np.dot(B[:, 0], B[:, 1]) < 0:
        B[:, 1] = -B[:, 1]
    return B


def construct_odd(n: int, d: int, lattice: Lattice) -> PeriodicNetwork:
    """Two-vertex balanced network of odd degree d >= n+1 over ``lattice``.

    The two in-plane generators are Lagrange-reduced so they enclose an
    angle in [60, 90] degrees, which puts the Fermat point of the triangle
    (0, g1, g2) in its interior; three bridges meet there at 120 degrees
    and the remaining degree comes from loops in opposite pairs.
    """
    n, d = _count(n, "dimension n", 2), _count(d, "degree d", 3)
    if d % 2 != 1 or d < n + 1:
        raise ValueError("odd construction needs odd degree d >= n+1")
    if lattice.dim != n:
        raise ValueError("lattice dimension mismatch")
    B = _lagrange_reduce_pair(lattice.basis)
    g1, g2 = B[:, 0], B[:, 1]
    tripod = np.array([np.zeros(n), g1, g2])
    q, at_vertex = geometric_median(tripod, tol=1e-13)
    if at_vertex is not None:
        # no input reaches this: the reduced pair encloses 60 to 90 degrees
        # and |g2 - g1| is the longest side, so no angle of the triangle
        # exceeds 90 degrees, and the unit vectors at a vertex sum to norm
        # at least sqrt(2) > 1, which the vertex test needs to stop there
        raise RuntimeError("Fermat point degenerated to a triangle vertex")

    per_vertex = (d - 3) // 2
    dirs0 = tuple(u / np.linalg.norm(u) for u in (q, q - g1, q - g2))
    required = [_unit_shift(n, i) for i in range(2, n)]
    edges = _pick_loops(n, B, per_vertex, required, skip_axes=(0, 1),
                        out_of_plane=(n > 2), avoid_dirs=dirs0)
    edges.append((0, 1, tuple([0] * n)))
    edges.append((0, 1, tuple(-x for x in _unit_shift(n, 0))))
    edges.append((0, 1, tuple(-x for x in _unit_shift(n, 1))))
    positions = np.vstack([np.zeros(n), q])
    return _net(n, 2, edges, B, positions)


def construct_even_two_vertex(n: int, d: int, lattice: Lattice,
                              q_param: float = 0.5) -> PeriodicNetwork:
    """Two-vertex balanced network of even degree d >= n+1 over ``lattice``.

    The second vertex sits at q_param * g1 on the segment from the origin
    to g1, splitting it into two opposite bridges; all remaining degree
    comes from loops covering the other generators.
    """
    n, d = _count(n, "dimension n", 2), _count(d, "degree d", 3)
    if d % 2 != 0 or d < n + 1:
        raise ValueError("even two-vertex construction needs even degree d >= n+1")
    if lattice.dim != n:
        raise ValueError("lattice dimension mismatch")
    q_param = _real(q_param, "q_param", 1.0)
    B = lattice.basis
    per_vertex = d // 2 - 1
    required = [_unit_shift(n, i) for i in range(1, n)]
    edges = _pick_loops(n, B, per_vertex, required, skip_axes=(0,),
                        out_of_plane=False)
    zero = tuple([0] * n)
    edges.append((0, 1, zero))
    edges.append((0, 1, tuple(-x for x in _unit_shift(n, 0))))
    positions = np.vstack([np.zeros(n), q_param * B[:, 0]])
    return _net(n, 2, edges, B, positions)


# ---------------------------------------------------------------------------
# catalog


def _entry(name, net, params, expected, expr) -> tuple[PeriodicNetwork, CatalogEntry]:
    top = classify(net.graph)
    return net, CatalogEntry(name=name, dim=net.dim, degree=top.degree,
                             topology=top, parameters=params,
                             expected_quotient=expected, expected_expr=expr)


def _catalog_hcb():
    net = _net(2, 2,
               [(0, 1, (0, 0)), (0, 1, (-1, 0)), (0, 1, (0, -1))],
               [[1.5, 1.5], [math.sqrt(3) / 2, -math.sqrt(3) / 2]],
               [[0.0, 0.0], [1.0, 0.0]])
    return _entry("hcb", net, {}, 2 * math.sqrt(3), "2*sqrt(3)")


def _catalog_pcu(n: int = 3):
    n = _count(n, "dimension n", 2)
    expected = bound_even(n, 2 * n)      # n^n, refused before the build where it overflows
    net = _net(n, 1, [(0, 0, _unit_shift(n, i)) for i in range(n)],
               np.eye(n), np.zeros((1, n)))
    return _entry("pcu", net, {"n": n}, expected, f"{n}^{n}")


def _catalog_cube_net(n: int = 3):
    net, entry = _catalog_pcu(n=n)
    return net, replace(entry, name="cube_net")


def _catalog_sql():
    net, entry = _catalog_pcu(n=2)
    return net, replace(entry, name="sql", parameters={})


def _catalog_dia():
    net = _net(3, 2,
               [(0, 1, (0, 0, 0)), (0, 1, (-1, 0, 0)),
                (0, 1, (0, -1, 0)), (0, 1, (0, 0, -1))],
               [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]],
               [[0.0, 0.0, 0.0], [0.25, 0.25, 0.25]])
    return _entry("dia", net, {}, 12 * math.sqrt(3), "12*sqrt(3)")


def _catalog_cds(t: float = 0.5):
    t = _real(t, "cds parameter t", 1.0)
    net = _net(3, 2,
               [(0, 0, (1, 0, 0)), (1, 1, (0, 1, 0)),
                (0, 1, (0, 0, 0)), (0, 1, (0, 0, -1))],
               np.eye(3),
               [[0.0, 0.0, 0.0], [0.0, 0.0, t]])
    return _entry("cds", net, {"t": t}, 27.0, "3^3")


def _catalog_bnn():
    r3 = math.sqrt(3)
    net = _net(3, 2,
               [(0, 0, (0, 0, 1)), (1, 1, (0, 0, 1)),
                (0, 1, (0, 0, 0)), (0, 1, (-1, 1, 0)), (0, 1, (-1, 0, 0))],
               [[-1.5, 0.0, 0.0], [r3 / 2, r3, 0.0], [0.0, 0.0, 0.75]],
               [[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    return _entry("bnn", net, {}, 27 * r3, "27*sqrt(3)")


def _catalog_sqp():
    rho = math.sqrt(15) / 4
    z = -15.0 / 8.0
    net = _net(3, 2,
               [(0, 1, (0, 0, 0)), (0, 1, (1, 0, 0)), (0, 1, (0, 1, 0)),
                (0, 1, (0, 0, 1)), (0, 1, (1, -1, 1))],
               [[rho, 0.0, -rho], [0.0, rho, 0.0], [z, z, z]],
               [[0.0, 0.0, 0.0], [0.0, 0.0, 13.0 / 8.0]])
    return _entry("sqp", net, {}, 405.0 / 8.0, "405/8")


def regular_simplex_vertices(n: int) -> np.ndarray:
    """Vertices of a regular n-simplex with circumcentre 0 and radius 1.

    Built from the Gram matrix with unit diagonal and off-diagonal -1/n
    via Cholesky, so the construction is dimension-generic.
    """
    n = _count(n, "dimension n", 1)
    gram = -np.ones((n, n)) / n + np.eye(n) * (1 + 1.0 / n)
    chol = np.linalg.cholesky(gram)
    verts = chol  # rows are v_1..v_n with <v_i, v_j> = gram[i, j]
    v0 = -verts.sum(axis=0)
    return np.vstack([v0, verts])


def _catalog_simplex_net(n: int = 3):
    n = _count(n, "dimension n", 2)
    expected = bound_dipole(n)      # refused before the build where it overflows
    verts = regular_simplex_vertices(n)
    v0, rest = verts[0], verts[1:]
    basis = (rest - v0).T          # columns g_i = v_i - v_0
    edges = [(0, 1, tuple([0] * n))]
    edges += [(0, 1, _unit_shift(n, i)) for i in range(n)]
    positions = np.vstack([np.zeros(n), v0])
    net = _net(n, 2, edges, basis, positions)
    return _entry("simplex_net", net, {"n": n}, expected,
                  f"sqrt({n + 1}^{n - 1} * {n}^{n})")


_CATALOG = {
    "hcb": _catalog_hcb,
    "sql": _catalog_sql,
    "dia": _catalog_dia,
    "cds": _catalog_cds,
    "bnn": _catalog_bnn,
    "sqp": _catalog_sqp,
    "pcu": _catalog_pcu,
    "simplex_net": _catalog_simplex_net,
    "cube_net": _catalog_cube_net,
}

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str, **params) -> tuple[PeriodicNetwork, CatalogEntry]:
    """Build a catalog network by name.

    Parameters: ``cds`` takes ``t`` in (0,1); ``pcu``, ``cube_net`` and
    ``simplex_net`` take the dimension ``n``, an integer (``_count``: not
    4.0).  A parameter the network does not take raises ``ValueError``.
    """
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown catalog name {name!r}; "
                         f"known: {', '.join(CATALOG_NAMES)}") from None
    for key in params:
        if key not in inspect.signature(builder).parameters:
            raise ValueError(f"catalog network {name!r} takes no parameter {key!r}")
    return builder(**params)
