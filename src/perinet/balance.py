"""Force balance and geometric-median (Weiszfeld) solvers.

The total force at a vertex p with neighbours q_1..q_d is
sum_i (p - q_i)/|p - q_i|; a network is balanced when it vanishes at
every vertex, which is exactly criticality of the star length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import PeriodicNetwork, edge_vectors, with_positions

MEDIAN_TOL = 1e-10
MEDIAN_MAX_ITER = 10_000
_SNAP = 1e-12          # iterate this close to an input point is treated as on it
_NUDGE = 1e-6          # restart displacement off a non-optimal input point


@dataclass(frozen=True)
class ForceResult:
    """Per-vertex force vectors and their maximal norm."""

    forces: np.ndarray      # (V, dim)
    max_norm: float


def force(net: PeriodicNetwork, v: int) -> np.ndarray:
    """Total force at vertex ``v``; zero iff v is critical for its star length.

    Each incident edge end contributes the unit vector pointing from the
    neighbour towards v; loops contribute both of their ends, which cancel.
    """
    if not 0 <= v < net.graph.vertex_count:
        raise ValueError(f"unknown vertex id {v}")
    return force_all(net).forces[v]


def force_all(net: PeriodicNetwork) -> ForceResult:
    g = net.graph
    vecs = edge_vectors(net)
    ell = np.linalg.norm(vecs, axis=1)
    if np.any(ell == 0.0):
        raise ValueError(f"zero-length edge {int(np.argmin(ell))}")
    units = vecs / ell[:, None]
    out = np.zeros((g.vertex_count, g.dim))
    # edge vector points tail -> head, so the head end pulls +u and the
    # tail end pulls -u in the force convention
    np.add.at(out, g.heads, units)
    np.add.at(out, g.tails, -units)
    return ForceResult(forces=out, max_norm=float(np.linalg.norm(out, axis=1).max()))


def is_balanced(net: PeriodicNetwork, tol: float = 1e-9) -> bool:
    """True iff every vertex force norm is at most ``tol``."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return force_all(net).max_norm <= tol


def _star_length(p: np.ndarray, points: np.ndarray) -> float:
    return float(np.linalg.norm(points - p, axis=1).sum())


def _vertex_gap(points: np.ndarray, i: int) -> tuple[float, np.ndarray]:
    """Norm of the unit-vector sum over the other points, and that sum."""
    rest = np.delete(points, i, axis=0)
    d = rest - points[i]
    norms = np.linalg.norm(d, axis=1)
    keep = norms > 0
    s = (d[keep] / norms[keep, None]).sum(axis=0)
    return float(np.linalg.norm(s)), s


def _newton_polish(p: np.ndarray, pts: np.ndarray, gtol: float,
                   rounds: int = 60) -> np.ndarray:
    """Guarded Newton steps on the smooth star-length around ``p``.

    Weiszfeld slows to a crawl when the minimizer sits very close to an
    input point; Newton is immune to that conditioning.  Steps that fail
    to decrease the objective are halved away, so the polish never moves
    uphill.
    """
    dim = pts.shape[1]
    obj = _star_length(p, pts)
    for _ in range(rounds):
        diff = pts - p
        d = np.linalg.norm(diff, axis=1)
        if d.min() == 0.0:
            break
        u = diff / d[:, None]
        grad = -u.sum(axis=0)
        if np.linalg.norm(grad) <= gtol:
            break
        w = 1.0 / d
        H = w.sum() * np.eye(dim) - np.einsum('k,ki,kj->ij', w, u, u)
        H = H + 1e-14 * np.trace(H) * np.eye(dim)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        improved = False
        for _ in range(40):
            cand = p - t * step
            val = _star_length(cand, pts)
            if val < obj:
                p, obj = cand, val
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return p


def geometric_median(points, tol: float = MEDIAN_TOL,
                     max_iter: int = MEDIAN_MAX_ITER,
                     on_step=None) -> tuple[np.ndarray, int | None]:
    """Minimize p -> sum_i |p - q_i| over p.

    Returns the minimizer and, when it coincides with an input point, the
    index of that point (vertex optimality: the unit vectors towards the
    remaining points sum to norm <= 1).  Uses Weiszfeld iteration with the
    standard restart off non-optimal input points.  ``on_step(p, obj)``,
    when given, is called after every iterate.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or len(pts) < 2:
        raise ValueError("need at least two points")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    scale = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
    if scale == 0.0:
        raise ValueError("all points identical")
    if len(pts) == 2:
        # every point of the segment minimizes; take the midpoint
        return pts.mean(axis=0), None

    p = pts.mean(axis=0)
    obj = _star_length(p, pts)
    for it in range(max_iter):
        d = np.linalg.norm(pts - p, axis=1)
        # the vertex condition is a global optimality certificate, so the
        # nearest input point can be returned as soon as it holds; without
        # this, iterates approach a vertex-optimal point only sublinearly
        i = int(np.argmin(d))
        gap, s = _vertex_gap(pts, i)
        if gap <= 1.0 + 1e-12:
            return pts[i].copy(), i
        if d[i] < _SNAP * max(scale, 1.0):
            p = pts[i] + _NUDGE * s / gap
            d = np.linalg.norm(pts - p, axis=1)
        w = 1.0 / d
        p_new = (pts * w[:, None]).sum(axis=0) / w.sum()
        new_obj = _star_length(p_new, pts)
        if not new_obj <= obj * (1 + 1e-12) + 1e-15:
            raise RuntimeError("Weiszfeld objective increased")
        if on_step is not None:
            on_step(p_new, new_obj)
        step = float(np.linalg.norm(p_new - p))
        p, obj = p_new, new_obj
        if step < tol or (it + 1) % 500 == 0:
            # interior tail: a minimizer close to an input point drags the
            # Weiszfeld rate towards one, so finish with guarded Newton and
            # return once the criticality certificate holds
            p = _newton_polish(p, pts, gtol=tol)
            obj = _star_length(p, pts)
            if on_step is not None:
                on_step(p, obj)
            d = np.linalg.norm(pts - p, axis=1)
            i = int(np.argmin(d))
            if d[i] <= 1e-6 * max(scale, 1.0):
                gap, _ = _vertex_gap(pts, i)
                if gap <= 1.0 + 1e-12:
                    return pts[i].copy(), i
            units = (pts - p) / d[:, None]
            if np.linalg.norm(units.sum(axis=0)) <= max(tol, 1e-12):
                return p, None
    raise RuntimeError(f"geometric median did not converge in {max_iter} iterations")


def lifted_neighbours(net: PeriodicNetwork, v: int) -> np.ndarray:
    """Positions of v's neighbours in the lift, loops excluded.

    Loop edges keep their length under any move of v, so they play no
    role in rebalancing.
    """
    g = net.graph
    B = net.lattice.basis
    pts = []
    for e in range(g.edge_count):
        t, h = int(g.tails[e]), int(g.heads[e])
        if t == h:
            continue
        s = g.shifts[e].astype(np.float64)
        if t == v:
            pts.append(net.positions[h] + B @ s)
        if h == v:
            pts.append(net.positions[t] - B @ s)
    return np.array(pts) if pts else np.zeros((0, g.dim))


def rebalance_vertex(net: PeriodicNetwork, v: int) -> tuple[PeriodicNetwork, bool]:
    """Move vertex ``v`` to the geometric median of its lifted neighbours.

    Returns the new network and a degeneracy flag; the flag is set when
    the median lands on a neighbour, so that an incident edge collapsed.
    Loop-only vertices are already critical and are returned unchanged.
    """
    pts = lifted_neighbours(net, v)
    if len(pts) == 0:
        return net, False
    if len(pts) == 1 or np.linalg.norm(pts - pts[0], axis=1).max() == 0.0:
        raise ValueError("all neighbours of the vertex coincide")
    median, at_vertex = geometric_median(pts)
    positions = np.array(net.positions)
    positions[v] = median
    return with_positions(net, positions), at_vertex is not None
