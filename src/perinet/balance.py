"""Force balance and geometric-median (Weiszfeld) solvers.

The total force at a vertex p with neighbours q_1..q_d is
sum_i (p - q_i)/|p - q_i|; a network is balanced when it vanishes at
every vertex, which is exactly criticality of the star length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netcore import (PeriodicNetwork, as_stack, edge_norms, incidence, lifted_edges,
                      oriented_star, vertex_forces, with_positions)

MEDIAN_TOL = 1e-10
MEDIAN_MAX_ITER = 10_000
_SNAP = 1e-12          # iterate this close to an input point is treated as on it
_NUDGE = 1e-6          # restart displacement off a non-optimal input point
_NEWTON_ENTRY = 1e-3   # Weiszfeld step / point-set scale that starts the Newton tail
_EPS = float(np.finfo(np.float64).eps)


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
    vecs = lifted_edges(*as_stack(net), g.tails, g.heads)
    ell = edge_norms(vecs)
    if not ell.all():
        raise ValueError(f"zero-length edge {int(np.argmin(ell))}")
    out = vertex_forces(incidence(g.tails, g.heads, g.vertex_count), vecs / ell[..., None])[0]
    return ForceResult(forces=out, max_norm=float(np.linalg.norm(out, axis=1).max()))


def is_balanced(net: PeriodicNetwork, tol: float = 1e-9) -> bool:
    """True iff every vertex force norm is at most ``tol``."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return force_all(net).max_norm <= tol


def _distances(p: np.ndarray, pts: np.ndarray) -> np.ndarray:
    diff = pts - p
    return np.sqrt(np.einsum('ki,ki->k', diff, diff))


def _vertex_gaps(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex gaps of all points: for each, the unit-vector sum towards the
    other points (coincident ones skipped) and its norm; a point is optimal
    iff its norm is at most its multiplicity."""
    diff = pts[None, :, :] - pts[:, None, :]
    norms = np.sqrt(np.einsum('ijk,ijk->ij', diff, diff))
    norms[norms == 0.0] = np.inf
    sums = (diff / norms[:, :, None]).sum(axis=1)
    return np.sqrt(np.einsum('ik,ik->i', sums, sums)), sums


def _newton_polish(p: np.ndarray, pts: np.ndarray, d: np.ndarray, gtol: float,
                   rounds: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Guarded Newton steps on the smooth star-length from ``p``.

    Takes and returns the point with its distances ``d`` to the points.
    Weiszfeld slows to a crawl when the minimizer sits very close to an
    input point; Newton is immune to that conditioning and converges
    quadratically once ``p`` is in the basin of an interior minimum.
    Steps that fail to decrease the objective are halved away, so the
    polish never moves uphill, until the trial step falls below the
    floating-point resolution of ``p``, where no candidate is more than a
    rounding away, or its predicted decrease ``t |grad . step|`` below
    the objective's.
    """
    dim = pts.shape[1]
    obj = d.sum()
    for _ in range(rounds):
        if d.min() == 0.0:
            break
        u = (pts - p) / d[:, None]
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
        size, resolution = np.linalg.norm(step), _EPS * np.linalg.norm(p)
        slope, t = abs(grad @ step), 1.0
        while t > 2.0 ** -40 and t * size > resolution:
            cand = p - t * step
            d_cand = _distances(cand, pts)
            val = d_cand.sum()
            if val < obj:
                p, d, obj = cand, d_cand, val
                break
            t *= 0.5
            if t * slope < _EPS * obj:
                return p, d     # no halved step can decrease by more than a rounding
        else:
            break
    return p, d


def geometric_median(points, tol: float = MEDIAN_TOL,
                     max_iter: int = MEDIAN_MAX_ITER,
                     on_step=None) -> tuple[np.ndarray, int | None]:
    """Minimize p -> sum_i |p - q_i| over p.

    Returns the minimizer and, when it coincides with an input point, the
    index of that point (vertex optimality: the unit vectors towards the
    remaining points sum to norm <= the point's multiplicity).  Uses
    Weiszfeld iteration with the standard restart off non-optimal input
    points.  The vertex gaps and multiplicities depend on the input points
    only, so they are tabulated once per call and every iterate costs one
    distance evaluation, shared by the nearest-point test, the weights,
    the monotonicity check and the objective.  Weiszfeld converges only
    linearly, at a rate near one when the minimizer is close to an input
    point.  Once its step falls below ``_NEWTON_ENTRY`` times the
    point-set scale (or below ``tol``, and at every 500th iterate) the
    iterate is taken to be in Newton's basin and a guarded Newton polish
    finishes it; a polish that does not certify hands back to Weiszfeld.
    ``on_step(p, obj)``, when given, is called after every iterate.
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

    gaps, sums = _vertex_gaps(pts)
    # a point given m times is optimal iff its gap is at most m
    optimal = gaps <= (pts[:, None, :] == pts[None, :, :]).all(axis=2).sum(axis=1) + 1e-12
    p = pts.mean(axis=0)
    d = _distances(p, pts)
    obj = float(d.sum())
    for it in range(max_iter):
        # the vertex condition is a global optimality certificate, so the
        # nearest input point can be returned as soon as it holds; without
        # this, iterates approach a vertex-optimal point only sublinearly
        i = int(d.argmin())
        if optimal[i]:
            return pts[i].copy(), i
        if d[i] < _SNAP * max(scale, 1.0):
            p = pts[i] + _NUDGE * sums[i] / gaps[i]
            d = _distances(p, pts)
        w = 1.0 / d
        p_new = w @ pts / w.sum()
        d_new = _distances(p_new, pts)
        new_obj = float(d_new.sum())
        if not new_obj <= obj * (1 + 1e-12) + 1e-15:
            raise RuntimeError("Weiszfeld objective increased")
        if on_step is not None:
            on_step(p_new, new_obj)
        step = math.sqrt((p_new - p) @ (p_new - p))
        p, d, obj = p_new, d_new, new_obj
        if step < max(tol, _NEWTON_ENTRY * scale) or (it + 1) % 500 == 0:
            # Newton tail: return once the criticality certificate holds,
            # else resume Weiszfeld from the polished point
            p, d = _newton_polish(p, pts, d, gtol=tol)
            obj = float(d.sum())
            if on_step is not None:
                on_step(p, obj)
            i = int(d.argmin())
            if d[i] <= 1e-6 * max(scale, 1.0) and optimal[i]:
                return pts[i].copy(), i
            units = (pts - p) / d[:, None]
            if np.linalg.norm(units.sum(axis=0)) <= max(tol, 1e-12):
                return p, None
    raise RuntimeError(f"geometric median did not converge in {max_iter} iterations")


def lifted_neighbours(net: PeriodicNetwork, v: int) -> np.ndarray:
    """Positions of v's neighbours in the lift, loops excluded, in edge order.

    Loop edges keep their length under any move of v, so they play no
    role in rebalancing.
    """
    g = net.graph
    edges, sign, _ = oriented_star(g, v)
    ends = np.where(sign > 0, g.heads[edges], g.tails[edges])
    return net.positions[ends] + sign[:, None] * (g.shifts[edges] @ net.lattice.basis.T)


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
