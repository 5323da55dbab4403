"""Force balance and geometric-median (Weiszfeld) solvers.

The total force at a vertex p with neighbours q_1..q_d is
sum_i (p - q_i)/|p - q_i|; a network is balanced when it vanishes at
every vertex, which is exactly criticality of the star length.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .netcore import (PeriodicNetwork, _count, _edge_faults, _known_id, _measured, _real,
                      oriented_star, vertex_forces, with_positions)

MEDIAN_TOL = 1e-10
MEDIAN_MAX_ITER = 10_000
_SNAP = 1e-12          # iterate this close to an input point is treated as on it
_NUDGE = 1e-6          # restart step off a non-optimal input point, per its nearest-point distance
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
    v = _known_id(v, net.graph.vertex_count, "vertex")
    return force_all(net).forces[v]


def force_all(net: PeriodicNetwork) -> ForceResult:
    """The forces at every vertex, from the network's one measurement
    (``_measured``); refuses a zero-length edge (``_edge_faults``)."""
    slot = _measured(net)
    zero = _edge_faults(slot.ell)[0]
    if zero:
        raise ValueError(zero[0])
    with np.errstate(invalid='ignore'):     # non-finite geometry gives NaN forces
        units = (slot.vecs / slot.ell[:, None])[None]
    out = vertex_forces(net.graph.skeleton().incidence, units)[0]
    return ForceResult(forces=out, max_norm=float(np.linalg.norm(out, axis=1).max()))


def is_balanced(net: PeriodicNetwork, tol: float = 1e-9) -> bool:
    """True iff every vertex force norm is at most ``tol`` (``_real``)."""
    tol = _real(tol, "tolerance")
    return force_all(net).max_norm <= tol


def _vertex_gaps(P: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Vertex gaps of all points: for each, the unit-vector sum towards the
    other points (coincident ones skipped) and its norm; a point is optimal
    iff its norm is at most its multiplicity.  Each pair is measured once."""
    sums = [[0.0] * len(q) for q in P]
    for j, qj in enumerate(P):
        for i in range(j):
            r = math.dist(qj, P[i])
            if r:
                si, sj = sums[i], sums[j]
                for c, (a, b) in enumerate(zip(qj, P[i])):
                    u = (a - b) / r
                    si[c] += u
                    sj[c] -= u
    return [math.hypot(*s) for s in sums], sums


def _solve(H: list[list[float]], g: list[float]) -> list[float] | None:
    """x with H x = g for a symmetric positive definite H, by elimination
    without pivoting; None when a pivot is not positive or x not finite."""
    n = len(g)
    A = [row + [gi] for row, gi in zip(H, g)]
    for c, top in enumerate(A):
        if not top[c] > 0.0:
            return None
        for r in range(c + 1, n):
            f = A[r][c] / top[c]
            A[r] = [a - f * b for a, b in zip(A[r], top)]
    x = [0.0] * n
    for c in reversed(range(n)):
        row = A[c]
        x[c] = (row[n] - sum(map(operator.mul, row[c + 1:n], x[c + 1:]))) / row[c]
    return x if all(map(math.isfinite, x)) else None


def _newton_tail(p: list[float], P: list[list[float]], d: list[float], gtol: float,
                 rounds: int = 60) -> tuple[list[float], list[float], float]:
    """Guarded Newton steps on the smooth star-length from ``p``.

    Takes the point with its distances ``d`` to the points; returns them
    with the norm of the star-length gradient at the point (inf on an
    input point).  Weiszfeld slows to a crawl when the minimizer sits
    very close to an input point; Newton is immune to that conditioning
    and converges quadratically once ``p`` is in the basin of an interior
    minimum.  A step p' = p + delta is accepted when it decreases the
    objective, measured term by term:
    d'_k - d_k = (|delta|^2 - 2 b_k . delta) / (d'_k + d_k) with
    b_k = q_k - p.  This sees decreases far below the rounding of sum d,
    which near the minimum is all a Newton step can gain.  Steps that do
    not decrease are halved until they fall below the floating-point
    resolution of ``p``.
    """
    for r in range(rounds + 1):
        if min(d) == 0.0:
            return p, d, math.inf
        b = [[a - x for a, x in zip(q, p)] for q in P]
        w = [1.0 / dk for dk in d]
        U = [list(map(operator.mul, w, col)) for col in zip(*b)]   # unit vectors, by axis
        grad = [-sum(col) for col in U]
        gnorm = math.hypot(*grad)
        if gnorm <= gtol or r == rounds:
            return p, d, gnorm
        # H = sum_k w_k (I - u_k u_k^T), positive definite once regularized
        wsum = sum(w)
        WU = [list(map(operator.mul, w, col)) for col in U]
        H = [[-sum(map(operator.mul, wu, col)) for col in U] for wu in WU]
        trace = len(p) * wsum + sum(H[i][i] for i in range(len(p)))
        for i, row in enumerate(H):
            row[i] += wsum + 1e-14 * trace
        step = _solve(H, grad)
        if step is None:
            return p, d, gnorm
        size, resolution, t = math.hypot(*step), _EPS * math.hypot(*p), 1.0
        while t > 2.0 ** -40 and t * size > resolution:
            cand = [x - t * s for x, s in zip(p, step)]
            delta = [c - x for c, x in zip(cand, p)]
            dd = sum(e * e for e in delta)
            d_cand = [math.dist(cand, q) for q in P]
            change = sum((dd - 2.0 * sum(map(operator.mul, bk, delta))) / (dc + dk)
                         for bk, dc, dk in zip(b, d_cand, d))
            if change < 0.0:
                p, d = cand, d_cand
                break
            t *= 0.5
        else:
            return p, d, gnorm


def geometric_median(points, tol: float = MEDIAN_TOL,
                     max_iter: int = MEDIAN_MAX_ITER,
                     on_step=None) -> tuple[np.ndarray, int | None]:
    """Minimize p -> sum_i |p - q_i| over p.

    Returns the minimizer and, when it coincides with an input point, the
    index of that point (vertex optimality: the unit vectors towards the
    remaining points sum to norm <= the point's multiplicity).  The vertex
    condition is a global optimality certificate (Vardi and Zhang), so it
    is tested once, on the input points, before any step: the
    vertex-optimal point nearest the mean is returned at once.  Otherwise
    Weiszfeld iterates from the mean with the standard restart off input
    points, and every iterate costs one distance evaluation, shared by the
    nearest-point test, the weights, the monotonicity check and the
    objective.  Weiszfeld converges only linearly, at a rate near one when
    the minimizer is close to an input point.  Once its step falls below
    ``_NEWTON_ENTRY`` times the point-set scale (or below ``tol``, and at
    every 500th iterate) the iterate is taken to be in Newton's basin and
    a guarded Newton tail finishes it; a tail that does not certify
    |sum of unit vectors| <= max(tol, 1e-12) hands back to Weiszfeld.
    The point sets are vertex stars of a few points in a few dimensions,
    so the work is done in plain floats, where numpy's per-call overhead
    would dominate.  ``on_step(p, obj)``, when given, is called after
    every iterate.  ``tol`` passes ``_real`` and ``max_iter`` ``_count``; a
    restart off an input point scales with its nearest-point distance.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or len(pts) < 2:
        raise ValueError("need at least two points")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite point coordinates")
    tol, max_iter = _real(tol, "tolerance"), _count(max_iter, "max_iter", 1)
    P = pts.tolist()
    if P.count(P[0]) == len(P):
        raise ValueError("all points identical")
    cols = list(zip(*P))
    mean = [sum(col) / len(P) for col in cols]
    scale = max(math.dist(q, mean) for q in P)
    if len(P) == 2:
        # every point of the segment minimizes; take the midpoint
        return np.array(mean), None

    gaps, sums = _vertex_gaps(P)
    p = mean
    d = [math.dist(p, q) for q in P]
    # a point given m times is optimal iff its gap is at most m; iterates
    # would approach it only sublinearly
    optimal = [i for i, (gap, q) in enumerate(zip(gaps, P)) if gap <= P.count(q) + 1e-12]
    if optimal:
        i = min(optimal, key=d.__getitem__)
        return pts[i].copy(), i
    unit_scale = max(scale, 1.0)
    obj = sum(d)
    for it in range(max_iter):
        i = d.index(min(d))
        if d[i] < _SNAP * unit_scale:
            step = _NUDGE * min(r for q in P if (r := math.dist(P[i], q))) / gaps[i]
            p = [x + step * s for x, s in zip(P[i], sums[i])]
            d = [math.dist(p, q) for q in P]
        w = [1.0 / dk for dk in d]
        wsum = sum(w)
        p_new = [sum(map(operator.mul, w, col)) / wsum for col in cols]
        d_new = [math.dist(p_new, q) for q in P]
        new_obj = sum(d_new)
        if not new_obj <= obj * (1 + 1e-12) + 1e-15:
            raise RuntimeError("Weiszfeld objective increased")
        if on_step is not None:
            on_step(np.array(p_new), new_obj)
        step = math.dist(p_new, p)
        p, d, obj = p_new, d_new, new_obj
        if step < max(tol, _NEWTON_ENTRY * scale) or (it + 1) % 500 == 0:
            # Newton tail: return once the criticality certificate holds,
            # else resume Weiszfeld from the polished point
            p, d, gnorm = _newton_tail(p, P, d, gtol=tol)
            obj = sum(d)
            if on_step is not None:
                on_step(np.array(p), obj)
            if gnorm <= max(tol, 1e-12):
                return np.array(p), None
    raise RuntimeError(f"geometric median did not converge in {max_iter} iterations")


def lifted_neighbours(net: PeriodicNetwork, v: int) -> np.ndarray:
    """Positions of v's neighbours in the lift, loops excluded, in edge order.

    Loop edges keep their length under any move of v, so they play no
    role in rebalancing.
    """
    g = net.graph
    edges, sign, _ = oriented_star(g, _known_id(v, g.vertex_count, "vertex"))
    ends = np.where(sign > 0, g.heads[edges], g.tails[edges])
    return net.positions[ends] + sign[:, None] * (g.shifts[edges] @ net.lattice.basis.T)


def rebalance_vertex(net: PeriodicNetwork, v: int) -> tuple[PeriodicNetwork, bool]:
    """Move vertex ``v`` to the geometric median of its lifted neighbours.

    Returns the new network and a degeneracy flag; the flag is set when
    the median lands on a neighbour, so that an incident edge collapsed.
    Loop-only vertices are already critical and are returned unchanged.
    """
    v = _known_id(v, net.graph.vertex_count, "vertex")
    pts = lifted_neighbours(net, v)
    if len(pts) == 0:
        return net, False
    try:
        median, at_vertex = geometric_median(pts)
    except ValueError as exc:   # one neighbour or all at one point; non-finite ones pass
        if str(exc) not in ("need at least two points", "all points identical"):
            raise
        raise ValueError("all neighbours of the vertex coincide") from None
    positions = np.array(net.positions)
    positions[v] = median
    return with_positions(net, positions), at_vertex is not None
