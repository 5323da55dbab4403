"""Closed-form lower bounds, inequality checkers, and equality certificates.

The sharp bounds: sqrt((n+1)^(n-1) n^n) for dipole-type networks of
degree n+1, (d/2 - n + 1) n^n for even degree d >= 2n, and for three
dimensions the degree-4 and degree-5 values 12 sqrt(3), 27, 27 sqrt(3),
405/8, with 405/8 a strict bound for every irreducible topology of
degree >= 7.  Checkers for the simplex and pyramid estimates evaluate
both sides directly and certify the equality configurations.  The stress
bound n^n |det(u^T S)| of a balanced stress u bounds every realization of
one shift assignment.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .intlinalg import det_int, int_solve
from .netcore import (PeriodicNetwork, _count, _length_quotient, _measured, _stress_bounds,
                      _validate, oriented_star)
from .topology import TopologyClass, classify

SLACK_TOL = 1e-9         # inequality slack tolerance
EQUALITY_VALUE_TOL = 1e-9
CERT_TOL = 1e-6          # structural tolerance of equality certificates


# ---------------------------------------------------------------------------
# closed-form bounds

def _float_bound(name: str, bound) -> float:
    """``bound()``, a closed form in floats, refused with a ``ValueError``
    naming the argument ``name`` where it overflows the float range."""
    try:
        value = bound()
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ValueError(f"{name} too large: the bound overflows a float")
    return value


def bound_dipole(n: int) -> float:
    """Sharp lower bound on L^n/V for irreducible networks of degree n+1."""
    n = _count(n, "dimension n", 2)
    _float_bound("dimension n", lambda: float(n) ** n)     # before the exact product grows
    exact = (n + 1) ** (n - 1) * n ** n     # past the float range from n = 82, unlike its root
    return math.sqrt(exact) if exact < 2 ** 1023 else float(math.isqrt(exact))


def bound_even(n: int, d: int) -> float:
    """Sharp lower bound (d/2 - n + 1) n^n for even degree d >= 2n."""
    n, d = _count(n, "dimension n", 2), _count(d, "degree d", 3)
    if d % 2 != 0 or d < 2 * n:
        raise ValueError("bound requires even degree d >= 2n")
    power = _float_bound("dimension n", lambda: float(n) ** n)
    return _float_bound("degree d", lambda: (d / 2 - n + 1) * power)


def bound_degree3d(d: int, topology: TopologyClass | str) -> float:
    """Three-dimensional bounds by degree and quotient topology."""
    top = TopologyClass.from_tag(topology) if isinstance(topology, str) else topology
    sel = _select_bound(3, _count(d, "degree d", 3), top)
    if sel is None:
        raise ValueError(f"no bound for degree {d} with topology {top.tag}")
    return sel[1]


def monotonicity_table(n: int, d_max: int) -> list[tuple[int, float]]:
    """(d, bound) for even d from 2n to d_max; strictly increasing in d."""
    n, d_max = _count(n, "dimension n", 2), _count(d_max, "d_max", 3)
    if d_max < 2 * n or d_max % 2 != 0:
        raise ValueError("d_max must be even and at least 2n")
    bound_even(n, d_max)        # the last bound is the largest: refused before the table is built
    return [(d, bound_even(n, d)) for d in range(2 * n, d_max + 1, 2)]


# ---------------------------------------------------------------------------
# simplex and pyramid estimates

class SimplexCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    equality: bool


PyramidCheck = SimplexCheck


def check_simplex(points) -> SimplexCheck:
    """Star-length estimate for a full simplex viewed from the origin.

    For vertices p_0..p_n the quantity (sum |p_i|)^n / vol is at least
    n! sqrt((n+1)^(n-1) n^n), with equality exactly for a regular
    simplex whose circumcentre is the origin.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1] + 1:
        raise ValueError("need n+1 points in R^n")
    n = pts.shape[1]
    vol = abs(float(np.linalg.det(pts[1:] - pts[0]))) / math.factorial(n)
    if vol == 0.0:
        raise ValueError("degenerate simplex")
    radii = np.linalg.norm(pts, axis=1)
    lhs = float(radii.sum()) ** n / vol
    rhs = math.factorial(n) * bound_dipole(n)
    holds = lhs >= rhs * (1 - 1e-12)
    equality = (abs(lhs - rhs) <= EQUALITY_VALUE_TOL * rhs
                and all(_regular_simplex_checks(pts.tolist()).values()))
    return SimplexCheck(lhs, rhs, holds, bool(equality))


@dataclass(frozen=True)
class PyramidInstance:
    """A pyramid with coplanar base vertices, an apex, and a probe point.

    Derived quantities: base distances x_i = |p_i - q|, apex distance
    z = |p_0 - q|, s = sum x_i, h = dist(q, base plane), the base volume,
    and the pyramid volume.
    """

    apex: np.ndarray
    base: np.ndarray
    probe: np.ndarray

    def __post_init__(self):
        apex = np.asarray(self.apex, dtype=np.float64)
        base = np.asarray(self.base, dtype=np.float64)
        probe = np.asarray(self.probe, dtype=np.float64)
        n = len(apex)
        k = len(base)
        if n < 2 or base.shape != (k, n) or probe.shape != (n,):
            raise ValueError("inconsistent pyramid data")
        if k < n:
            raise ValueError("need at least n base vertices")
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "probe", probe)
        centroid = base.mean(axis=0)
        rel = base - centroid
        scale = max(float(np.linalg.norm(rel, axis=1).max()), 1e-300)
        _, sv, vt = np.linalg.svd(rel, full_matrices=True)
        if len(sv) == n and sv[-1] > 1e-9 * scale:
            raise ValueError("base vertices are not coplanar")
        normal = vt[-1]
        object.__setattr__(self, "_normal", normal)
        object.__setattr__(self, "_origin", centroid)
        coords = rel @ vt[:n - 1].T
        object.__setattr__(self, "base_volume", _polytope_volume(coords))
        if self.base_volume <= 0.0:
            raise ValueError("degenerate base")
        apex_height = abs(float((apex - centroid) @ normal))
        if apex_height <= 1e-12 * scale:
            raise ValueError("apex lies in the base hyperplane")
        object.__setattr__(self, "pyramid_volume",
                           self.base_volume * apex_height / n)

    @property
    def dim(self) -> int:
        return len(self.apex)

    @property
    def k(self) -> int:
        return len(self.base)

    @property
    def x(self) -> np.ndarray:
        return np.linalg.norm(self.base - self.probe, axis=1)

    @property
    def z(self) -> float:
        return float(np.linalg.norm(self.apex - self.probe))

    @property
    def s(self) -> float:
        return float(self.x.sum())

    @property
    def h(self) -> float:
        return abs(float((self.probe - self._origin) @ self._normal))

    @classmethod
    def random(cls, rng, n: int, k: int) -> "PyramidInstance":
        """Random instance inside the estimate's validity regime.

        The probe height above the base plane is capped at s/k^2, the
        regime the balanced (length-critical) probe always satisfies;
        beyond it the harmonic-mean step of the estimate has no force.
        A random rigid motion is applied at the end.
        """
        n = _count(n, "dimension n", 2)
        k = _count(k, "k", n)
        for _ in range(100):
            base_flat = rng.normal(size=(k, n - 1)) * rng.uniform(0.5, 2.0)
            planar = rng.normal(size=n - 1) * 0.7
            s0 = float(np.linalg.norm(base_flat - planar, axis=1).sum())
            h = rng.uniform(0.0, 0.999) * s0 / k ** 2
            probe = np.append(planar, h * rng.choice([-1.0, 1.0]))
            apex = np.append(rng.normal(size=n - 1),
                             rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
            Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            shift = rng.normal(size=n)
            try:
                return cls(apex=Q @ apex + shift,
                           base=np.hstack([base_flat, np.zeros((k, 1))]) @ Q.T + shift,
                           probe=Q @ probe + shift)
            except ValueError:
                continue
        # no input reaches this: a normal draw is degenerate with probability 0
        raise RuntimeError("failed to sample a nondegenerate pyramid")


def _polytope_volume(coords: np.ndarray) -> float:
    """Volume of the convex hull of points given in their own dimension."""
    from scipy.spatial import ConvexHull, QhullError    # costly to import, needed here only
    m = coords.shape[1]
    if m == 1:
        return float(coords.max() - coords.min())
    try:
        return float(ConvexHull(coords).volume)
    except QhullError as exc:
        raise ValueError("degenerate base") from exc


def check_pyramid(inst: PyramidInstance) -> PyramidCheck:
    """Star-length estimate for a pyramid probed from an arbitrary point.

    (L(G_q))^n / vol >= (n^2 / V_base) ((k^2-1)/k^2 * n s/(n-1))^(n-1),
    with equality iff the probe sits below the apex at height s/k^2 and
    all base distances equal k(n-1)/(k^2-n) times the apex distance.
    """
    n, k = inst.dim, inst.k
    s, z, h = inst.s, inst.z, inst.h
    L = s + z
    lhs = L ** n / inst.pyramid_volume
    rhs = (n ** 2 / inst.base_volume) \
        * ((k ** 2 - 1) / k ** 2 * n * s / (n - 1)) ** (n - 1)
    holds = lhs >= rhs * (1 - 1e-12)
    equality = abs(lhs - rhs) <= EQUALITY_VALUE_TOL * rhs
    if equality:
        x = inst.x
        xm = x.mean()
        apex_dir = inst.apex - inst.probe
        planar = apex_dir - (apex_dir @ inst._normal) * inst._normal
        checks = (
            (x.max() - x.min()) <= CERT_TOL * xm,
            abs(xm - k * (n - 1) / (k ** 2 - n) * z) <= CERT_TOL * xm,
            abs(h - s / k ** 2) <= CERT_TOL * max(h, s / k ** 2),
            float(np.linalg.norm(planar)) <= CERT_TOL * float(np.linalg.norm(apex_dir)),
        )
        equality = all(checks)
    return PyramidCheck(lhs, rhs, holds, bool(equality))


# ---------------------------------------------------------------------------
# equality certificates for verified networks

@dataclass(frozen=True)
class CertificateResult:
    name: str
    passed: bool
    checks: dict = field(default_factory=dict)


# A star has a few vectors of length n <= 7, so the certificates work on
# Python floats, where numpy's per-call overhead would dominate.  A check
# that divides by a zero length reads NaN there and fails, as it does in
# numpy, and nothing raises.

def _dot(u: list[float], w: list[float]) -> float:
    return sum(map(operator.mul, u, w))


def _unit(u: list[float], r: float) -> list[float]:
    """u / r, all NaN for r = 0."""
    return [x / r for x in u] if r else [math.nan] * len(u)


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs)


def _oriented_star(net: PeriodicNetwork, rows: list[list[float]],
                   v: int) -> tuple[list[list[float]], list[list[float]]]:
    """Outgoing non-loop edge vectors at v, and loop vectors at v, among the
    network's edge vectors ``rows`` (``vecs.tolist()``)."""
    edges, sign, loops = oriented_star(net.graph, v)
    out = [rows[e] if s > 0 else [-x for x in rows[e]]
           for e, s in zip(edges.tolist(), sign.tolist())]
    return out, [rows[e] for e in loops.tolist()]


def _regular_simplex_checks(star: list[list[float]]) -> dict:
    """Are the n+1 vectors of ``star`` the corners of a regular simplex
    centred on their origin: equal lengths, pairwise cosines -1/n?"""
    n = len(star[0])
    r = [math.hypot(*p) for p in star]
    units = [_unit(p, rp) for p, rp in zip(star, r)]
    return {
        "equal_edge_lengths": max(r) - min(r) <= CERT_TOL * _mean(r),
        "simplex_angles": all(abs(_dot(u, w) + 1.0 / n) <= CERT_TOL
                              for u, w in itertools.combinations(units, 2)),
    }


def _cross(a: list[float], b: list[float]) -> list[float]:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _cert_regular_simplex(net: PeriodicNetwork, vecs: np.ndarray) -> CertificateResult:
    """Neighbours of each vertex form a regular simplex centred on it (for
    n = 2, the planar tripod with equal legs at 120 degrees)."""
    star, _ = _oriented_star(net, vecs.tolist(), 0)
    checks = _regular_simplex_checks(star)
    if net.dim == 3:
        # the differences b_i - b_0 are cycle translations, so they span a
        # sublattice of index |det D| / |det B|; with a regular-simplex star
        # the lattice is the diamond's FCC lattice exactly when that is 1
        d1, d2, d3 = ([x - y for x, y in zip(p, star[0])] for p in star[1:])
        vol = net.lattice.volume()
        checks["fcc_lattice"] = abs(abs(_dot(_cross(d1, d2), d3)) - vol) <= CERT_TOL * vol
    return CertificateResult("regular-simplex", all(checks.values()), checks)


def _cert_cds_family(net: PeriodicNetwork, vecs: np.ndarray) -> CertificateResult:
    """One-parameter equality family: x1 = x2 = x3 + x4, orthogonal axes."""
    rows = vecs.tolist()
    bridges, loops0 = _oriented_star(net, rows, 0)
    _, loops1 = _oriented_star(net, rows, 1)
    a, b = loops0[0], loops1[0]
    c1, c2 = bridges[0], bridges[1]
    axis = [x - y for x, y in zip(c1, c2)]   # net bridge-cycle vector, a lattice generator
    x1, x2, xa = math.hypot(*a), math.hypot(*b), math.hypot(*axis)
    x34 = math.hypot(*c1) + math.hypot(*c2)
    scale = max(x1, x2, x34)
    dirs = [_unit(a, x1), _unit(b, x2), _unit(axis, xa)]
    checks = {
        "x1_eq_x2": abs(x1 - x2) <= CERT_TOL * scale,
        "x1_eq_x3_plus_x4": abs(x1 - x34) <= CERT_TOL * scale,
        "collinear_bridges": abs(xa - x34) <= CERT_TOL * scale,
        "orthogonal_axes": all(abs(_dot(u, w) - (i == j)) <= CERT_TOL
                               for i, u in enumerate(dirs) for j, w in enumerate(dirs)),
        "equal_generators": abs(xa - x1) <= CERT_TOL * scale,
    }
    return CertificateResult("cds-family", all(checks.values()), checks)


def _cert_bnn(net: PeriodicNetwork, vecs: np.ndarray) -> CertificateResult:
    """Prismatic honeycomb relations 2y + 2z = 3 x1 = 3 x2 = 3 x3, y = z."""
    rows = vecs.tolist()
    bridges, loops0 = _oriented_star(net, rows, 0)
    _, loops1 = _oriented_star(net, rows, 1)
    x = [math.hypot(*c) for c in bridges]
    xm = _mean(x)
    y, z = math.hypot(*loops0[0]), math.hypot(*loops1[0])
    cross = _cross(bridges[0], bridges[1])
    normal = _unit(cross, math.hypot(*cross))
    checks = {
        "equal_bridges": max(x) - min(x) <= CERT_TOL * xm,
        "coplanar_bridges": abs(_dot(bridges[2], normal)) <= CERT_TOL * xm,
        "loop_relation": abs(2 * y + 2 * z - 3 * xm) <= CERT_TOL * xm,
        "equal_loops": abs(y - z) <= CERT_TOL * xm,
        "loops_perpendicular": (abs(abs(_dot(loops0[0], normal)) - y) <= CERT_TOL * xm
                                and abs(abs(_dot(loops1[0], normal)) - z) <= CERT_TOL * xm),
    }
    return CertificateResult("prismatic-honeycomb", all(checks.values()), checks)


def _cert_primitive(net: PeriodicNetwork, vecs: np.ndarray) -> CertificateResult:
    """Loop vectors orthogonal and of equal length (primitive lattice); on
    the one vertex of a bouquet the edge vectors are the whole star."""
    loops = vecs.tolist()
    norms = [math.hypot(*u) for u in loops]
    m = _mean(norms)
    checks = {
        "equal_lengths": max(norms) - min(norms) <= CERT_TOL * m,
        "orthogonal": all(abs(_dot(u, w)) <= CERT_TOL * m * m
                          for u, w in itertools.combinations(loops, 2)),
    }
    return CertificateResult("primitive-cubic", all(checks.values()), checks)


def _cert_sqp(net: PeriodicNetwork, vecs: np.ndarray) -> CertificateResult:
    """Square pyramid: x1..x4 = (8/13) x0, probe height x1/4, apex height L/3."""
    star, _ = _oriented_star(net, vecs.tolist(), 0)
    r = [math.hypot(*p) for p in star]
    L = sum(r)
    apex = r.index(max(r))
    base = star[:apex] + star[apex + 1:]
    x0, xb = r[apex], r[:apex] + r[apex + 1:]
    xm = _mean(xb)
    centroid = [_mean(c) for c in zip(*base)]
    rel = [[x - c for x, c in zip(p, centroid)] for p in base]
    normal = np.linalg.svd(rel)[2][-1].tolist()        # least-squares base plane
    h = abs(_dot(centroid, normal))         # probe (vertex 0) to base plane
    apex_h = abs(_dot([x - c for x, c in zip(star[apex], centroid)], normal))
    # 6 pairwise distances of a square: 4 sides then 2 diagonals
    dist = sorted(math.dist(p, q) for p, q in itertools.combinations(base, 2))
    checks = {
        "equal_base_edges": max(xb) - min(xb) <= CERT_TOL * xm,
        "base_coplanar": all(abs(_dot(u, normal)) <= CERT_TOL * xm for u in rel),
        "base_ratio": abs(xm - 8.0 / 13.0 * x0) <= CERT_TOL * xm,
        "probe_height": abs(h - xm / 4) <= CERT_TOL * xm,
        "apex_height_L_over_3": abs(apex_h - L / 3) <= CERT_TOL * L,
        "square_base": abs(_mean(dist[:4]) * math.sqrt(2) - _mean(dist[4:]))
                       <= CERT_TOL * _mean(dist),
    }
    return CertificateResult("square-pyramid", all(checks.values()), checks)


# ---------------------------------------------------------------------------
# stress lower bound of one assignment

class StressBound(NamedTuple):
    bound: float        # at most L^n/V of every realization of the network's shifts
    gap: float          # the network's L^n/V minus the bound


def stress_bound(net: PeriodicNetwork) -> StressBound:
    """The lower bound n^n |det(u^T S)| on L^n/V over every realization of
    ``net``'s shift assignment, from the stress u of ``net``'s own unit edge
    vectors (``_stress_bounds``), and its gap to ``net``'s L^n/V.

    Every network of the assignment bounds it, and the gap closes at its
    minimizer: there the edge directions are balanced and the bound is the
    value.  Raises ``ValueError`` where ``length_quotient`` does; the bound
    is NaN where no stress is left after the projection.
    """
    g = net.graph
    slot = _measured(net)
    value = _length_quotient(net, slot.ell)
    units = (slot.vecs / slot.ell[:, None])[None]
    with np.errstate(invalid='ignore'):     # no stress left gives NaN
        bound = float(_stress_bounds(g.skeleton().projector(), units,
                                     g.shifts[None].astype(np.float64))[0])
    return StressBound(bound, value - bound)


# ---------------------------------------------------------------------------
# verification report

@dataclass(frozen=True)
class BoundReport:
    """Outcome of matching a network against its applicable bound."""

    applicable: bool
    theorem: str | None
    bound: float | None
    bound_expr: str | None
    measured: float
    slack: float | None
    strict: bool
    sharp: bool
    topology: str
    equality_certificate: CertificateResult | None
    note: str = ""

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        cert = self.equality_certificate
        if cert is not None:
            out["equality_certificate"] = {
                "name": cert.name,
                "passed": cert.passed,
                "checks": {k: bool(v) for k, v in cert.checks.items()},
            }
        return out


def _select_bound(n: int, d: int, top: TopologyClass):
    """(theorem id, value, expression, strict, sharp, certificate builder)."""
    if n == 3:
        if d == 4 and top.tag == "D4":
            return ("dipole-simplex", 12 * math.sqrt(3), "12*sqrt(3)",
                    False, True, _cert_regular_simplex)
        if d == 4 and top.tag == "D1,2":
            return ("double-bouquet-split-edge", 27.0, "3^3",
                    False, True, _cert_cds_family)
        if d == 5 and top.tag == "D1,3":
            return ("prismatic-honeycomb", 27 * math.sqrt(3), "27*sqrt(3)",
                    False, True, _cert_bnn)
        if d == 5 and top.tag == "D5":
            return ("square-pyramid-dipole", 405.0 / 8.0, "405/8",
                    False, True, _cert_sqp)
        if d % 2 == 0 and d >= 6 and top.tag == f"B{d // 2}":
            return ("even-bouquet", bound_even(3, d), f"({d // 2}-2)*27",
                    False, d == 6, _cert_primitive)
        if d >= 7:
            return ("high-degree-floor", 405.0 / 8.0, "405/8",
                    True, False, None)
        return None
    if d % 2 == 0 and d >= 2 * n and top.tag == f"B{d // 2}":
        return ("even-bouquet", bound_even(n, d),
                f"({d // 2}-{n}+1)*{n}^{n}", False, d == 2 * n,
                _cert_primitive if d == 2 * n else None)
    if d == n + 1 and top.tag == f"D{n + 1}":
        return ("dipole-simplex", bound_dipole(n),
                f"sqrt({n + 1}^{n - 1} * {n}^{n})", False, True, _cert_regular_simplex)
    if d >= n + 1:
        return ("degree-floor", bound_dipole(n),
                f"sqrt({n + 1}^{n - 1} * {n}^{n})", d > n + 1, False, None)
    return None


def verify(net: PeriodicNetwork) -> BoundReport:
    """Match a network against the bound for its (dimension, degree, topology).

    Computes the slack (measured minus bound) and, when the network sits
    at the bound, attaches the structural equality certificate of the
    corresponding theorem.  A network whose quotient has a cut edge is
    measured like any other, and its note says that no realization of its
    quotient is balanced.  A network that fails validation gets the
    not-applicable report with the violations; its topology reads
    ``"unclassified"`` when the graph is disconnected or irregular.  The
    edge vectors that validation measured are the ones the certificate
    reads, and called right after ``validate`` on the same network object,
    or right before it, the two measure it and report once (``_validate``).
    """
    rep, ell, vecs = _validate(net)
    try:
        measured = _length_quotient(net, ell)
    except ValueError:      # non-finite geometry fails validation
        measured = float("nan")
    if not rep.ok:
        try:
            tag = classify(net.graph).tag
        except ValueError:
            tag = "unclassified"
        return BoundReport(False, None, None, None, measured, None, False,
                           False, tag, None,
                           note="network fails validation: " + "; ".join(rep.violations))
    top = classify(net.graph)
    sel = _select_bound(net.dim, top.degree, top)
    if sel is None:
        return BoundReport(False, None, None, None, measured, None, False,
                           False, top.tag, None, note="no applicable bound")
    theorem, value, expr, strict, sharp, cert_builder = sel
    slack = measured - value
    notes = []
    if strict and slack <= 0:
        notes.append("strict bound violated: slack must be positive")
    cut = net.graph.skeleton().cut_edges
    if cut:         # the cut-edge lemma, see ``min_vertex_count``
        notes.append(f"no balanced realization: cut edge {cut[0]}")
    cert = None
    if cert_builder is not None and slack <= 1e-6:
        cert = cert_builder(net, vecs)
    return BoundReport(True, theorem, value, expr, measured, slack, strict,
                       sharp, top.tag, cert, note="; ".join(notes))


def dipole5_coefficients(net: PeriodicNetwork) -> tuple[tuple[int, int, int], float]:
    """Integer coefficients lam with p4 = lam1 p1 + lam2 p2 + lam3 p3.

    The five neighbours of a vertex of a D5 network are lattice translates
    of each other once one of them is taken as the origin; three that span
    the lattice serve as generators and the remaining one has integer
    coordinates, solved exactly.  Also returns the signed volume
    det(p1, p2, p3).
    """
    top = classify(net.graph)
    if net.dim != 3 or top.tag != "D5":
        raise ValueError("integer coefficients are defined for D5 quotients in R^3")
    edges, sign, _ = oriented_star(net.graph, 0)
    shifts = sign[:, None] * net.graph.shifts[edges]
    for origin in range(5):
        rel = np.delete(shifts, origin, axis=0) - shifts[origin]
        for trio in itertools.combinations(range(4), 3):
            gen = rel[list(trio)]
            if abs(det_int(gen)) != 1:
                continue
            rest = [i for i in range(4) if i not in trio][0]
            lam = int_solve(gen.T, rel[rest]).tolist()
            cols = (net.lattice.basis @ gen.T.astype(np.float64))
            vol = float(np.linalg.det(cols))
            return tuple(sorted(lam)), vol
    raise ValueError("shift bookkeeping inconsistent: no unimodular generator triple")
