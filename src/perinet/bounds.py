"""Closed-form lower bounds, inequality checkers, and equality certificates.

The sharp bounds: sqrt((n+1)^(n-1) n^n) for dipole-type networks of
degree n+1, (d/2 - n + 1) n^n for even degree d >= 2n, and for three
dimensions the degree-4 and degree-5 values 12 sqrt(3), 27, 27 sqrt(3),
405/8, with 405/8 a strict bound for every irreducible topology of
degree >= 7.  Checkers for the simplex and pyramid estimates evaluate
both sides directly and certify the equality configurations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .intlinalg import det_int, solve_unimodular
from .netcore import PeriodicNetwork, edge_vectors, length_quotient, validate
from .topology import TopologyClass, classify

SLACK_TOL = 1e-9         # inequality slack tolerance
EQUALITY_VALUE_TOL = 1e-9
CERT_TOL = 1e-6          # structural tolerance of equality certificates


# ---------------------------------------------------------------------------
# closed-form bounds

def bound_dipole(n: int) -> float:
    """Sharp lower bound on L^n/V for irreducible networks of degree n+1."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return math.sqrt((n + 1) ** (n - 1) * n ** n)


def bound_even(n: int, d: int) -> float:
    """Sharp lower bound (d/2 - n + 1) n^n for even degree d >= 2n."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if d % 2 != 0 or d < 2 * n:
        raise ValueError("bound requires even degree d >= 2n")
    return (d / 2 - n + 1) * float(n) ** n


def bound_degree3d(d: int, topology: TopologyClass | str) -> float:
    """Three-dimensional bounds by degree and quotient topology."""
    top = TopologyClass.from_tag(topology) if isinstance(topology, str) else topology
    if d >= 7:
        return 405.0 / 8.0
    table = {
        (4, "D4"): 12 * math.sqrt(3),
        (4, "D1,2"): 27.0,
        (5, "D1,3"): 27 * math.sqrt(3),
        (5, "D5"): 405.0 / 8.0,
        (6, "B3"): 27.0,
    }
    try:
        return table[(d, top.tag)]
    except KeyError:
        raise ValueError(f"no bound for degree {d} with topology {top.tag}") from None


def monotonicity_table(n: int, d_max: int) -> list[tuple[int, float]]:
    """(d, bound) for even d from 2n to d_max; strictly increasing in d."""
    if d_max < 2 * n or d_max % 2 != 0:
        raise ValueError("d_max must be even and at least 2n")
    return [(d, bound_even(n, d)) for d in range(2 * n, d_max + 1, 2)]


# ---------------------------------------------------------------------------
# simplex and pyramid estimates

class SimplexCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    equality: bool


class PyramidCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    equality: bool


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
    rhs = math.factorial(n) * math.sqrt((n + 1) ** (n - 1) * n ** n)
    holds = lhs >= rhs * (1 - 1e-12)
    equality = abs(lhs - rhs) <= EQUALITY_VALUE_TOL * rhs
    if equality:
        r = radii.mean()
        units = pts / radii[:, None]
        dots = units @ units.T
        off = dots[~np.eye(n + 1, dtype=bool)]
        equality = (np.abs(radii - r).max() <= CERT_TOL * r
                    and np.abs(off + 1.0 / n).max() <= CERT_TOL)
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
        raise RuntimeError("failed to sample a nondegenerate pyramid")


def _polytope_volume(coords: np.ndarray) -> float:
    """Volume of the convex hull of points given in their own dimension."""
    m = coords.shape[1]
    if m == 0:
        return 0.0
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


def _oriented_star(net: PeriodicNetwork, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Outgoing non-loop edge vectors at v, and loop vectors at v."""
    g = net.graph
    vecs = edge_vectors(net)
    stars, loops = [], []
    for e in range(g.edge_count):
        t, h = int(g.tails[e]), int(g.heads[e])
        if t == h:
            if t == v:
                loops.append(vecs[e])
            continue
        if t == v:
            stars.append(vecs[e])
        elif h == v:
            stars.append(-vecs[e])
    return np.array(stars), np.array(loops)


def _cert_regular_simplex(net: PeriodicNetwork) -> CertificateResult:
    """Neighbours of each vertex form a regular simplex centred on it."""
    star, _ = _oriented_star(net, 0)
    n = net.dim
    r = np.linalg.norm(star, axis=1)
    units = star / r[:, None]
    dots = units @ units.T
    off = dots[~np.eye(len(star), dtype=bool)]
    checks = {
        "equal_edge_lengths": float(r.max() - r.min()) <= CERT_TOL * r.mean(),
        "simplex_angles": float(np.abs(off + 1.0 / n).max()) <= CERT_TOL,
    }
    if n == 3:
        # the differences b_i - b_0 are cycle translations, so they span a
        # sublattice of index |det D| / |det B|; with a regular-simplex star
        # the lattice is the diamond's FCC lattice exactly when that is 1
        diffs = star[1:] - star[0]
        vol = abs(float(np.linalg.det(net.lattice.basis)))
        checks["fcc_lattice"] = abs(abs(float(np.linalg.det(diffs))) - vol) <= CERT_TOL * vol
    return CertificateResult("regular-simplex", all(checks.values()), checks)


def _two_vertex_parts(net: PeriodicNetwork):
    """Bridge vectors (oriented 0 -> 1) and loop vectors at each vertex."""
    g = net.graph
    vecs = edge_vectors(net)
    bridges, loops0, loops1 = [], [], []
    for e in range(g.edge_count):
        t, h = int(g.tails[e]), int(g.heads[e])
        if t == h:
            (loops0 if t == 0 else loops1).append(vecs[e])
        else:
            bridges.append(vecs[e] if t == 0 else -vecs[e])
    return np.array(bridges), np.array(loops0), np.array(loops1)


def _cert_cds_family(net: PeriodicNetwork) -> CertificateResult:
    """One-parameter equality family: x1 = x2 = x3 + x4, orthogonal axes."""
    bridges, loops0, loops1 = _two_vertex_parts(net)
    a, b = loops0[0], loops1[0]
    c1, c2 = bridges[0], bridges[1]
    axis = c1 - c2          # net bridge-cycle vector, a lattice generator
    x1, x2 = np.linalg.norm(a), np.linalg.norm(b)
    x34 = np.linalg.norm(c1) + np.linalg.norm(c2)
    scale = max(x1, x2, x34)
    dirs = np.array([a / x1, b / x2, axis / np.linalg.norm(axis)])
    gram = np.abs(dirs @ dirs.T - np.eye(3))
    checks = {
        "x1_eq_x2": abs(x1 - x2) <= CERT_TOL * scale,
        "x1_eq_x3_plus_x4": abs(x1 - x34) <= CERT_TOL * scale,
        "collinear_bridges": abs(np.linalg.norm(axis) - x34) <= CERT_TOL * scale,
        "orthogonal_axes": float(gram.max()) <= CERT_TOL,
        "equal_generators": abs(np.linalg.norm(axis) - x1) <= CERT_TOL * scale,
    }
    return CertificateResult("cds-family", all(checks.values()), checks)


def _cert_bnn(net: PeriodicNetwork) -> CertificateResult:
    """Prismatic honeycomb relations 2y + 2z = 3 x1 = 3 x2 = 3 x3, y = z."""
    bridges, loops0, loops1 = _two_vertex_parts(net)
    x = np.linalg.norm(bridges, axis=1)
    y = float(np.linalg.norm(loops0[0]))
    z = float(np.linalg.norm(loops1[0]))
    normal = np.cross(bridges[0], bridges[1])
    normal /= np.linalg.norm(normal)
    planar0 = abs(float(bridges[2] @ normal))
    checks = {
        "equal_bridges": float(x.max() - x.min()) <= CERT_TOL * x.mean(),
        "coplanar_bridges": planar0 <= CERT_TOL * x.mean(),
        "loop_relation": abs(2 * y + 2 * z - 3 * x.mean()) <= CERT_TOL * x.mean(),
        "equal_loops": abs(y - z) <= CERT_TOL * x.mean(),
        "loops_perpendicular": max(
            abs(abs(float(loops0[0] @ normal)) - y),
            abs(abs(float(loops1[0] @ normal)) - z)) <= CERT_TOL * x.mean(),
    }
    return CertificateResult("prismatic-honeycomb", all(checks.values()), checks)


def _cert_primitive(net: PeriodicNetwork) -> CertificateResult:
    """Loop vectors orthogonal and of equal length (primitive lattice)."""
    vecs = edge_vectors(net)
    gram = vecs @ vecs.T
    norms = np.sqrt(np.diag(gram))
    off = gram[~np.eye(len(vecs), dtype=bool)]
    checks = {
        "equal_lengths": float(norms.max() - norms.min()) <= CERT_TOL * norms.mean(),
        "orthogonal": float(np.abs(off).max()) <= CERT_TOL * norms.mean() ** 2,
    }
    return CertificateResult("primitive-cubic", all(checks.values()), checks)


def _cert_sqp(net: PeriodicNetwork) -> CertificateResult:
    """Square pyramid: x1..x4 = (8/13) x0, probe height x1/4, apex height L/3."""
    star, _ = _oriented_star(net, 0)
    r = np.linalg.norm(star, axis=1)
    apex = int(np.argmax(r))
    base = np.delete(star, apex, axis=0)
    x0 = float(r[apex])
    xb = np.delete(r, apex)
    centroid = base.mean(axis=0)
    rel = base - centroid
    _, sv, vt = np.linalg.svd(rel)
    normal = vt[-1]
    planar = abs(rel @ normal).max()
    h = abs(float(centroid @ normal))       # probe (vertex 0) to base plane
    apex_h = abs(float((star[apex] - centroid) @ normal))
    L = float(r.sum())
    iu = np.triu_indices(4, 1)
    dist = np.sort(np.linalg.norm(base[:, None, :] - base[None, :, :], axis=2)[iu])
    checks = {
        "equal_base_edges": float(xb.max() - xb.min()) <= CERT_TOL * xb.mean(),
        "base_coplanar": planar <= CERT_TOL * xb.mean(),
        "base_ratio": abs(xb.mean() - 8.0 / 13.0 * x0) <= CERT_TOL * xb.mean(),
        "probe_height": abs(h - xb.mean() / 4) <= CERT_TOL * xb.mean(),
        "apex_height_L_over_3": abs(apex_h - L / 3) <= CERT_TOL * L,
        # 6 pairwise distances of a square: 4 sides then 2 diagonals
        "square_base": abs(dist[:4].mean() * math.sqrt(2) - dist[4:].mean())
                       <= CERT_TOL * dist.mean(),
    }
    return CertificateResult("square-pyramid", all(checks.values()), checks)


def _cert_hexagonal(net: PeriodicNetwork) -> CertificateResult:
    """Planar tripod at 120 degrees with equal legs (n = 2 dipole)."""
    star, _ = _oriented_star(net, 0)
    r = np.linalg.norm(star, axis=1)
    units = star / r[:, None]
    dots = (units @ units.T)[~np.eye(3, dtype=bool)]
    checks = {
        "equal_edges": float(r.max() - r.min()) <= CERT_TOL * r.mean(),
        "tripod_angles": float(np.abs(dots + 0.5).max()) <= CERT_TOL,
    }
    return CertificateResult("hexagonal-tripod", all(checks.values()), checks)


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
    equality_certificate: CertificateResult | None
    topology: str
    note: str = ""

    def to_json(self) -> dict:
        cert = None
        if self.equality_certificate is not None:
            cert = {
                "name": self.equality_certificate.name,
                "passed": self.equality_certificate.passed,
                "checks": {k: bool(v) for k, v in
                           self.equality_certificate.checks.items()},
            }
        return {
            "applicable": self.applicable,
            "theorem": self.theorem,
            "bound": self.bound,
            "bound_expr": self.bound_expr,
            "measured": self.measured,
            "slack": self.slack,
            "strict": self.strict,
            "sharp": self.sharp,
            "topology": self.topology,
            "equality_certificate": cert,
            "note": self.note,
        }


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
        cert = _cert_hexagonal if n == 2 else _cert_regular_simplex
        return ("dipole-simplex", bound_dipole(n),
                f"sqrt({n + 1}^{n - 1} * {n}^{n})", False, True, cert)
    if d >= n + 1:
        return ("degree-floor", bound_dipole(n),
                f"sqrt({n + 1}^{n - 1} * {n}^{n})", d > n + 1, False, None)
    return None


def verify(net: PeriodicNetwork) -> BoundReport:
    """Match a network against the bound for its (dimension, degree, topology).

    Computes the slack (measured minus bound) and, when the network sits
    at the bound, attaches the structural equality certificate of the
    corresponding theorem.
    """
    rep = validate(net)
    top = classify(net.graph)
    try:
        measured = length_quotient(net)
    except ValueError:
        measured = float("nan")
    if not rep.ok:
        return BoundReport(False, None, None, None, measured, None, False,
                           False, None, top.tag,
                           note="network fails validation: " + "; ".join(rep.violations))
    sel = _select_bound(net.dim, top.degree, top)
    if sel is None:
        return BoundReport(False, None, None, None, measured, None, False,
                           False, None, top.tag, note="no applicable bound")
    theorem, value, expr, strict, sharp, cert_builder = sel
    slack = measured - value
    note = ""
    if strict and slack <= 0:
        note = "strict bound violated: slack must be positive"
    cert = None
    if cert_builder is not None and slack <= 1e-6:
        cert = cert_builder(net)
    return BoundReport(True, theorem, value, expr, measured, slack, strict,
                       sharp, cert, top.tag, note=note)


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
    g = net.graph
    shifts = []
    for t, h, s in g.edges:
        shifts.append(np.array(s) if t == 0 else -np.array(s))
    shifts = np.array(shifts, dtype=np.int64)
    for origin in range(5):
        rel = np.delete(shifts, origin, axis=0) - shifts[origin]
        for trio in itertools.combinations(range(4), 3):
            gen = rel[list(trio)]
            if abs(det_int(gen)) != 1:
                continue
            rest = [i for i in range(4) if i not in trio][0]
            lam = solve_unimodular(gen, rel[rest])
            cols = (net.lattice.basis @ gen.T.astype(np.float64))
            vol = float(np.linalg.det(cols))
            return tuple(sorted(lam)), vol
    raise ValueError("shift bookkeeping inconsistent: no unimodular generator triple")
