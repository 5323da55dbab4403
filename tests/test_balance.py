import hashlib
import math

import numpy as np
import pytest

from perinet import (
    CATALOG_NAMES,
    Lattice,
    PeriodicNetwork,
    QuotientGraph,
    catalog,
    force,
    force_all,
    geometric_median,
    is_balanced,
    length,
    lifted_neighbours,
    random_network,
    rebalance_vertex,
    with_positions,
)
from perinet import balance, verify
from perinet.balance import _newton_tail, _vertex_gaps
from perinet.topology import build_abstract, enumerate_shift_arrays


def perturbed_dia():
    net, _ = catalog("dia")
    positions = np.array(net.positions)
    positions[1] = [0.3, 0.25, 0.25]
    return with_positions(net, positions)


def test_force_pcu_zero():
    net, _ = catalog("pcu", n=3)
    assert np.linalg.norm(force(net, 0)) <= 1e-15


def test_force_sqp_vertex_zero():
    # four base unit vectors contribute z = -1/4 each, the apex +1;
    # horizontal parts cancel by the square symmetry
    net, _ = catalog("sqp")
    assert np.linalg.norm(force(net, 0)) <= 1e-14
    assert np.linalg.norm(force(net, 1)) <= 1e-14


def test_force_perturbed_dia_nonzero():
    net = perturbed_dia()
    assert np.linalg.norm(force(net, 1)) > 0.01


def test_catalog_balanced():
    for name, params in [("hcb", {}), ("sql", {}), ("dia", {}),
                         ("cds", {"t": 0.25}), ("bnn", {}), ("sqp", {}),
                         ("pcu", {"n": 4}), ("simplex_net", {"n": 5})]:
        net, _ = catalog(name, **params)
        assert is_balanced(net, 1e-9), name


def test_perturbed_not_balanced():
    assert not is_balanced(perturbed_dia(), 1e-9)


def test_two_vertex_forces_opposite():
    for name, params in [("dia", {}), ("bnn", {}), ("cds", {"t": 0.3})]:
        net = perturbed_dia() if name == "dia" else catalog(name, **params)[0]
        res = force_all(net)
        assert np.linalg.norm(res.forces[0] + res.forces[1]) <= 1e-12


def _reference_forces(net):
    """Vertex forces edge by edge: the head end of each edge pulls along its
    unit vector, the tail end against it."""
    g = net.graph
    B = net.lattice.basis
    out = np.zeros((g.vertex_count, g.dim))
    for t, h, s in g.edges:
        vec = net.positions[h] + B @ np.array(s, dtype=float) - net.positions[t]
        u = vec / np.linalg.norm(vec)
        out[h] += u
        out[t] -= u
    return out


def test_force_all_matches_edge_loop_on_catalog():
    nets = [catalog(name)[0] for name in CATALOG_NAMES]
    nets += [catalog(name, n=n)[0] for name in ("pcu", "cube_net", "simplex_net")
             for n in (2, 4, 5)]
    nets += [random_network(net.graph, seed=seed) for seed in range(3) for net in nets]
    for net in nets:
        res = force_all(net)
        want = _reference_forces(net)
        assert np.allclose(res.forces, want, rtol=0, atol=1e-14)
        assert res.max_norm == pytest.approx(np.linalg.norm(res.forces, axis=1).max(),
                                             rel=1e-15, abs=1e-300)


def test_force_zero_length_edge_raises():
    net, _ = catalog("cds", t=0.5)
    positions = np.array(net.positions)
    positions[1] = positions[0]
    with pytest.raises(ValueError):
        force_all(with_positions(net, positions))


def test_is_balanced_requires_positive_tol():
    with pytest.raises(ValueError):
        is_balanced(catalog("dia")[0], 0.0)


# ---------------------------------------------------------------------------
# geometric median


def test_median_equilateral_triangle():
    pts = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
    p, at_vertex = geometric_median(pts)
    assert at_vertex is None
    assert np.linalg.norm(p) <= 1e-9
    units = (pts - p) / np.linalg.norm(pts - p, axis=1)[:, None]
    dots = units @ units.T
    assert np.allclose(dots[~np.eye(3, dtype=bool)], -0.5, atol=1e-7)


def test_median_obtuse_triangle_at_vertex():
    # angle at the origin vertex is over 120 degrees
    pts = np.array([[0.0, 0.0], [1.0, 0.05], [-1.0, 0.05]])
    p, at_vertex = geometric_median(pts)
    assert at_vertex == 0
    assert np.allclose(p, pts[0])


def test_median_square_center():
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    p, at_vertex = geometric_median(pts)
    assert at_vertex is None
    assert np.linalg.norm(p) <= 1e-9


def test_median_collinear_middle_point():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    p, at_vertex = geometric_median(pts)
    assert at_vertex == 1


def test_median_identical_points_raises():
    with pytest.raises(ValueError):
        geometric_median(np.zeros((3, 2)))


def test_median_requires_two_points():
    with pytest.raises(ValueError):
        geometric_median(np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_median_refuses_non_finite_points(value):
    with pytest.raises(ValueError, match="non-finite"):
        geometric_median(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, value]]))


def test_median_monotone_and_certified():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(3, 9))
        dim = int(rng.integers(2, 5))
        pts = rng.normal(size=(m, dim)) * rng.uniform(0.2, 5.0)
        objs = []
        p, at_vertex = geometric_median(pts, on_step=lambda _, obj: objs.append(obj))
        for a, b in zip(objs, objs[1:]):
            assert b <= a * (1 + 1e-12) + 1e-15
        d = np.linalg.norm(pts - p, axis=1)
        if at_vertex is None:
            units = (pts - p) / d[:, None]
            assert np.linalg.norm(units.sum(axis=0)) <= 1e-6
        else:
            rest = np.delete(pts, at_vertex, axis=0) - pts[at_vertex]
            units = rest / np.linalg.norm(rest, axis=1)[:, None]
            assert np.linalg.norm(units.sum(axis=0)) <= 1.0 + 1e-10


# The median as written before the gap table: one _vertex_gap call and two
# star-length evaluations per iterate, and a Newton tail that halves 40
# times whatever the step size.  Kept as the reference the fast path must
# reproduce: the same at_vertex, and the same point up to rounding.


def _reference_star_length(p, points):
    return float(np.linalg.norm(points - p, axis=1).sum())


def _reference_vertex_gap(points, i):
    rest = np.delete(points, i, axis=0)
    d = rest - points[i]
    norms = np.linalg.norm(d, axis=1)
    keep = norms > 0
    s = (d[keep] / norms[keep, None]).sum(axis=0)
    return float(np.linalg.norm(s)), s


def _reference_newton_polish(p, pts, gtol, rounds=60):
    dim = pts.shape[1]
    obj = _reference_star_length(p, pts)
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
            val = _reference_star_length(cand, pts)
            if val < obj:
                p, obj = cand, val
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return p


def _reference_geometric_median(points, tol=1e-10, max_iter=10_000):
    pts = np.asarray(points, dtype=np.float64)
    scale = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
    if len(pts) == 2:
        return pts.mean(axis=0), None
    p = pts.mean(axis=0)
    obj = _reference_star_length(p, pts)
    for it in range(max_iter):
        d = np.linalg.norm(pts - p, axis=1)
        i = int(np.argmin(d))
        gap, s = _reference_vertex_gap(pts, i)
        if gap <= 1.0 + 1e-12:
            return pts[i].copy(), i
        if d[i] < 1e-12 * max(scale, 1.0):
            # restart off the point by 1e-6 of its distance to the nearest other point
            near = np.linalg.norm(pts - pts[i], axis=1)
            p = pts[i] + 1e-6 * near[near > 0].min() * s / gap
            d = np.linalg.norm(pts - p, axis=1)
        w = 1.0 / d
        p_new = (pts * w[:, None]).sum(axis=0) / w.sum()
        new_obj = _reference_star_length(p_new, pts)
        if not new_obj <= obj * (1 + 1e-12) + 1e-15:
            raise RuntimeError("Weiszfeld objective increased")
        step = float(np.linalg.norm(p_new - p))
        p, obj = p_new, new_obj
        if step < tol or (it + 1) % 500 == 0:
            p = _reference_newton_polish(p, pts, gtol=tol)
            d = np.linalg.norm(pts - p, axis=1)
            i = int(np.argmin(d))
            if d[i] <= 1e-6 * max(scale, 1.0):
                gap, _ = _reference_vertex_gap(pts, i)
                if gap <= 1.0 + 1e-12:
                    return pts[i].copy(), i
            units = (pts - p) / d[:, None]
            if np.linalg.norm(units.sum(axis=0)) <= max(tol, 1e-12):
                return p, None
    raise RuntimeError(f"geometric median did not converge in {max_iter} iterations")


def _assert_matches_reference(pts, **kw):
    p, at_vertex = geometric_median(pts, **kw)
    p_ref, at_ref = _reference_geometric_median(pts, **kw)
    assert at_vertex == at_ref, (pts, at_vertex, at_ref)
    scale = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
    assert np.linalg.norm(p - p_ref) <= 1e-8 * max(scale, 1.0), (pts, p, p_ref)
    return p, at_vertex


def _vertex_optimal_set(rng):
    """A point with antipodal neighbour pairs, so its unit vectors cancel."""
    dim = int(rng.integers(2, 5))
    centre = rng.normal(size=dim)
    dirs = rng.normal(size=(int(rng.integers(1, 5)), dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = rng.uniform(0.2, 3.0, size=(len(dirs), 2))
    pts = np.vstack([centre, centre + radii[:, :1] * dirs, centre - radii[:, 1:] * dirs])
    return pts[rng.permutation(len(pts))]


def test_median_matches_reference():
    sets = []
    for k, tag in enumerate(["D4", "D1,2", "D5", "D1,3", "B3"]):
        skeleton = build_abstract(tag, 3)
        shifts = enumerate_shift_arrays(skeleton, 3, 1)
        rng = np.random.default_rng((23, k))
        for _ in range(100):
            g = QuotientGraph(3, skeleton.vertex_count, skeleton.tails, skeleton.heads,
                              shifts[int(rng.integers(len(shifts)))])
            net = random_network(g, seed=int(rng.integers(1 << 62)))
            for v in range(g.vertex_count):
                nbrs = lifted_neighbours(net, v)
                if len(nbrs):
                    sets.append(nbrs)
    rng = np.random.default_rng(29)
    for _ in range(300):
        m, dim = int(rng.integers(3, 10)), int(rng.integers(2, 5))
        sets.append(rng.normal(size=(m, dim)) * rng.uniform(0.2, 5.0))
    vertex_sets = [_vertex_optimal_set(rng) for _ in range(100)]
    assert len(sets) + len(vertex_sets) >= 1000
    for pts in sets:
        _assert_matches_reference(pts)
    for pts in vertex_sets:
        _, at_vertex = _assert_matches_reference(pts)
        assert at_vertex is not None


# seven points in R^2: the 7th Weiszfeld iterate lands 8.6e-20 from point
# 1, which is no median (its vertex gap is 1.0048), and its nearest other
# point is 1.42e-5 away
_NEAR_POINT_SET = np.array([
    [2.8884478428630246e+02, -1.0196877594499495e+02], [2.2116386001514755e-05, -1.3018860342206849e-05],
    [-1.3322231825508130e-01, 1.3233387991310935e-01], [4.4048361122027524e+00, -2.9972063014559227e+00],
    [-1.5349044304394666e-04, 4.8217203142405207e-06], [5.9250471994902791e-02, 1.8144631448466586e-01],
    [7.9412938835366543e-06, -1.4037737664443692e-05]])


def test_restart_off_an_input_point_scales_with_the_set():
    # a restart step of fixed size overshot the nearby points and raised
    # "Weiszfeld objective increased" at scales 1 and 1e-3
    medians = []
    for c in (1.0, 1e-3, 1e3):
        pts = _NEAR_POINT_SET * c
        p, at_vertex = _assert_matches_reference(pts)
        assert at_vertex is None
        units = (pts - p) / np.linalg.norm(pts - p, axis=1)[:, None]
        assert np.linalg.norm(units.sum(axis=0)) <= 1e-10
        medians.append(p / c)
    np.testing.assert_allclose(medians, [medians[0]] * 3, rtol=1e-9, atol=0)


def _criterion_4_sets():
    """The lifted neighbour sets of criterion 4's random networks, 800 in all."""
    sets = []
    for k, tag in enumerate(["D4", "D1,2", "D5", "D1,3", "B3"]):
        skeleton = build_abstract(tag, 3)
        shifts = enumerate_shift_arrays(skeleton, 3, 1)
        rng = np.random.default_rng((23, k))
        for _ in range(100):
            g = QuotientGraph(3, skeleton.vertex_count, skeleton.tails, skeleton.heads,
                              shifts[int(rng.integers(len(shifts)))])
            net = random_network(g, seed=int(rng.integers(1 << 62)))
            for v in range(g.vertex_count):
                nbrs = lifted_neighbours(net, v)
                if len(nbrs):
                    sets.append(nbrs)
    assert len(sets) == 800
    return sets


def test_median_iterates_on_criterion_4_sets():
    # the Newton tail starts once Weiszfeld is in its basin, so a median of
    # a sweep vertex's neighbours takes a few iterates, not dozens
    calls = []
    for nbrs in _criterion_4_sets():
        steps = []
        geometric_median(nbrs, on_step=lambda *a: steps.append(a))
        calls.append(len(steps))
    assert np.mean(calls) <= 15, np.mean(calls)


def test_criterion_4_sets_enter_the_newton_tail_at_most_twice(monkeypatch):
    # the tail sees decreases below the rounding of the objective, so it
    # certifies where it starts and is not re-entered after a Weiszfeld step
    tails = []
    tail = balance._newton_tail
    monkeypatch.setattr(balance, "_newton_tail",
                        lambda *a, **kw: tails.append(1) or tail(*a, **kw))
    for nbrs in _criterion_4_sets():
        tails.clear()
        objs = []
        geometric_median(nbrs, on_step=lambda _, obj: objs.append(obj))
        assert len(tails) <= 2, (nbrs, len(tails))
        assert all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(objs, objs[1:]))


def test_vertex_gaps_skip_coincident_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.2, 1.0], [-1.0, -0.4]])
    gaps, sums = _vertex_gaps(pts.tolist())
    for i in range(len(pts)):
        gap, s = _reference_vertex_gap(pts, i)
        assert gaps[i] == pytest.approx(gap, abs=1e-14)
        assert np.allclose(sums[i], s, atol=1e-14)
    _assert_matches_reference(pts)


def test_median_doubled_point_is_optimal():
    # the origin is given twice: its vertex gap 1.0995 exceeds 1 but not its
    # multiplicity 2, so the doubled point is the minimizer
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-1.0, 0.1], [0.0, 1.0]])
    gaps, _ = _vertex_gaps(pts.tolist())
    assert 1.0 < gaps[0] <= 2.0
    p, at_vertex = geometric_median(pts)
    assert at_vertex == 0
    assert np.array_equal(p, pts[0])


def test_median_collinear_two_optimal_points():
    # on a line through four points every point between the inner two is a
    # minimizer and both inner points pass the vertex test; the one nearer
    # the mean (first on one line, second on the other) is returned
    rng = np.random.default_rng(31)
    for k in range(20):
        dim = int(rng.integers(2, 5))
        u = rng.normal(size=dim)
        ts = rng.permutation([0.0, 1.0, 2.6, 3.1] if k % 2 else [0.0, 0.5, 2.0, 3.0])
        pts = rng.normal(size=dim) + np.outer(ts, u)
        gaps = np.array(_vertex_gaps(pts.tolist())[0])
        assert (gaps <= 1.0 + 1e-12).sum() == 2
        _, at_vertex = _assert_matches_reference(pts)
        assert at_vertex == int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
        assert gaps[at_vertex] <= 1.0 + 1e-12


def test_median_certified_at_first_iterate_without_steps():
    pts = np.array([[0.0, 0.0], [1.0, 0.05], [-1.0, 0.05]])
    calls = []
    p, at_vertex = geometric_median(pts, on_step=lambda *a: calls.append(a))
    assert at_vertex == 0 and np.array_equal(p, pts[0])
    assert calls == []


def test_median_iteration_cap_raises():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 1.0]])
    with pytest.raises(RuntimeError, match="did not converge"):
        geometric_median(pts, max_iter=1)
    _assert_matches_reference(pts)


def test_median_fermat_tripod_at_tight_tolerance():
    # the tripod of construct_odd: 0 and two reduced lattice vectors
    for g1, g2 in [([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), ([1.0, 0.0], [0.5, 0.9])]:
        tripod = np.array([np.zeros(len(g1)), g1, g2])
        q, at_vertex = geometric_median(tripod, tol=1e-13)
        assert at_vertex is None
        units = (tripod - q) / np.linalg.norm(tripod - q, axis=1)[:, None]
        assert np.linalg.norm(units.sum(axis=0)) <= 1e-12
        assert np.allclose(units @ units.T, 1.5 * np.eye(3) - 0.5, atol=1e-9)


# ---------------------------------------------------------------------------
# rebalancing


def test_rebalance_perturbed_dia():
    net = perturbed_dia()
    before = length(net)
    out, degenerate = rebalance_vertex(net, 1)
    assert not degenerate
    assert length(out) < before
    assert np.linalg.norm(force(out, 1)) <= 1e-9


def test_rebalance_fixed_point():
    net, _ = catalog("dia")
    out, degenerate = rebalance_vertex(net, 1)
    assert not degenerate
    assert np.linalg.norm(out.positions[1] - net.positions[1]) <= 1e-9


def test_rebalance_collinear_degenerates():
    # the three bridge neighbours of vertex 0 sit on a line, so the median
    # lands on the middle one and an edge collapses
    from perinet import Lattice
    g = QuotientGraph.from_edges(3, 2, [(0, 1, (0, 0, 0)), (0, 1, (-1, 0, 0)),
                                        (0, 1, (1, 0, 0)),
                                        (0, 0, (0, 0, 1)), (1, 1, (0, 0, 1))])
    lat = Lattice(np.diag([1.0, 1.37, 0.9]))
    pos = np.array([[0.2, 0.5, 0.0], [0.5, 0.5, 0.0]])
    net = PeriodicNetwork(g, lat, pos)
    nbrs = lifted_neighbours(net, 0)
    assert np.linalg.matrix_rank(nbrs - nbrs[0], tol=1e-9) == 1
    out, degenerate = rebalance_vertex(net, 0)
    assert degenerate


def _reference_lifted_neighbours(net, v):
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


def test_lifted_neighbours_match_edge_loop():
    nets = [catalog(name)[0] for name in CATALOG_NAMES]
    nets += [catalog(name, n=n)[0] for name in ("pcu", "cube_net", "simplex_net")
             for n in (2, 4, 5)]
    rng = np.random.default_rng(37)
    for tag in ("D5", "D1,3"):
        skeleton = build_abstract(tag, 3)
        shifts = enumerate_shift_arrays(skeleton, 3, 1)
        for _ in range(25):
            g = QuotientGraph(3, 2, skeleton.tails, skeleton.heads,
                              shifts[int(rng.integers(len(shifts)))])
            nets.append(random_network(g, seed=int(rng.integers(1 << 62))))
    for net in nets:
        for v in range(net.graph.vertex_count):
            got = lifted_neighbours(net, v)
            want = _reference_lifted_neighbours(net, v)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_rebalance_loop_only_vertex_noop():
    net, _ = catalog("pcu", n=3)
    out, degenerate = rebalance_vertex(net, 0)
    assert not degenerate
    assert np.array_equal(out.positions, net.positions)


def test_rebalance_identical_neighbours_raises():
    from perinet import Lattice
    g = QuotientGraph.from_edges(2, 2, [(0, 1, (0, 0)), (0, 1, (0, 0)),
                                        (0, 0, (1, 0)), (1, 1, (0, 1))])
    net = PeriodicNetwork(g, Lattice(np.eye(2)), np.array([[0.0, 0.0], [0.4, 0.3]]))
    with pytest.raises(ValueError):
        rebalance_vertex(net, 0)


@pytest.mark.parametrize("edges,far,message", [
    # three copies of one lifted neighbour, whose mean in floats is not that point
    ([(0, 1, (0, 0, 0))] * 3, [0.1, 0.2, 0.7], "all neighbours of the vertex coincide"),
    ([(0, 1, (0, 0, 0))] * 2, [0.1, 0.2, 0.7], "all neighbours of the vertex coincide"),
    ([(0, 1, (0, 0, 0))], [0.1, 0.2, 0.7], "all neighbours of the vertex coincide"),
    ([(0, 1, (0, 0, 0)), (0, 1, (1, 0, 0))], [np.nan, 0.2, 0.7], "non-finite point coordinates"),
    ([(0, 1, (0, 0, 0))] * 3, [np.inf, 0.2, 0.7], "non-finite point coordinates"),
    ([(0, 1, (0, 0, 0))], [np.inf, 0.2, 0.7], "all neighbours of the vertex coincide"),
], ids=["three-coincide", "two-coincide", "single", "nan", "inf-coincide", "inf-single"])
def test_rebalance_refuses_coincident_single_and_non_finite_neighbours(edges, far, message):
    # vertex 0 also carries loops, which play no part; the refusals are the
    # median's, but for one neighbour or all at one point, which name the vertex
    loops = [(0, 0, (0, 1, 0)), (0, 0, (0, 0, 1)), (1, 1, (0, 1, 0))]
    g = QuotientGraph.from_edges(3, 2, edges + loops)
    net = PeriodicNetwork(g, Lattice(np.eye(3)), np.array([[0.0, 0.0, 0.0], far]))
    with pytest.raises(ValueError, match=f"^{message}$"):
        rebalance_vertex(net, 0)


def _bits(*parts) -> str:
    """A sha-256 prefix of arrays' float64 bytes and other values' reprs."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()[:20]


# criterion 4's sweep path on eight drawn networks per topology: the
# positions and basis random_network draws, the network rebalance_vertex
# makes and its flag, and what verify measures, as computed on x86-64 with
# CPython 3.11 and numpy 2.4 (CPython 3.12's compensated sum moves a
# median's last bits); D4 and D1,3 each land a median on a neighbour
SWEEP_PINS = {"D4": "703be602100b521101ce", "D1,2": "16e2b60ba7e35b3004be",
              "D5": "9a0724e9188d15dcc06c", "D1,3": "69c5e871c984a081fb66",
              "B3": "d17f91d60bcc8e83e975"}


@pytest.mark.parametrize("k,tag", enumerate(SWEEP_PINS))
def test_sweep_path_is_pinned_bit_for_bit(k, tag):
    skeleton = build_abstract(tag, 3)
    shifts = enumerate_shift_arrays(skeleton, 3, 1)
    rng = np.random.default_rng((39, k))
    parts, flags = [], []
    for _ in range(8):
        g = QuotientGraph(3, skeleton.vertex_count, skeleton.tails, skeleton.heads,
                          shifts[int(rng.integers(len(shifts)))])
        net = random_network(g, seed=int(rng.integers(1 << 62)))
        parts += [net.positions, net.lattice.basis]
        if g.vertex_count == 2:
            net, flag = rebalance_vertex(net, 1)
            parts += [net.positions, flag]
            flags.append(flag)
        parts.append(verify(net).measured)
    assert _bits(*parts) == SWEEP_PINS[tag]
    assert (True in flags) == (tag in ("D4", "D1,3"))


# ---------------------------------------------------------------------------
# the star-length derivative identity


def star_length(net, v, p):
    """Sum of distances from p to the held-fixed lifted neighbours of v."""
    import perinet
    g = net.graph
    B = net.lattice.basis
    total = 0.0
    for e in range(g.edge_count):
        t, h = int(g.tails[e]), int(g.heads[e])
        s = g.shifts[e].astype(float)
        if t == h == v:
            total += np.linalg.norm(net.positions[v] + B @ s - p)
            total += np.linalg.norm(net.positions[v] - B @ s - p)
        elif t == v:
            total += np.linalg.norm(net.positions[h] + B @ s - p)
        elif h == v:
            total += np.linalg.norm(net.positions[t] - B @ s - p)
    return total


def test_force_is_star_length_gradient():
    rng = np.random.default_rng(12)
    nets = []
    for seed in range(10):
        for name, params in [("dia", {}), ("bnn", {})]:
            g = catalog(name, **params)[0].graph
            nets.append(random_network(g, seed=seed))
    step = 1e-5
    for net in nets:
        for v in range(net.graph.vertex_count):
            F = force(net, v)
            w = rng.normal(size=net.dim)
            w /= np.linalg.norm(w)
            p = net.positions[v]
            fd = (star_length(net, v, p + step * w)
                  - star_length(net, v, p - step * w)) / (2 * step)
            assert abs(fd - F @ w) <= 1e-6


def test_newton_tail_certifies_from_near_the_median():
    # 1e-9 off the median a Newton step lowers the objective by about
    # |g|^2/H, far below the rounding of sum d; measured term by term the
    # decrease is seen, and the tail certifies in at most two rounds
    rng = np.random.default_rng(3)
    certified = 0
    for _ in range(40):
        pts = rng.normal(size=(int(rng.integers(3, 8)), int(rng.integers(2, 6))))
        p, at_vertex = geometric_median(pts)
        if at_vertex is not None:
            continue
        p = p + 1e-9 * rng.normal(size=pts.shape[1])
        d = np.linalg.norm(pts - p, axis=1)
        p_out, d_out, gnorm = _newton_tail(p.tolist(), pts.tolist(), d.tolist(),
                                           gtol=1e-10, rounds=2)
        units = (pts - p_out) / np.linalg.norm(pts - p_out, axis=1)[:, None]
        assert gnorm <= 1e-10
        assert np.linalg.norm(units.sum(axis=0)) <= 1e-10
        assert sum(d_out) <= d.sum() * (1 + 1e-12) + 1e-15
        certified += 1
    assert certified >= 20


@pytest.mark.parametrize("v", [2, 7, -1])
def test_vertex_ids_outside_the_graph_are_refused(v):
    # dia has vertices 0 and 1; no other id has a force or a star.  The two
    # are put on one point, so the id must be checked before the zero-length
    # edge 0 is found
    net, _ = catalog("dia")
    net = with_positions(net, np.zeros_like(net.positions))
    for probe in (force, lifted_neighbours, rebalance_vertex):
        with pytest.raises(ValueError, match=f"unknown vertex id {v}$"):
            probe(net, v)
