import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from perinet import (
    PeriodicNetwork,
    PyramidInstance,
    bound_degree3d,
    bound_dipole,
    bound_even,
    catalog,
    check_pyramid,
    check_simplex,
    construct_bouquet,
    dipole5_coefficients,
    length_quotient,
    monotonicity_table,
    random_network,
    stress_bound,
    verify,
    with_positions,
)
from perinet.construct import regular_simplex_vertices
from perinet import bounds, netcore
from perinet.netcore import Lattice, QuotientGraph, edge_vectors


def test_bound_dipole_values():
    assert bound_dipole(3) == pytest.approx(12 * math.sqrt(3), rel=1e-15)
    assert bound_dipole(2) == pytest.approx(2 * math.sqrt(3), rel=1e-15)
    assert bound_dipole(4) == pytest.approx(math.sqrt(125 * 256), rel=1e-15)
    # cross-check against the simplex catalog network
    assert bound_dipole(4) == pytest.approx(
        length_quotient(catalog("simplex_net", n=4)[0]), rel=1e-12)
    with pytest.raises(ValueError):
        bound_dipole(1)


@pytest.mark.parametrize("n", [81, 82, 143])
def test_bound_dipole_takes_the_root_of_an_exact_product_past_the_float_range(n):
    # (n+1)^(n-1) n^n passes the float range from n = 82, and its root only
    # with n^n from n = 144; through n = 81 the bound is the float root of
    # the product, as it always was
    exact = (n + 1) ** (n - 1) * n ** n
    b = bound_dipole(n)
    if n == 81:
        assert b == math.sqrt(float(exact)) == pytest.approx(7.017741388334147e+153, rel=1e-15)
    assert math.isfinite(b) and b < float(n) ** n
    assert abs(int(b) - math.isqrt(exact)) <= math.ulp(b)
    logs = ((n - 1) * math.log(n + 1) + n * math.log(n)) / 2
    assert math.log(b) == pytest.approx(logs, rel=1e-14)
    assert bound_dipole(n) > bound_dipole(n - 1)


def test_bound_dipole_refuses_from_n_144():
    with pytest.raises(ValueError, match="^dimension n too large: the bound overflows a float$"):
        bound_dipole(144)


def test_bound_even_values():
    assert bound_even(3, 6) == 27.0
    assert bound_even(3, 8) == 54.0
    assert bound_even(2, 4) == 4.0
    with pytest.raises(ValueError):
        bound_even(3, 7)
    with pytest.raises(ValueError):
        bound_even(3, 4)


def test_bound_degree3d_table():
    assert bound_degree3d(4, "D4") == pytest.approx(12 * math.sqrt(3))
    assert bound_degree3d(4, "D1,2") == 27.0
    assert bound_degree3d(5, "D1,3") == pytest.approx(27 * math.sqrt(3))
    assert bound_degree3d(5, "D5") == 50.625
    assert bound_degree3d(6, "B3") == 27.0
    assert bound_degree3d(7, "D7") == 50.625
    assert bound_degree3d(9, "D3,3") == 50.625
    # even bouquets keep their own bound above degree 6, the one verify applies
    b4 = construct_bouquet(3, 8, Lattice(np.eye(3)))
    assert bound_degree3d(8, "B4") == 54 == verify(b4).bound
    assert bound_degree3d(10, "B5") == 81
    with pytest.raises(ValueError):
        bound_degree3d(4, "B3")


def test_monotonicity_tables():
    assert monotonicity_table(3, 12) == [(6, 27.0), (8, 54.0), (10, 81.0),
                                         (12, 108.0)]
    assert monotonicity_table(2, 8) == [(4, 4.0), (6, 8.0), (8, 12.0)]
    for n in (2, 3, 4):
        table = monotonicity_table(n, 2 * n + 10)
        diffs = {round(b2 - b1, 9) for (_, b1), (_, b2) in zip(table, table[1:])}
        assert diffs == {round(float(n) ** n, 9)}


def test_bound_order_three_dimensions():
    values = [12 * math.sqrt(3), 27.0, 27 * math.sqrt(3), 405.0 / 8.0, 54.0]
    assert values == sorted(values)
    assert len(set(values)) == 5


def test_dipole_below_even_bound():
    for n in range(2, 9):
        assert bound_dipole(n) < float(n) ** n
        assert float(n) ** n == bound_even(n, 2 * n)


# ---------------------------------------------------------------------------
# simplex estimate


def test_simplex_equality_regular_centered():
    for n in (2, 3, 4):
        chk = check_simplex(regular_simplex_vertices(n))
        assert chk.holds and chk.equality
        assert abs(chk.lhs - chk.rhs) <= 1e-10 * chk.rhs


def test_simplex_translated_strict():
    for n in (2, 3, 4):
        pts = regular_simplex_vertices(n) + np.eye(n)[0]
        chk = check_simplex(pts)
        assert chk.holds and not chk.equality
        assert chk.lhs > chk.rhs * 1.01


def test_simplex_random_hold():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        for _ in range(200):
            pts = rng.normal(size=(n + 1, n))
            try:
                chk = check_simplex(pts)
            except ValueError:
                continue
            assert chk.holds


def test_simplex_degenerate_raises():
    pts = np.zeros((4, 3))
    pts[1] = [1, 0, 0]
    pts[2] = [2, 0, 0]
    pts[3] = [0, 1, 0]
    with pytest.raises(ValueError):
        check_simplex(pts)


# ---------------------------------------------------------------------------
# pyramid estimate


def sqp_equality_instance():
    rho = math.sqrt(15) / 4
    base = np.array([[rho, 0, -0.25], [0, rho, -0.25],
                     [-rho, 0, -0.25], [0, -rho, -0.25]])
    return PyramidInstance(apex=np.array([0.0, 0.0, 13.0 / 8.0]), base=base,
                           probe=np.zeros(3))


def test_pyramid_sqp_equality():
    chk = check_pyramid(sqp_equality_instance())
    assert chk.holds and chk.equality
    assert abs(chk.lhs - chk.rhs) <= 1e-9 * chk.rhs


def test_pyramid_regular_tetrahedron_equality():
    # regular tetrahedron probed from its circumcentre: base circumradius 1
    # puts the probe at height 1/(2 sqrt(2)) and the apex at sqrt(2), and
    # all equality conditions hold by symmetry
    angles = [0, 2 * math.pi / 3, 4 * math.pi / 3]
    base = np.array([[math.cos(a), math.sin(a), 0.0] for a in angles])
    probe = np.array([0.0, 0.0, 1 / (2 * math.sqrt(2))])
    apex = np.array([0.0, 0.0, math.sqrt(2)])
    side = np.linalg.norm(base[0] - base[1])
    assert np.linalg.norm(apex - base[0]) == pytest.approx(side, rel=1e-14)
    chk = check_pyramid(PyramidInstance(apex=apex, base=base, probe=probe))
    assert chk.holds and chk.equality
    assert abs(chk.lhs - chk.rhs) <= 1e-9 * chk.rhs


def test_pyramid_random_hold():
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(n, n + 4))
        inst = PyramidInstance.random(rng, n, k)
        assert check_pyramid(inst).holds


def test_pyramid_rigid_motion_invariance():
    rng = np.random.default_rng(33)
    inst = PyramidInstance.random(rng, 3, 4)
    chk = check_pyramid(inst)
    for _ in range(10):
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        shift = rng.normal(size=3)
        c = float(rng.uniform(0.3, 3.0))
        moved = PyramidInstance(apex=c * (Q @ inst.apex + shift),
                                base=c * (inst.base @ Q.T + shift),
                                probe=c * (Q @ inst.probe + shift))
        mk = check_pyramid(moved)
        assert mk.lhs / mk.rhs == pytest.approx(chk.lhs / chk.rhs, rel=1e-10)


def test_pyramid_degenerate_base_raises():
    base = np.zeros((3, 3))
    base[1] = [1, 0, 0]
    base[2] = [2, 0, 0]
    with pytest.raises(ValueError):
        PyramidInstance(apex=np.array([0.0, 0, 1]), base=base, probe=np.zeros(3))


def test_pyramid_apex_in_plane_raises():
    base = np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
    with pytest.raises(ValueError):
        PyramidInstance(apex=np.array([0.3, 0.3, 0.0]), base=base, probe=np.zeros(3))


# ---------------------------------------------------------------------------
# verify


def test_verify_catalog_sharp():
    for name, params in [("dia", {}), ("cds", {"t": 0.35}), ("bnn", {}),
                         ("sqp", {}), ("pcu", {"n": 3}), ("hcb", {}),
                         ("sql", {}), ("simplex_net", {"n": 4}),
                         ("cube_net", {"n": 4})]:
        rep = verify(catalog(name, **params)[0])
        assert rep.applicable, name
        assert rep.sharp, name
        assert abs(rep.slack) <= 1e-9, (name, rep.slack)
        assert rep.equality_certificate is not None, name
        assert rep.equality_certificate.passed, (name, rep.equality_certificate)


def test_verify_positive_slack_off_optimum():
    net, _ = catalog("sqp")
    positions = np.array(net.positions)
    positions[1] += [0.05, -0.02, 0.04]
    rep = verify(with_positions(net, positions))
    assert rep.applicable and rep.slack > 1e-4
    assert rep.equality_certificate is None


def test_verify_invalid_network_reports():
    net, _ = catalog("pcu", n=3)
    g = net.graph
    shifts = np.array(g.shifts)
    shifts[2] = [0, 0, 2]
    bad = PeriodicNetwork(QuotientGraph(3, 1, g.tails, g.heads, shifts),
                          net.lattice, net.positions)
    rep = verify(bad)
    assert not rep.applicable
    assert "validation" in rep.note
    assert rep.topology == "B3"


# two separate two-loop bouquets, and two vertices of degrees 5 and 3
UNCLASSIFIABLE = {
    "disconnected": ([(0, 0, (1, 0)), (0, 0, (0, 1)), (1, 1, (1, 0)), (1, 1, (0, 1))],
                     "quotient graph disconnected"),
    "irregular": ([(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 1, (0, 0)), (1, 1, (1, 1))],
                  "degrees not regular"),
}


def _unclassifiable_network(case):
    edges, _ = UNCLASSIFIABLE[case]
    return PeriodicNetwork(QuotientGraph.from_edges(2, 2, edges), Lattice(np.eye(2)),
                           np.array([[0.0, 0.0], [0.3, 0.4]]))


@pytest.mark.parametrize("case", sorted(UNCLASSIFIABLE))
def test_verify_unclassifiable_network_reports(case):
    rep = verify(_unclassifiable_network(case))
    assert not rep.applicable
    assert rep.topology == "unclassified"
    assert rep.note.startswith("network fails validation")
    assert UNCLASSIFIABLE[case][1] in rep.note


def test_verify_no_applicable_bound():
    # degree 6 on two vertices in R^3 is not an irreducible topology
    from perinet import construct_even_two_vertex
    net = construct_even_two_vertex(3, 6, Lattice(np.eye(3)), 0.4)
    rep = verify(net)
    assert not rep.applicable
    assert "no applicable bound" in rep.note


def test_verify_high_degree_strict_floor():
    from perinet import construct_odd
    net = construct_odd(3, 7, Lattice(np.eye(3)))
    rep = verify(net)
    assert rep.applicable and rep.strict
    assert rep.bound == pytest.approx(405.0 / 8.0)
    assert rep.slack > 0


def test_verify_report_serializes():
    rep = verify(catalog("dia")[0])
    doc = rep.to_json()
    assert doc["theorem"] == "dipole-simplex"
    assert doc["bound_expr"] == "12*sqrt(3)"
    assert doc["equality_certificate"]["passed"] is True


def test_verify_report_is_strict_json_with_none_for_a_non_finite_number():
    # a coordinate of 1e200 is finite, but the squared lengths of its edges
    # overflow: the measured value is not finite, and JSON has no literal for it
    net = catalog("dia")[0]
    positions = net.positions.copy()
    positions[1, 0] = 1e200
    rep = verify(with_positions(net, positions))
    assert not math.isfinite(rep.measured)
    doc = rep.to_json()
    assert doc["measured"] is None
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


SHARP_CATALOG = [("dia", {}), ("cds", {"t": 0.35}), ("bnn", {}), ("sqp", {}),
                 ("pcu", {"n": 3}), ("hcb", {}), ("sql", {}),
                 ("simplex_net", {"n": 4}), ("cube_net", {"n": 4})]


def _rewritten(net, rng):
    """The same network under a random basis change, rotation and relabelling.

    B' = Q B U and s' = U^-1 s leave every edge vector rotated by Q;
    edges are then permuted and some reversed, and two vertices swapped.
    """
    g, n = net.graph, net.dim
    U = np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        i, j = rng.choice(n, 2, replace=False)
        U[:, j] += int(rng.integers(-2, 3)) * U[:, i]
    U_inv = np.rint(np.linalg.inv(U)).astype(np.int64)
    assert np.array_equal(U @ U_inv, np.eye(n, dtype=np.int64))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    shifts = g.shifts @ U_inv.T
    tails, heads = g.tails.copy(), g.heads.copy()
    positions = net.positions @ Q.T
    flip = rng.random(g.edge_count) < 0.5
    tails[flip], heads[flip] = g.heads[flip], g.tails[flip]
    shifts[flip] = -shifts[flip]
    if g.vertex_count == 2 and rng.random() < 0.5:
        tails, heads, positions = 1 - tails, 1 - heads, positions[::-1]
    order = rng.permutation(g.edge_count)
    graph = QuotientGraph(n, g.vertex_count, tails[order], heads[order], shifts[order])
    return PeriodicNetwork(graph, Lattice(Q @ net.lattice.basis @ U), positions)


@pytest.mark.parametrize("name,params", SHARP_CATALOG,
                         ids=[name for name, _ in SHARP_CATALOG])
def test_verify_independent_of_presentation(name, params):
    net, _ = catalog(name, **params)
    ref = verify(net)
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(40):
        rep = verify(_rewritten(net, rng))
        assert rep.theorem == ref.theorem
        assert abs(rep.slack - ref.slack) <= 1e-12 * ref.bound
        assert rep.equality_certificate is not None
        assert rep.equality_certificate.passed, rep.equality_certificate.checks


@pytest.mark.parametrize("name,params", SHARP_CATALOG,
                         ids=[name for name, _ in SHARP_CATALOG])
def test_verify_measures_the_edge_vectors_once(monkeypatch, name, params):
    # the equality certificate reads the edge vectors that validation measured
    net, _ = catalog(name, **params)
    calls = []

    def counted(*args, real=netcore.lifted_edges):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(netcore, "lifted_edges", counted)
    rep = verify(net)
    assert rep.equality_certificate is not None and rep.equality_certificate.passed
    assert len(calls) == 1


def test_fcc_check_rejects_sublattice():
    # the diamond star over a lattice twice as fine: the cycle translations
    # span an index-2 sublattice, so the lift is two interpenetrating copies
    # of dia, with every local check passing
    from perinet.bounds import _cert_regular_simplex
    net, _ = catalog("dia")
    A = np.array([[1, 1, 0], [-1, 1, 0], [0, 0, 1]])     # det 2
    g = net.graph
    twin = PeriodicNetwork(QuotientGraph(3, 2, g.tails, g.heads, g.shifts @ A.T),
                             Lattice(net.lattice.basis @ np.linalg.inv(A)),
                             net.positions)
    assert length_quotient(twin) == pytest.approx(2 * length_quotient(net))
    cert = _cert_regular_simplex(twin, edge_vectors(twin))
    assert cert.checks["equal_edge_lengths"] and cert.checks["simplex_angles"]
    assert not cert.checks["fcc_lattice"] and not cert.passed
    rep = verify(twin)
    assert rep.equality_certificate is None or not rep.equality_certificate.passed


# ---------------------------------------------------------------------------
# integer coefficients for D5


def test_verify_notes_a_cut_edge():
    # D1,1 in R^2: a loop at each vertex and one bridge, which is a cut edge,
    # so no realization is balanced; the network is measured like any other
    g = QuotientGraph.from_edges(2, 2, [(0, 0, (1, 0)), (1, 1, (0, 1)), (0, 1, (0, 0))])
    net = PeriodicNetwork(g, Lattice(np.eye(2)), np.array([[0.0, 0.0], [0.5, 0.3]]))
    rep = verify(net)
    assert rep.applicable and rep.theorem == "degree-floor" and rep.topology == "D1,1"
    assert rep.bound == bound_dipole(2)
    assert rep.slack == length_quotient(net) - bound_dipole(2) > 0
    assert rep.note == "no balanced realization: cut edge 2"
    # a bridgeless network of the same degree keeps an empty note
    assert verify(catalog("hcb")[0]).note == ""


def test_dipole5_sqp():
    net, _ = catalog("sqp")
    lam, vol = dipole5_coefficients(net)
    assert lam == (-1, 1, 1)
    assert vol == pytest.approx(-225.0 / 64.0, rel=1e-13)


def test_dipole5_modified_shift():
    net, _ = catalog("sqp")
    g = net.graph
    shifts = np.array(g.shifts)
    shifts[4] = [1, 1, 1]
    mod = PeriodicNetwork(QuotientGraph(3, 2, g.tails, g.heads, shifts),
                          net.lattice, net.positions)
    lam, _ = dipole5_coefficients(mod)
    assert lam == (1, 1, 1)


def test_dipole5_generator_permutation_invariant():
    net, _ = catalog("sqp")
    g = net.graph
    order = [0, 2, 3, 1, 4]
    perm = QuotientGraph(3, 2, g.tails[order], g.heads[order], g.shifts[order])
    lam, _ = dipole5_coefficients(PeriodicNetwork(perm, net.lattice,
                                                  net.positions))
    assert lam == (-1, 1, 1)


def test_dipole5_wrong_topology():
    with pytest.raises(ValueError):
        dipole5_coefficients(catalog("dia")[0])


def test_import_leaves_scipy_spatial_out():
    # scipy.spatial serves only the pyramid base volume and is imported there
    import perinet

    src = os.path.dirname(os.path.dirname(perinet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, perinet; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_dipole5_coefficients_on_rewritten_copies():
    # the coefficients as the Cramer's-rule solve gave them, with their
    # generator triple found on the rewritten shifts of each copy
    net, _ = catalog("sqp")
    rng = np.random.default_rng(31)
    got = [dipole5_coefficients(net)[0]]
    got += [dipole5_coefficients(_rewritten(net, rng))[0] for _ in range(8)]
    assert got == [(-1, 1, 1), (-1, 1, 1), (-1, 0, 1), (-1, 1, 1), (-1, 1, 1),
                   (-1, 0, 1), (-1, 1, 1), (-1, 0, 1), (0, 1, 1)]
    assert all(type(x) is int for lam in got for x in lam)


def test_bound_report_json_key_order():
    keys = ["applicable", "theorem", "bound", "bound_expr", "measured", "slack",
            "strict", "sharp", "topology", "equality_certificate", "note"]
    at_bound = verify(catalog("dia")[0]).to_json()
    assert list(at_bound) == keys
    assert list(at_bound["equality_certificate"]) == ["name", "passed", "checks"]
    invalid = verify(with_positions(catalog("dia")[0], np.zeros((2, 3)))).to_json()
    assert list(invalid) == keys and invalid["equality_certificate"] is None


# ---------------------------------------------------------------------------
# the equality certificates against their first numpy formulas


def _ref_star(net, vecs, v):
    edges, sign, loops = netcore.oriented_star(net.graph, v)
    return sign[:, None] * vecs[edges], vecs[loops]


def _ref_simplex_checks(star):
    n = star.shape[1]
    r = np.linalg.norm(star, axis=1)
    units = star / r[:, None]
    off = (units @ units.T)[~np.eye(len(star), dtype=bool)]
    return {
        "equal_edge_lengths": float(r.max() - r.min()) <= bounds.CERT_TOL * r.mean(),
        "simplex_angles": float(np.abs(off + 1.0 / n).max()) <= bounds.CERT_TOL,
    }


def _ref_regular_simplex(net, vecs):
    star, _ = _ref_star(net, vecs, 0)
    checks = _ref_simplex_checks(star)
    if net.dim == 3:
        vol = abs(float(np.linalg.det(net.lattice.basis)))
        checks["fcc_lattice"] = (abs(abs(float(np.linalg.det(star[1:] - star[0]))) - vol)
                                 <= bounds.CERT_TOL * vol)
    return checks


def _ref_cds_family(net, vecs):
    tol = bounds.CERT_TOL
    bridges, loops0 = _ref_star(net, vecs, 0)
    _, loops1 = _ref_star(net, vecs, 1)
    a, b = loops0[0], loops1[0]
    axis = bridges[0] - bridges[1]
    x1, x2 = np.linalg.norm(a), np.linalg.norm(b)
    x34 = np.linalg.norm(bridges[0]) + np.linalg.norm(bridges[1])
    scale = max(x1, x2, x34)
    dirs = np.array([a / x1, b / x2, axis / np.linalg.norm(axis)])
    gram = np.abs(dirs @ dirs.T - np.eye(3))
    return {
        "x1_eq_x2": abs(x1 - x2) <= tol * scale,
        "x1_eq_x3_plus_x4": abs(x1 - x34) <= tol * scale,
        "collinear_bridges": abs(np.linalg.norm(axis) - x34) <= tol * scale,
        "orthogonal_axes": float(gram.max()) <= tol,
        "equal_generators": abs(np.linalg.norm(axis) - x1) <= tol * scale,
    }


def _ref_bnn(net, vecs):
    tol = bounds.CERT_TOL
    bridges, loops0 = _ref_star(net, vecs, 0)
    _, loops1 = _ref_star(net, vecs, 1)
    x = np.linalg.norm(bridges, axis=1)
    y, z = float(np.linalg.norm(loops0[0])), float(np.linalg.norm(loops1[0]))
    normal = np.cross(bridges[0], bridges[1])
    normal /= np.linalg.norm(normal)
    return {
        "equal_bridges": float(x.max() - x.min()) <= tol * x.mean(),
        "coplanar_bridges": abs(float(bridges[2] @ normal)) <= tol * x.mean(),
        "loop_relation": abs(2 * y + 2 * z - 3 * x.mean()) <= tol * x.mean(),
        "equal_loops": abs(y - z) <= tol * x.mean(),
        "loops_perpendicular": max(abs(abs(float(loops0[0] @ normal)) - y),
                                   abs(abs(float(loops1[0] @ normal)) - z)) <= tol * x.mean(),
    }


def _ref_primitive(net, vecs):
    gram = vecs @ vecs.T
    norms = np.sqrt(np.diag(gram))
    off = gram[~np.eye(len(vecs), dtype=bool)]
    return {
        "equal_lengths": float(norms.max() - norms.min()) <= bounds.CERT_TOL * norms.mean(),
        "orthogonal": float(np.abs(off).max()) <= bounds.CERT_TOL * norms.mean() ** 2,
    }


def _ref_sqp(net, vecs):
    tol = bounds.CERT_TOL
    star, _ = _ref_star(net, vecs, 0)
    r = np.linalg.norm(star, axis=1)
    apex = int(np.argmax(r))
    base = np.delete(star, apex, axis=0)
    x0, xb = float(r[apex]), np.delete(r, apex)
    centroid = base.mean(axis=0)
    rel = base - centroid
    normal = np.linalg.svd(rel)[2][-1]
    h = abs(float(centroid @ normal))
    apex_h = abs(float((star[apex] - centroid) @ normal))
    L = float(r.sum())
    dist = np.sort(np.linalg.norm(base[:, None, :] - base[None, :, :], axis=2)[np.triu_indices(4, 1)])
    return {
        "equal_base_edges": float(xb.max() - xb.min()) <= tol * xb.mean(),
        "base_coplanar": abs(rel @ normal).max() <= tol * xb.mean(),
        "base_ratio": abs(xb.mean() - 8.0 / 13.0 * x0) <= tol * xb.mean(),
        "probe_height": abs(h - xb.mean() / 4) <= tol * xb.mean(),
        "apex_height_L_over_3": abs(apex_h - L / 3) <= tol * L,
        "square_base": abs(dist[:4].mean() * math.sqrt(2) - dist[4:].mean()) <= tol * dist.mean(),
    }


REFERENCE_CERTIFICATES = {
    bounds._cert_regular_simplex: _ref_regular_simplex, bounds._cert_cds_family: _ref_cds_family,
    bounds._cert_bnn: _ref_bnn, bounds._cert_primitive: _ref_primitive, bounds._cert_sqp: _ref_sqp,
}


@pytest.mark.parametrize("name,params", SHARP_CATALOG,
                         ids=[name for name, _ in SHARP_CATALOG])
def test_certificates_match_their_numpy_formulas(name, params):
    # 40 rewrites, each as it is and with its positions and basis perturbed
    # at 1e-8, 1e-6 and 1e-4: the last two straddle CERT_TOL, so checks fail
    net, _ = catalog(name, **params)
    top = bounds.classify(net.graph)
    build = bounds._select_bound(net.dim, top.degree, top)[5]
    reference = REFERENCE_CERTIFICATES[build]
    rng = np.random.default_rng(sum(map(ord, name)) + 7)
    failed = {eps: 0 for eps in (0.0, 1e-8, 1e-6, 1e-4)}
    for _ in range(40):
        m = _rewritten(net, rng)
        for eps in failed:
            moved = PeriodicNetwork(
                m.graph, Lattice(m.lattice.basis + eps * rng.normal(size=(net.dim, net.dim))),
                m.positions + eps * rng.normal(size=m.positions.shape))
            vecs = edge_vectors(moved)
            cert = build(moved, vecs)
            want = {k: bool(v) for k, v in reference(moved, vecs).items()}
            assert cert.checks == want, (eps, cert.checks, want)
            assert cert.passed == all(want.values())
            failed[eps] += not cert.passed
    assert failed[0.0] == 0 < failed[1e-4]


def _two_vertex(edges, x1):
    g = QuotientGraph.from_edges(3, 2, edges)
    return PeriodicNetwork(g, Lattice(np.eye(3)), np.array([[0.0, 0.0, 0.0], x1]))


DEGENERATE_STARS = {
    # the first two bridges antiparallel: their cross product is zero
    "bnn": (bounds._cert_bnn,
            _two_vertex([(0, 1, (1, 0, 0)), (0, 1, (-1, 0, 0)), (0, 1, (0, 1, 0)),
                         (0, 0, (0, 0, 1)), (1, 1, (0, 0, 1))], [0.0, 0.0, 0.0])),
    # coincident bridges: the bridge-cycle axis is zero
    "cds": (bounds._cert_cds_family,
            _two_vertex([(0, 0, (1, 0, 0)), (1, 1, (0, 1, 0)), (0, 1, (0, 0, 0)),
                         (0, 1, (0, 0, 0))], [0.0, 0.0, 0.5])),
    # the four base vectors on one line, the fifth the longest
    "sqp": (bounds._cert_sqp,
            _two_vertex([(0, 1, (k, 0, 0)) for k in range(4)] + [(0, 1, (0, 0, 5))],
                        [0.0, 0.3, 0.2])),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_STARS))
def test_certificate_on_a_degenerate_star_fails_quietly(case):
    build, net = DEGENERATE_STARS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = build(net, edge_vectors(net))
    assert cert.passed is False


@pytest.mark.parametrize("name,params", SHARP_CATALOG,
                         ids=[name for name, _ in SHARP_CATALOG])
def test_stress_bound_closes_at_the_minimizer_and_bounds_every_realization(name, params):
    # a minimizer's edge directions are a balanced stress, so its bound is its
    # value; any other network of the same shifts is bounded by its own
    # stress, and a rewritten presentation leaves the bound where it was
    net, _ = catalog(name, **params)
    value = length_quotient(net)
    rep = stress_bound(net)
    assert abs(rep.gap) <= 1e-12 * value and rep.bound + rep.gap == pytest.approx(value)
    assert stress_bound(_rewritten(net, np.random.default_rng(5))).bound == \
        pytest.approx(rep.bound, rel=1e-12)
    for seed in range(20):
        other = stress_bound(random_network(net.graph, seed=seed))
        assert 0 <= other.bound and other.gap > 0


def test_stress_bound_refuses_a_zero_length_edge():
    net, _ = catalog("dia")
    g, B = net.graph, net.lattice.basis
    X = net.positions.copy()
    X[1] = X[0] - B @ g.shifts[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="zero-length edge 0"):
            stress_bound(PeriodicNetwork(g, net.lattice, X))
