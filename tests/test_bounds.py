import math

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
    dipole5_coefficients,
    length_quotient,
    monotonicity_table,
    verify,
    with_positions,
)
from perinet.construct import regular_simplex_vertices
from perinet.netcore import Lattice, QuotientGraph


def test_bound_dipole_values():
    assert bound_dipole(3) == pytest.approx(12 * math.sqrt(3), rel=1e-15)
    assert bound_dipole(2) == pytest.approx(2 * math.sqrt(3), rel=1e-15)
    assert bound_dipole(4) == pytest.approx(math.sqrt(125 * 256), rel=1e-15)
    # cross-check against the simplex catalog network
    assert bound_dipole(4) == pytest.approx(
        length_quotient(catalog("simplex_net", n=4)[0]), rel=1e-12)
    with pytest.raises(ValueError):
        bound_dipole(1)


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
    cert = _cert_regular_simplex(twin)
    assert cert.checks["equal_edge_lengths"] and cert.checks["simplex_angles"]
    assert not cert.checks["fcc_lattice"] and not cert.passed
    rep = verify(twin)
    assert rep.equality_certificate is None or not rep.equality_certificate.passed


# ---------------------------------------------------------------------------
# integer coefficients for D5


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
