import math

import numpy as np
import pytest

from perinet import (
    Lattice,
    OptimizeConfig,
    PeriodicNetwork,
    QuotientGraph,
    catalog,
    length_quotient,
    minimize_fixed_shifts,
    minimize_topology,
    objective_and_gradient,
    random_network,
    validate,
)
from perinet.balance import force, force_all
from perinet.optimize import _Batch, _sample_starts


def dia_graph():
    return QuotientGraph.from_edges(3, 2, [(0, 1, (0, 0, 0)), (0, 1, (-1, 0, 0)),
                                           (0, 1, (0, -1, 0)), (0, 1, (0, 0, -1))])


def b3_graph():
    return QuotientGraph.from_edges(3, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 1, 0)),
                                           (0, 0, (0, 0, 1))])


def test_random_network_valid_and_deterministic():
    g = dia_graph()
    a = random_network(g, seed=4)
    b = random_network(g, seed=4)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.lattice.basis, b.lattice.basis)
    rep = validate(a)
    assert rep.ok, rep.violations
    c = random_network(g, seed=5)
    assert not np.array_equal(a.positions, c.positions)


def test_random_network_det_floor():
    g = b3_graph()
    for seed in range(1000):
        net = random_network(g, seed=seed)
        assert abs(np.linalg.det(net.lattice.basis)) > 0.1


def test_objective_value_matches_measures():
    net = random_network(dia_graph(), seed=1)
    f, _, _ = objective_and_gradient(net)
    assert math.exp(f) == pytest.approx(length_quotient(net), rel=1e-12)


def test_position_gradient_is_scaled_force():
    net = random_network(dia_graph(), seed=2)
    f, gX, _ = objective_and_gradient(net)
    from perinet.netcore import length
    L = length(net)
    n = net.dim
    for v in range(1, net.graph.vertex_count):
        assert np.allclose(gX[v], (n / L) * force(net, v), atol=1e-13)


def test_gradients_match_finite_differences():
    # central differences on positions and basis entries, 50 random networks
    step = 1e-6
    count = 0
    for name, params in [("dia", {}), ("bnn", {}), ("sqp", {}), ("cds", {"t": 0.5})]:
        g = catalog(name, **params)[0].graph
        for seed in range(13):
            if count >= 50:
                break
            net = random_network(g, seed=seed)
            f0, gX, gB = objective_and_gradient(net)
            V, n = net.graph.vertex_count, net.dim
            fd_X = np.zeros_like(gX)
            for v in range(V):
                for i in range(n):
                    for sgn in (1, -1):
                        pos = np.array(net.positions)
                        pos[v, i] += sgn * step
                        fp, _, _ = objective_and_gradient(
                            PeriodicNetwork(net.graph, net.lattice, pos))
                        fd_X[v, i] += sgn * fp / (2 * step)
            fd_X[0] = 0.0
            fd_B = np.zeros_like(gB)
            for i in range(n):
                for j in range(n):
                    for sgn in (1, -1):
                        bas = np.array(net.lattice.basis)
                        bas[i, j] += sgn * step
                        fp, _, _ = objective_and_gradient(
                            PeriodicNetwork(net.graph, Lattice(bas), net.positions))
                        fd_B[i, j] += sgn * fp / (2 * step)
            assert np.abs(fd_X - gX).max() <= 1e-5
            assert np.abs(fd_B - gB).max() <= 1e-5
            count += 1
    assert count == 50


def test_minimize_fixed_shifts_dia():
    res = minimize_fixed_shifts(dia_graph(), OptimizeConfig(seed=3, restarts=12))
    assert res.value == pytest.approx(12 * math.sqrt(3), rel=1e-6)
    assert res.termination == "converged"
    assert force_all(res.network).max_norm <= 1e-9
    assert validate(res.network).ok


def test_minimize_fixed_shifts_bouquet():
    res = minimize_fixed_shifts(b3_graph(), OptimizeConfig(seed=1, restarts=8))
    assert res.value == pytest.approx(27.0, rel=1e-9)


def test_minimize_fixed_shifts_sqp_pattern():
    g = QuotientGraph.from_edges(3, 2, [(0, 1, (0, 0, 0)), (0, 1, (1, 0, 0)),
                                        (0, 1, (0, 1, 0)), (0, 1, (0, 0, 1)),
                                        (0, 1, (1, -1, 1))])
    res = minimize_fixed_shifts(g, OptimizeConfig(seed=6, restarts=12))
    assert res.value == pytest.approx(405.0 / 8.0, rel=1e-4)


def test_optimized_dia_matches_equality_certificate():
    from perinet import verify
    res = minimize_fixed_shifts(dia_graph(), OptimizeConfig(seed=0, restarts=10))
    rep = verify(res.network)
    assert rep.applicable and abs(rep.slack) <= 1e-8
    assert rep.equality_certificate is not None
    assert rep.equality_certificate.passed, rep.equality_certificate.checks


def test_minimize_fixed_shifts_traces_and_best():
    cfg = OptimizeConfig(seed=9, restarts=10)
    res = minimize_fixed_shifts(dia_graph(), cfg)
    assert len(res.traces) == 10
    finals = res.traces.final_value
    assert res.value <= finals.min() + 1e-12
    rec = res.traces.record(res.restart_index)
    assert rec["final_value"] == pytest.approx(res.value)
    assert rec["termination"] in ("converged", "max_iter", "collapsed_edge",
                                  "degenerate_lattice")


def test_minimize_fixed_shifts_rejects_bad_graph():
    g = QuotientGraph.from_edges(3, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 1, 0)),
                                        (0, 0, (1, 1, 0))])
    with pytest.raises(ValueError, match="rank"):
        minimize_fixed_shifts(g)


def test_minimize_fixed_shifts_descent_monotone():
    # the per-step check lives in the engine; drive it one step per run here
    g = dia_graph()
    cfg = OptimizeConfig(seed=2, restarts=4, max_iter=1)
    S = np.broadcast_to(g.shifts, (4,) + g.shifts.shape)
    rng = np.random.default_rng(0)
    B, X = _sample_starts(rng, 4, 3, 2, g.tails, g.heads, S)
    batch = _Batch(3, g.tails, g.heads, S, B, X, cfg)
    f_prev = batch.f.copy()
    for _ in range(60):
        batch.run()
        alive = batch.status == 0
        assert (batch.f[alive] <= f_prev[alive] + 1e-11).all()
        f_prev = batch.f.copy()


def test_engine_detects_edge_collapse():
    # a cds network with a nearly collapsed bridge trips the edge floor
    net, _ = catalog("cds", t=0.01)
    g = net.graph
    cfg = OptimizeConfig(seed=0, restarts=1, eps_edge=0.1, max_iter=50)
    S = g.shifts[None, :, :]
    batch = _Batch(3, g.tails, g.heads, S, net.lattice.basis[None],
                   net.positions[None], cfg)
    batch.run()
    assert batch.status[0] == 2


def test_minimize_topology_deterministic():
    cfg = OptimizeConfig(seed=11)
    a = minimize_topology("D3", 2, cfg)
    b = minimize_topology("D3", 2, cfg)
    assert a.value == b.value
    assert np.array_equal(a.traces.final_value, b.traces.final_value)
    assert np.array_equal(a.network.positions, b.network.positions)
    assert a.assignment_index == b.assignment_index
    assert a.restart_index == b.restart_index


def test_minimize_topology_inadmissible():
    with pytest.raises(ValueError, match="admissible"):
        minimize_topology("B2", 3)   # rank 2 < 3
    with pytest.raises(ValueError, match="admissible"):
        minimize_topology("D1,2", 2)  # degree 4 = 2n has the bouquet instead


def test_minimize_topology_respects_bound():
    from perinet import bound_dipole
    cfg = OptimizeConfig(seed=5, restarts=6)
    res = minimize_topology("D3", 2, cfg)
    finite = res.traces.final_value[np.isfinite(res.traces.final_value)]
    assert (finite >= bound_dipole(2) - 1e-6).all()
    assert res.value >= bound_dipole(2) - 1e-9


def test_minimize_topology_result_invariants():
    # D4 is one orbit, so restarts=5 gives the 5 trace records read below
    cfg = OptimizeConfig(seed=1, restarts=5)
    res = minimize_topology("D4", 3, cfg)
    finite = res.traces.final_value[np.isfinite(res.traces.final_value)]
    assert res.value <= finite.min() + 1e-9
    assert validate(res.network).ok
    if res.termination == "converged":
        assert force_all(res.network).max_norm <= cfg.g_tol * 10
    assert res.shifts.shape == (4, 3)
    records = res.traces.to_json_records(limit=5)
    assert len(records) == 5 and {"assignment", "restart", "final_value",
                                  "iterations", "termination"} <= records[0].keys()


def test_minimize_topology_across_batches(monkeypatch):
    # D5 in R^3 has 30 orbits; batches of 2 put its 60 instances in 30
    # batches, and the sharp value 405/8 lies on the second orbit
    from perinet import optimize
    from perinet.topology import build_abstract, enumerate_shift_arrays

    monkeypatch.setattr(optimize, "_CHUNK", 2)
    res = minimize_topology("D5", 3, OptimizeConfig(seed=3, restarts=2))
    t = res.traces
    assert len(t) == 60 and len(set(t.assignment_index.tolist())) == 30
    assert res.value == pytest.approx(405.0 / 8.0, rel=1e-9)
    finite = t.final_value[np.isfinite(t.final_value)]
    assert res.value <= finite.min() + 1e-9
    assert length_quotient(res.network) == pytest.approx(res.value, rel=1e-12)
    i = np.flatnonzero((t.assignment_index == res.assignment_index)
                       & (t.restart_index == res.restart_index))
    assert len(i) == 1 and i[0] >= 2 and t.final_value[i[0]] == res.value
    arrays = enumerate_shift_arrays(build_abstract("D5", 3), 3, 1)
    assert np.array_equal(res.shifts, arrays[res.assignment_index])


def test_minimize_topology_b4_strictly_above_even_bound():
    # the even-degree bound (d/2 - n + 1) n^n is strict for d > 2n; the
    # actual degree-8 bouquet minimum is the hexagonal-prism value
    # 81 sqrt(3) / 2, well above the bound 54
    res = minimize_topology("B4", 3, OptimizeConfig(seed=0, restarts=20))
    assert res.value > 54.0 + 10.0
    assert res.value == pytest.approx(81 * math.sqrt(3) / 2, rel=1e-6)


def test_scale_gauge_exactness():
    # the engine renormalizes to det +-1 each step; the objective value of
    # the scaled state equals the unscaled one to near machine precision
    net = random_network(dia_graph(), seed=8)
    f0, _, _ = objective_and_gradient(net)
    c = abs(np.linalg.det(net.lattice.basis)) ** (-1.0 / 3.0)
    scaled_net = PeriodicNetwork(net.graph, Lattice(net.lattice.basis * c),
                                 net.positions * c)
    f1, _, _ = objective_and_gradient(scaled_net)
    assert abs(f1 - f0) <= 1e-12 * max(1.0, abs(f0))
