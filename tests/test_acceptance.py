"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings; every tolerance is fixed here, nothing is calibrated elsewhere.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from perinet import (
    OptimizeConfig,
    PyramidInstance,
    QuotientGraph,
    bound_degree3d,
    bound_even,
    catalog,
    check_pyramid,
    check_simplex,
    classify,
    construct_bouquet,
    construct_even_two_vertex,
    construct_odd,
    edge_vectors,
    geometric_median,
    is_balanced,
    length,
    length_quotient,
    minimize_fixed_shifts,
    minimize_topology,
    objective_and_gradient,
    random_network,
    rebalance_vertex,
    validate,
    volume,
)
from perinet import optimize
from perinet.construct import regular_simplex_vertices
from perinet.io import export_obj, network_from_json, network_to_json
from perinet.netcore import Lattice, PeriodicNetwork
from perinet.topology import build_abstract, enumerate_shift_arrays


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  ({label})")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d}: PASS  ({label}; {elapsed:.1f}s of {budget_seconds}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_catalog_exact_values():
    with criterion(1, "exact catalog length quotients", 1.0):
        cases = [("dia", {}, 12 * math.sqrt(3)), ("bnn", {}, 27 * math.sqrt(3)),
                 ("sqp", {}, 405.0 / 8.0), ("hcb", {}, 2 * math.sqrt(3))]
        cases += [("cds", {"t": t}, 27.0) for t in np.arange(0.1, 0.95, 0.1)]
        cases += [("pcu", {"n": n}, float(n) ** n) for n in range(2, 7)]
        cases += [("simplex_net", {"n": n},
                   math.sqrt((n + 1) ** (n - 1) * float(n) ** n))
                  for n in range(2, 7)]
        for name, params, expected in cases:
            net, _ = catalog(name, **params)
            got = length_quotient(net)
            assert abs(got - expected) <= 1e-9 * expected, (name, params, got)


def test_criterion_2_summary_table(capsys):
    with criterion(2, "summary table cube roots", 1.0):
        from perinet.cli import run
        assert run(["table", "--dim", "3"]) == 0
        out = capsys.readouterr().out
        with capsys.disabled():
            expected = {"dia": 2.75, "cds": 3.00, "bnn": 3.60, "sqp": 3.70,
                        "pcu": 3.00}
            seen = {}
            for line in out.splitlines()[1:]:
                parts = line.split()
                seen[parts[0]] = float(parts[2])
            for name, root in expected.items():
                assert abs(seen[name] - root) <= 0.01, (name, seen[name])


RECOVERY = [
    ("D4", 3, 12 * math.sqrt(3), 1e-4),
    ("D1,2", 3, 27.0, 1e-4),
    ("D1,3", 3, 27 * math.sqrt(3), 1e-3),
    ("D5", 3, 405.0 / 8.0, 1e-3),
    ("B3", 3, 27.0, 1e-6),
    ("D3", 2, 2 * math.sqrt(3), 1e-4),
    ("D5", 4, math.sqrt(32000), 1e-4),     # simplex_net(4)
    ("B4", 4, 256.0, 1e-6),                # pcu(4)
]


@pytest.mark.parametrize("tag,dim,target,tol", RECOVERY,
                         ids=[f"{t}-n{n}" for t, n, _, _ in RECOVERY])
def test_criterion_3_optimizer_recovery(tag, dim, target, tol):
    with criterion(3, f"optimizer recovery {tag} in dimension {dim}", 60.0):
        result = minimize_topology(tag, dim, OptimizeConfig(seed=2024))
        assert abs(result.value - target) <= tol * target, \
            (tag, result.value, target)
        rep = validate(result.network)
        assert rep.ok, rep.violations
        if tag == "D1,2":
            # equality-family structure: x1 = x2 = x3 + x4
            g = result.network.graph
            vecs = edge_vectors(result.network)
            ell = np.linalg.norm(vecs, axis=1)
            loops = [ell[e] for e in range(g.edge_count)
                     if g.tails[e] == g.heads[e]]
            bridges = [ell[e] for e in range(g.edge_count)
                       if g.tails[e] != g.heads[e]]
            x1, x2 = loops
            x34 = sum(bridges)
            scale = max(x1, x2, x34)
            assert abs(x1 - x2) <= 1e-3 * scale
            assert abs(x1 - x34) <= 1e-3 * scale


def _balanced_random_network(assignments, skeleton, rng, seed):
    S = assignments[int(rng.integers(0, len(assignments)))]
    g = QuotientGraph(skeleton.dim, skeleton.vertex_count, skeleton.tails,
                      skeleton.heads, S)
    net = random_network(g, seed=seed)
    if g.vertex_count == 2:
        net, degenerate = rebalance_vertex(net, 1)
        if degenerate:
            return None
    return net


def test_criterion_4_bound_soundness_sweep(monkeypatch):
    with criterion(4, "bound soundness on random balanced networks", 300.0):
        topologies = [("D4", 4), ("D1,2", 4), ("D5", 5), ("D1,3", 5), ("B3", 6)]
        for tag, degree in topologies:
            skeleton = build_abstract(tag, 3)
            assignments = enumerate_shift_arrays(skeleton, 3, 1)
            bound = bound_degree3d(degree, tag)
            rng = np.random.default_rng(99)
            produced = 0
            seed = 0
            while produced < 1000:
                net = _balanced_random_network(assignments, skeleton, rng, seed)
                seed += 1
                if net is None:
                    continue
                produced += 1
                assert is_balanced(net, 1e-7)
                assert length_quotient(net) >= bound - 1e-9, (tag, seed)
            # full optimization convergence and partial-run snapshots
            g = QuotientGraph(3, skeleton.vertex_count, skeleton.tails,
                              skeleton.heads, assignments[0])
            for max_iter in (3, 12, 50, 50_000):
                monkeypatch.setattr(optimize, "_MAX_ITER", max_iter)
                res = minimize_fixed_shifts(g, OptimizeConfig(seed=17))
                assert res.value >= bound - 1e-9, (tag, max_iter, res.value)
                finite = res.traces.final_value[
                    np.isfinite(res.traces.final_value)]
                assert (finite >= bound - 1e-9).all()


def test_criterion_5_pyramid_property_suite():
    with criterion(5, "pyramid estimate on random instances", 10.0):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(n, n + 4))
            inst = PyramidInstance.random(rng, n, k)
            chk = check_pyramid(inst)
            assert chk.holds, (n, k, chk)
        rho = math.sqrt(15) / 4
        base = np.array([[rho, 0, -0.25], [0, rho, -0.25],
                         [-rho, 0, -0.25], [0, -rho, -0.25]])
        inst = PyramidInstance(apex=np.array([0.0, 0.0, 13.0 / 8.0]),
                               base=base, probe=np.zeros(3))
        chk = check_pyramid(inst)
        assert chk.equality
        assert abs(chk.lhs - chk.rhs) <= 1e-9 * chk.rhs


def test_criterion_6_simplex_property_suite():
    with criterion(6, "simplex estimate on random instances", 10.0):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            done = 0
            while done < 500:
                pts = rng.normal(size=(n + 1, n))
                try:
                    chk = check_simplex(pts)
                except ValueError:
                    continue
                done += 1
                assert chk.holds
            reg = check_simplex(regular_simplex_vertices(n))
            assert reg.equality
            assert abs(reg.lhs - reg.rhs) <= 1e-10 * reg.rhs


def test_criterion_7_gradients_and_weiszfeld():
    with criterion(7, "finite-difference gradients, Weiszfeld descent", 30.0):
        step = 1e-6
        graphs = [catalog(nm, **pr)[0].graph
                  for nm, pr in [("dia", {}), ("bnn", {}), ("sqp", {}),
                                 ("cds", {"t": 0.5}), ("pcu", {"n": 3})]]
        count = 0
        while count < 50:
            g = graphs[count % len(graphs)]
            net = random_network(g, seed=1000 + count)
            f0, gX, gB = objective_and_gradient(net)
            err = 0.0
            for v in range(g.vertex_count):
                for i in range(3):
                    pos = np.array(net.positions)
                    pos[v, i] += step
                    fp, _, _ = objective_and_gradient(
                        PeriodicNetwork(net.graph, net.lattice, pos))
                    pos[v, i] -= 2 * step
                    fm, _, _ = objective_and_gradient(
                        PeriodicNetwork(net.graph, net.lattice, pos))
                    fd = (fp - fm) / (2 * step)
                    if v != 0:
                        err = max(err, abs(fd - gX[v, i]))
            for i in range(3):
                for j in range(3):
                    bas = np.array(net.lattice.basis)
                    bas[i, j] += step
                    fp, _, _ = objective_and_gradient(
                        PeriodicNetwork(net.graph, Lattice(bas), net.positions))
                    bas[i, j] -= 2 * step
                    fm, _, _ = objective_and_gradient(
                        PeriodicNetwork(net.graph, Lattice(bas), net.positions))
                    err = max(err, abs((fp - fm) / (2 * step) - gB[i, j]))
            assert err <= 1e-5, (count, err)
            count += 1
        # Weiszfeld: objective non-increasing on 200 random point sets
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(3, 10))
            dim = int(rng.integers(2, 5))
            pts = rng.normal(size=(m, dim)) * rng.uniform(0.3, 3.0)
            objs = []
            geometric_median(pts, on_step=lambda _, o: objs.append(o))
            assert all(b <= a * (1 + 1e-12) + 1e-15
                       for a, b in zip(objs, objs[1:]))


def test_criterion_8_construction_grid():
    with criterion(8, "balanced constructions for every (n, d)", 30.0):
        for n in (2, 3, 4, 5):
            lat = Lattice(np.eye(n))
            for d in range(n + 1, 2 * n + 4):
                builds = []
                if d % 2 == 1:
                    builds.append((construct_odd(n, d, lat),
                                   f"D{(d - 3) // 2},3" if d > 3 else "D3"))
                else:
                    builds.append((construct_even_two_vertex(n, d, lat, 0.3),
                                   f"D{d // 2 - 1},2"))
                    if d >= 2 * n:
                        builds.append((construct_bouquet(n, d, lat), f"B{d // 2}"))
                for net, want in builds:
                    rep = validate(net)
                    assert rep.ok, (n, d, rep.violations)
                    assert is_balanced(net, 1e-9), (n, d)
                    assert classify(net.graph).tag == want, (n, d, want)


def test_criterion_9_monotonicity_and_order():
    with criterion(9, "even-degree monotonicity and bound ordering", 1.0):
        for n in range(2, 7):
            values = [bound_even(n, d) for d in range(2 * n, 2 * n + 11, 2)]
            assert all(b > a for a, b in zip(values, values[1:]))
        order = [12 * math.sqrt(3), 27.0, 27 * math.sqrt(3), 405.0 / 8.0, 54.0]
        assert order == sorted(order) and len(set(order)) == 5


def test_criterion_10_format_round_trips(tmp_path):
    with criterion(10, "JSON round-trip and OBJ export", 1.0):
        for name, params in [("dia", {}), ("bnn", {}), ("sqp", {}),
                             ("cds", {"t": 0.2})]:
            net, _ = catalog(name, **params)
            back = network_from_json(network_to_json(net))
            assert abs(length(back) - length(net)) <= 1e-12 * length(net)
            assert abs(volume(back) - volume(net)) <= 1e-12 * volume(net)
        net, _ = catalog("pcu", n=3)
        path = tmp_path / "pcu.obj"
        export_obj(net, str(path), cells=2)
        lines = [l for l in path.read_text().splitlines()]
        records = [l for l in lines if l.startswith("l ")]
        assert len(records) == 3 * 8
        for l in lines:
            if l.startswith("v "):
                assert all(abs(float(x) - round(float(x))) <= 1e-12
                           for x in l.split()[1:])
