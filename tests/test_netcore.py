import dataclasses
import gc
import math
import sys
import threading
import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from perinet import (
    CATALOG_NAMES,
    DIRECTION_TOL,
    Lattice,
    PeriodicNetwork,
    QuotientGraph,
    catalog,
    classify,
    edge_vector,
    edge_vectors,
    edge_lengths,
    force,
    force_all,
    is_balanced,
    length,
    length_quotient,
    random_network,
    rebalance_vertex,
    scaled,
    validate,
    verify,
    volume,
)
from perinet import balance, bounds, netcore, optimize
from perinet.intlinalg import smith_invariant_factors
from perinet.netcore import (
    ValidityReport,
    edge_norms,
    incidence,
    lifted_edges,
    parallel_ends,
    vertex_forces,
)
from perinet.topology import TopologyClass, build_abstract, enumerate_shift_arrays
from test_bounds import SHARP_CATALOG, _rewritten


def pcu3():
    return catalog("pcu", n=3)[0]


def test_edge_vector_pcu_loop():
    net = pcu3()
    assert np.allclose(edge_vector(net, 0), [1.0, 0.0, 0.0])


def test_edge_vector_dia_zero_shift():
    net, _ = catalog("dia")
    # positions (0,0,0) and (1/4,1/4,1/4), shift 0: plain difference
    assert np.allclose(edge_vector(net, 0), [0.25, 0.25, 0.25])


def test_edge_vector_cds_bridge():
    net, _ = catalog("cds", t=0.3)
    # bridge with shift (0,0,-1): (0,0,0.3) - (0,0,1) = (0,0,-0.7)
    vecs = [edge_vector(net, e) for e in range(4)]
    assert any(np.allclose(v, [0, 0, -0.7]) for v in vecs)


def test_edge_vector_unknown_id():
    net = pcu3()
    with pytest.raises(ValueError):
        edge_vector(net, 3)


def test_length_pcu():
    assert length(pcu3()) == pytest.approx(3.0, abs=0)


def test_length_dia():
    # four edges, each of length sqrt(3)/4 by direct arithmetic
    net, _ = catalog("dia")
    assert length(net) == pytest.approx(math.sqrt(3), rel=1e-15)
    assert np.allclose(edge_lengths(net), math.sqrt(3) / 4)


def test_length_bnn():
    # three unit bridges plus two loops of length 3/4
    net, _ = catalog("bnn")
    assert length(net) == pytest.approx(4.5, rel=1e-15)


def test_volume_pcu():
    assert volume(pcu3()) == pytest.approx(1.0, abs=0)


def test_volume_dia_fcc():
    net, _ = catalog("dia")
    expected = abs(np.linalg.det(np.array(
        [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]).T))
    assert expected == pytest.approx(0.25, rel=1e-15)
    assert volume(net) == pytest.approx(0.25, rel=1e-15)


def test_volume_sqp():
    net, _ = catalog("sqp")
    assert volume(net) == pytest.approx(225.0 / 64.0, rel=1e-14)


def test_quotients():
    assert length_quotient(catalog("dia")[0]) == pytest.approx(12 * math.sqrt(3), rel=1e-14)
    for t in (0.2, 0.5, 0.8):
        assert length_quotient(catalog("cds", t=t)[0]) == pytest.approx(27.0, rel=1e-14)
    assert length_quotient(catalog("sqp")[0]) == pytest.approx(50.625, rel=1e-14)


def test_zero_length_edge_raises():
    g = QuotientGraph.from_edges(2, 2, [(0, 1, (0, 0)), (0, 1, (1, 0)),
                                        (0, 1, (0, 1))])
    net = PeriodicNetwork(g, Lattice(np.eye(2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="zero-length"):
        length(net)


def test_singular_basis_raises():
    g = QuotientGraph.from_edges(2, 1, [(0, 0, (1, 0)), (0, 0, (0, 1))])
    net = PeriodicNetwork(g, Lattice(np.array([[1.0, 1.0], [1.0, 1.0]])),
                          np.zeros((1, 2)))
    with pytest.raises(ValueError, match="singular"):
        volume(net)


def test_singular_basis_is_a_violation():
    # a singular basis used to validate as ok and measure NaN as applicable
    net, _ = catalog("dia")
    columns = np.array([[1.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    flat = PeriodicNetwork(net.graph, Lattice(columns.T), net.positions)
    rep = validate(flat)
    assert rep.violations == ("singular lattice basis",)
    report = verify(flat)
    assert not report.applicable and report.slack is None
    assert report.note == "network fails validation: singular lattice basis"


def test_validate_pcu():
    rep = validate(pcu3())
    assert rep.ok and rep.degree == 6 and rep.cycle_rank == 3
    assert rep.lift_connected and rep.invariant_factors == (1, 1, 1)


def test_validate_doubled_shift_lift_disconnected():
    g = QuotientGraph.from_edges(3, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 1, 0)),
                                        (0, 0, (0, 0, 2))])
    net = PeriodicNetwork(g, Lattice(np.eye(3)), np.zeros((1, 3)))
    rep = validate(net)
    assert rep.rank_full
    assert not rep.lift_connected
    assert rep.invariant_factors == (1, 1, 2)
    assert not rep.ok


def test_validate_duplicate_edge_reported():
    net, _ = catalog("dia")
    g = net.graph
    shifts = np.array(g.shifts)
    shifts[1] = shifts[0]
    bad = PeriodicNetwork(QuotientGraph(3, 2, g.tails, g.heads, shifts),
                          net.lattice, net.positions)
    rep = validate(bad)
    assert not rep.simple
    assert any("duplicate" in v for v in rep.violations)


def test_validate_reversed_duplicate_reported():
    g = QuotientGraph.from_edges(2, 2, [(0, 1, (1, 0)), (1, 0, (-1, 0)),
                                        (0, 1, (0, 1))])
    net = PeriodicNetwork(g, Lattice(np.eye(2)),
                          np.array([[0.0, 0.0], [0.3, 0.2]]))
    assert not validate(net).simple


def test_validate_zero_shift_loop():
    g = QuotientGraph.from_edges(2, 1, [(0, 0, (0, 0)), (0, 0, (1, 0))])
    net = PeriodicNetwork(g, Lattice(np.eye(2)), np.zeros((1, 2)))
    rep = validate(net)
    assert any("zero shift" in v for v in rep.violations)


def test_validate_never_raises_on_junk():
    g = QuotientGraph.from_edges(2, 2, [(0, 1, (0, 0)), (0, 1, (0, 0)),
                                        (0, 0, (0, 0))])
    net = PeriodicNetwork(g, Lattice(np.zeros((2, 2))), np.zeros((2, 2)))
    rep = validate(net)
    assert not rep.ok


def test_immersion_violation_detected():
    # two loops along the same axis: lift stars overlap
    g = QuotientGraph.from_edges(2, 1, [(0, 0, (1, 0)), (0, 0, (2, 0))])
    net = PeriodicNetwork(g, Lattice(np.eye(2)), np.zeros((1, 2)))
    rep = validate(net)
    assert not rep.immersed


def test_scaling_invariance():
    rng = np.random.default_rng(5)
    for name in ("dia", "bnn", "sqp"):
        net, _ = catalog(name)
        q0 = length_quotient(net)
        for _ in range(5):
            c = float(rng.uniform(0.1, 10.0))
            q1 = length_quotient(scaled(net, c))
            assert abs(q1 - q0) <= 1e-12 * q0


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
def test_scale_factor_must_be_positive_and_finite(c):
    net, _ = catalog("dia")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="scale factor must be positive and finite"):
            scaled(net, c)


def test_shift_gauge_invariance():
    rng = np.random.default_rng(6)
    net, _ = catalog("bnn")
    g = net.graph
    for _ in range(10):
        v = int(rng.integers(0, g.vertex_count))
        k = rng.integers(-3, 4, size=3)
        positions = np.array(net.positions)
        positions[v] = positions[v] + net.lattice.basis @ k.astype(float)
        shifts = np.array(g.shifts)
        for e in range(g.edge_count):
            t, h = int(g.tails[e]), int(g.heads[e])
            if t == h:
                continue
            if t == v:
                shifts[e] += k
            if h == v:
                shifts[e] -= k
        moved = PeriodicNetwork(QuotientGraph(3, g.vertex_count, g.tails,
                                              g.heads, shifts),
                                net.lattice, positions)
        assert length(moved) == pytest.approx(length(net), rel=1e-12)
        assert volume(moved) == volume(net)
        assert length_quotient(moved) == pytest.approx(length_quotient(net), rel=1e-12)


def test_circuit_rank_relation_regular_graphs():
    # edges - vertices + 1 == 1 + (d/2 - 1) * vertices for d-regular graphs
    for name, params in [("pcu", {"n": 4}), ("dia", {}), ("bnn", {}),
                         ("sqp", {}), ("cds", {"t": 0.4}), ("hcb", {})]:
        g = catalog(name, **params)[0].graph
        d = int(g.degrees()[0])
        assert g.edge_count - g.vertex_count + 1 == 1 + (d / 2 - 1) * g.vertex_count


def test_lift_connected_implies_full_rank():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(100):
        rows = int(rng.integers(3, 7))
        n = int(rng.integers(2, 5))
        M = rng.integers(-2, 3, size=(rows, n))
        factors = smith_invariant_factors(M)
        if len(factors) == n and all(x == 1 for x in factors):
            hits += 1
            assert np.linalg.matrix_rank(M) == n
    assert hits > 10


def test_positions_are_immutable():
    net = pcu3()
    with pytest.raises(ValueError):
        net.positions[0, 0] = 5.0


# ---------------------------------------------------------------------------
# geometry kernel: one immersion predicate, and a network as a stack of one

def _reference_immersed(net):
    """The former per-vertex pair loop of ``validate``, on the former edge
    arithmetic: (immersed, first vertex with two parallel outgoing ends)."""
    g = net.graph
    vecs = (net.positions[g.heads] + g.shifts.astype(np.float64) @ net.lattice.basis.T
            - net.positions[g.tails])
    ell = np.linalg.norm(vecs, axis=1)
    for v in range(g.vertex_count):
        units = []
        for e in range(g.edge_count):
            if ell[e] == 0.0:
                continue
            u = vecs[e] / ell[e]
            if g.tails[e] == v:
                units.append(u)
            if g.heads[e] == v:
                units.append(-u)
        for i in range(len(units)):
            for j in range(i + 1, len(units)):
                if np.max(np.abs(units[i] - units[j])) < DIRECTION_TOL:
                    return False, v
    return True, None


def _assert_immersion_matches_reference(net):
    want, vertex = _reference_immersed(net)
    g = net.graph
    vec = edge_vectors(net)[None]
    pairs = netcore.end_pairs(g.tails, g.heads, g.vertex_count)
    flags = parallel_ends(vec, edge_norms(vec), pairs)[0]
    rep = validate(net)
    assert rep.immersed == want == (not flags.any())
    if not want:
        assert int(np.flatnonzero(flags)[0]) == vertex
        assert f"parallel outgoing edges at vertex {vertex}" in rep.violations
    return want


def _loop_pair(eps):
    # loops along b1 = (1, 0) and b2 = (1, eps): unit directions eps apart
    # in max norm up to O(eps^2), at both ends of each loop
    g = QuotientGraph.from_edges(2, 1, [(0, 0, (1, 0)), (0, 0, (0, 1))])
    return PeriodicNetwork(g, Lattice(np.array([[1.0, 1.0], [0.0, eps]])), np.zeros((1, 2)))


def test_immersion_matches_reference_on_catalog_and_rewrites():
    nets = [catalog(name, **params)[0] for name, params in SHARP_CATALOG]
    nets += [catalog(name, n=n)[0] for name in ("pcu", "cube_net", "simplex_net")
             for n in (2, 4, 5)]
    rng = np.random.default_rng(41)
    for net in nets:
        assert _assert_immersion_matches_reference(net)
        for _ in range(10):
            assert _assert_immersion_matches_reference(_rewritten(net, rng))


def test_immersion_matches_reference_on_random_networks():
    rng = np.random.default_rng(43)
    for tag in ("D4", "D1,2", "D5", "D1,3", "B3"):
        skeleton = build_abstract(tag, 3)
        shifts = enumerate_shift_arrays(skeleton, 3, 1)
        for _ in range(40):
            g = QuotientGraph(3, skeleton.vertex_count, skeleton.tails, skeleton.heads,
                              shifts[int(rng.integers(len(shifts)))])
            net = random_network(g, seed=int(rng.integers(1 << 62)))
            assert validate(net).immersed
            assert _assert_immersion_matches_reference(net)


def test_immersion_matches_reference_on_small_graphs():
    # arbitrary multigraphs: disconnected, non-regular, with loops, repeated
    # edges and zero-length edges; validate must not raise on any of them
    rng = np.random.default_rng(47)
    verdicts = set()
    for _ in range(300):
        V, E = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        g = QuotientGraph(2, V, rng.integers(0, V, E), rng.integers(0, V, E),
                          rng.integers(-1, 2, (E, 2)))
        positions = rng.integers(0, 2, (V, 2)) * 0.5
        verdicts.add(_assert_immersion_matches_reference(
            PeriodicNetwork(g, Lattice(np.eye(2)), positions)))
    assert verdicts == {True, False}


def test_parallel_loops_not_immersed():
    g = QuotientGraph.from_edges(2, 1, [(0, 0, (1, 0)), (0, 0, (2, 0))])
    assert not _assert_immersion_matches_reference(
        PeriodicNetwork(g, Lattice(np.eye(2)), np.zeros((1, 2))))


def test_near_parallel_ends_at_direction_tolerance():
    assert not _assert_immersion_matches_reference(_loop_pair(0.9 * DIRECTION_TOL))
    assert _assert_immersion_matches_reference(_loop_pair(1.1 * DIRECTION_TOL))


def test_zero_length_edges_are_not_parallel():
    # edges 0 and 1 both have length zero (NaN directions); the ends of
    # edge 2 point along +-(1, 0) and stay distinct
    g = QuotientGraph.from_edges(2, 2, [(0, 1, (0, 0)), (0, 1, (0, 0)), (0, 1, (1, 0))])
    net = PeriodicNetwork(g, Lattice(np.eye(2)), np.zeros((2, 2)))
    assert _assert_immersion_matches_reference(net)
    assert any("zero-length" in v for v in validate(net).violations)


def test_non_regular_graph_validates_without_raising():
    g = QuotientGraph.from_edges(2, 3, [(0, 1, (0, 0)), (1, 2, (0, 0)), (2, 0, (1, 0)),
                                        (0, 0, (0, 1)), (1, 1, (0, 1)), (1, 1, (0, 2))])
    net = PeriodicNetwork(g, Lattice(np.eye(2)),
                          np.array([[0.0, 0.0], [0.3, 0.1], [0.6, 0.4]]))
    assert not _assert_immersion_matches_reference(net)    # the two loops at vertex 1
    rep = validate(net)
    assert not rep.degree_regular
    assert "parallel outgoing edges at vertex 1" in rep.violations


def _gauge_moved(net, rng):
    """The same skeleton with jittered positions and basis, and one vertex
    moved by a lattice vector (so that the shifts change too)."""
    g, n = net.graph, net.dim
    v = int(rng.integers(g.vertex_count))
    k = rng.integers(-2, 3, size=n)
    shifts = np.array(g.shifts)
    shifts[(g.tails == v) & (g.heads != v)] += k
    shifts[(g.heads == v) & (g.tails != v)] -= k
    B = net.lattice.basis + rng.uniform(-0.05, 0.05, (n, n))
    positions = net.positions + rng.uniform(-0.05, 0.05, net.positions.shape)
    positions[v] += B @ k
    return PeriodicNetwork(QuotientGraph(n, g.vertex_count, g.tails, g.heads, shifts),
                           Lattice(B), positions)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_kernel_equals_single_networks(n):
    fixed = [catalog(name, **({"t": 0.3} if name == "cds" else {}))[0]
             for name in CATALOG_NAMES if name not in ("pcu", "cube_net", "simplex_net")]
    nets = [net for net in fixed if net.dim == n]
    nets += [catalog(name, n=n)[0] for name in ("pcu", "cube_net", "simplex_net")]
    rng = np.random.default_rng(53 + n)
    for net in nets:
        g = net.graph
        stack = [net] + [_gauge_moved(net, rng) for _ in range(4)]
        X = np.stack([m.positions for m in stack])
        B = np.stack([m.lattice.basis for m in stack])
        ST = np.stack([m.graph.shifts.T.astype(np.float64) for m in stack])
        vec = lifted_edges(X, B, ST, g.tails, g.heads)
        ell = edge_norms(vec)
        F = vertex_forces(incidence(g.tails, g.heads, g.vertex_count), vec / ell[..., None])
        for k, m in enumerate(stack):
            assert np.array_equal(vec[k], edge_vectors(m))
            assert np.array_equal(ell[k], edge_lengths(m))
            assert np.array_equal(F[k], force_all(m).forces)


def _reference_cycle_shift_matrix(g):
    """The former spanning-tree walk over per-vertex incidence lists."""
    V = g.vertex_count
    potential = np.zeros((V, g.dim), dtype=np.int64)
    in_tree = np.zeros(g.edge_count, dtype=bool)
    visited = np.zeros(V, dtype=bool)
    visited[0] = True
    incident = [[] for _ in range(V)]
    for e, (t, h) in enumerate(zip(g.tails, g.heads)):
        incident[t].append(e)
        incident[h].append(e)
    stack = [0]
    while stack:
        v = stack.pop()
        for e in incident[v]:
            t, h = int(g.tails[e]), int(g.heads[e])
            w = h if t == v else t
            if visited[w] or w == v:
                continue
            visited[w] = True
            in_tree[e] = True
            potential[w] = potential[v] + (1 if t == v else -1) * g.shifts[e]
            stack.append(w)
    rows = [g.shifts[e] + potential[g.tails[e]] - potential[g.heads[e]]
            for e in range(g.edge_count) if not in_tree[e]]
    return np.array(rows, dtype=np.int64).reshape(-1, g.dim), bool(visited.all())


def test_spanning_tree_matches_reference():
    rng = np.random.default_rng(59)
    for _ in range(300):
        V, E = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        g = QuotientGraph(3, V, rng.integers(0, V, E), rng.integers(0, V, E),
                          rng.integers(-2, 3, (E, 3)))
        rows, connected = _reference_cycle_shift_matrix(g)
        assert np.array_equal(g.cycle_shift_matrix(), rows)
        assert g.is_connected() == connected


def test_cycles_are_the_fundamental_cycles():
    # drawn as in test_spanning_tree_matches_reference, edgeless graphs included
    rng = np.random.default_rng(89)
    seen = set()
    for _ in range(400):
        V, E = int(rng.integers(1, 6)), int(rng.integers(0, 9))
        tails, heads = rng.integers(0, V, E), rng.integers(0, V, E)
        g = QuotientGraph(3, V, tails, heads, rng.integers(-2, 3, (E, 3)))
        if not g.is_connected():
            continue
        sk = g.skeleton()
        Z = sk.cycles
        assert Z.shape == (E - V + 1, E)
        assert not (Z @ incidence(g.tails, g.heads, V)).any()       # every row is closed
        assert len(Z) == 0 or np.linalg.matrix_rank(Z) == len(Z)
        rest = np.delete(np.arange(E), sk.tree)
        assert np.array_equal(Z[:, rest], np.eye(len(rest), dtype=np.int64))
        assert np.array_equal(Z @ g.shifts, _reference_cycle_shift_matrix(g)[0])
        bridges = tuple(e for e in range(E)
                        if not QuotientGraph(3, V, np.delete(tails, e), np.delete(heads, e),
                                             np.zeros((E - 1, 3), dtype=np.int64)).is_connected())
        assert sk.cut_edges == bridges
        seen |= {("edgeless", E == 0), ("bridged", len(bridges) > 0)}
    assert len(seen) == 4, sorted(seen)


def test_validate_connectivity_matches_reference():
    # validate reads connectivity off its one walk: a spanning tree closes
    # E - V + 1 cycles exactly when it reaches every vertex
    rng = np.random.default_rng(61)
    seen = set()
    for _ in range(300):
        V, E = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        g = QuotientGraph(3, V, rng.integers(0, V, E), rng.integers(0, V, E),
                          rng.integers(-2, 3, (E, 3)))
        rows, connected = _reference_cycle_shift_matrix(g)
        rep = validate(PeriodicNetwork(g, Lattice(np.eye(3)), rng.normal(size=(V, 3))))
        assert rep.quotient_connected == connected
        assert ("quotient graph disconnected" in rep.violations) == (not connected)
        assert rep.cycle_rank == np.linalg.matrix_rank(rows)
        seen.add(connected)
    assert seen == {True, False}


def _fresh(net):
    """The same network on a new graph object with equal content, so that
    nothing computed on the original graph is kept on it."""
    g = net.graph
    return PeriodicNetwork(QuotientGraph(g.dim, g.vertex_count, g.tails, g.heads, g.shifts),
                           net.lattice, net.positions)


def test_validate_walks_the_spanning_tree_once(monkeypatch):
    calls = []
    build = netcore._graph_facts
    monkeypatch.setattr(netcore, "_graph_facts", lambda g: calls.append(1) or build(g))
    for name, params in SHARP_CATALOG:
        net = _fresh(catalog(name, **params)[0])
        calls.clear()
        assert validate(net).ok
        assert validate(net).ok
        assert len(calls) == 1, name


@pytest.mark.parametrize("name,params", SHARP_CATALOG,
                         ids=[name for name, _ in SHARP_CATALOG])
def test_validate_classify_verify_walk_the_spanning_tree_once(monkeypatch, name, params):
    # the graph is frozen: its facts are computed from one walk and kept,
    # so classify and verify walk the tree no more
    calls = []
    build = netcore._graph_facts
    monkeypatch.setattr(netcore, "_graph_facts", lambda g: calls.append(1) or build(g))
    net = _fresh(catalog(name, **params)[0])
    calls.clear()
    assert validate(net).ok
    classify(net.graph)
    assert verify(net).applicable
    assert len(calls) == 1


def _has_record(g):
    """Does some live graph hold the record of ``g``'s skeleton already?"""
    return (g.vertex_count, tuple(g.tails.tolist()), tuple(g.heads.tolist())) in netcore._SKELETONS


@pytest.mark.parametrize("name,params", SHARP_CATALOG,
                         ids=[name for name, _ in SHARP_CATALOG])
def test_graph_facts_computed_once_per_graph(monkeypatch, name, params):
    # the Smith form reads the shifts: once per graph; the end pairs are the
    # skeleton's: once per skeleton, and an equal graph shares them
    calls = []
    smith, pairs = netcore.smith_invariant_factors, netcore.end_pairs
    monkeypatch.setattr(netcore, "smith_invariant_factors",
                        lambda M: calls.append("smith") or smith(M))
    monkeypatch.setattr(netcore, "end_pairs",
                        lambda *args: calls.append("pairs") or pairs(*args))
    net = _fresh(catalog(name, **params)[0])
    built = [] if _has_record(net.graph) else ["pairs"]
    calls.clear()
    for _ in range(2):
        assert validate(net).ok
        classify(net.graph)
        assert verify(net).applicable
    assert sorted(calls) == built + ["smith"]
    # an equal graph is another object: it makes its own facts over the same record
    twin = _fresh(net)
    assert validate(twin) == validate(net)
    assert classify(twin.graph) == classify(net.graph)
    assert verify(twin) == verify(net)
    assert sorted(calls) == built + ["smith", "smith"]
    assert twin.graph.skeleton() is net.graph.skeleton()
    assert twin.graph.facts() is not net.graph.facts()


def test_sweep_operation_builds_facts_once(monkeypatch):
    # random_network -> rebalance -> verify on a fresh graph over a live
    # skeleton: the sampler's immersion test and verify read the skeleton's
    # record, and the graph's own facts take one Smith form
    smith, pairs, facts = netcore.smith_invariant_factors, netcore.end_pairs, netcore._graph_facts
    calls = []
    monkeypatch.setattr(netcore, "smith_invariant_factors",
                        lambda M: calls.append("smith") or smith(M))
    monkeypatch.setattr(netcore, "end_pairs", lambda *a: calls.append("pairs") or pairs(*a))
    monkeypatch.setattr(netcore, "_graph_facts", lambda g: calls.append("facts") or facts(g))
    rng = np.random.default_rng(43)
    for tag in ("D4", "D1,2", "D5", "D1,3", "B3"):
        skeleton = build_abstract(tag, 3)
        shifts = enumerate_shift_arrays(skeleton, 3, 1)
        for _ in range(5):
            g = QuotientGraph(3, skeleton.vertex_count, skeleton.tails, skeleton.heads,
                              shifts[int(rng.integers(len(shifts)))])
            calls.clear()
            net = random_network(g, seed=int(rng.integers(1 << 62)))
            assert calls == ["facts", "smith"]
            if g.vertex_count == 2:
                net, _ = rebalance_vertex(net, 1)
            verify(net)
            assert calls == ["facts", "smith"], tag
            assert g.skeleton() is skeleton.skeleton()


def _reference_graph_facts(g):
    """The facts of ``g`` computed for ``g`` alone: one pass over its edge
    list and one spanning-tree walk, as before the skeleton record."""
    V, E = g.vertex_count, g.edge_count
    tails, heads = g.tails.tolist(), g.heads.tolist()
    deg, loops, bare, repeated, parallel, seen = [0] * V, [0] * V, [], [], [], set()
    star = [[] for _ in range(V)]       # (edge, +1 leaving / -1 entering, far end)
    along = {}                          # (vertex, loop direction) -> first loop, its shift
    for e, (t, h, s) in enumerate(zip(tails, heads, map(tuple, g.shifts.tolist()))):
        deg[t] += 1
        deg[h] += 1
        if t == h:
            loops[t] += 1
            if not any(s):      # a zero-length lift edge
                bare.append(e)
            else:   # loops with proportional shifts leave t in one direction
                p = tuple(x // math.gcd(*s) for x in s)
                f, s0 = along.setdefault((t, max(p, tuple(-x for x in p))), (e, s))
                if s0 != s and s0 != tuple(-x for x in s):      # else a duplicate
                    parallel.append(f"loop {e} parallel to loop {f}")
        else:
            star[t].append((e, 1, h))
            star[h].append((e, -1, t))
        # an edge read backwards, (h, t, -s), is the same edge
        key = min((t, h, s), (h, t, tuple(-x for x in s)))
        if key in seen:
            repeated.append((t, h, s))
        seen.add(key)

    # path[v]: the signed edges of the tree path from vertex 0 to v
    path = [[0] * E for _ in range(V)]
    reached, tree, stack = {0}, [], [0]
    # once every vertex is reached, no edge is left to join the tree
    while stack and len(reached) < V:
        v = stack.pop()
        for e, sign, w in star[v]:
            if w in reached:
                continue
            reached.add(w)
            tree.append(e)
            path[w] = path[v].copy()
            path[w][e] += sign
            stack.append(w)
    in_tree = set(tree)
    rows = []
    for e in range(E):
        if e not in in_tree:
            rows.append([p - q for p, q in zip(path[tails[e]], path[heads[e]])])
            rows[-1][e] += 1
    cycles = np.array(rows, dtype=np.int64).reshape(len(rows), E)
    factors = smith_invariant_factors(cycles @ g.shifts)
    connected = len(reached) == V

    before: list[str] = []
    after = [f"duplicate edge {edge}" for edge in repeated] + parallel
    regular = deg.count(deg[0]) == V
    degree = deg[0] if regular else None
    if not regular:
        before.append(f"degrees not regular: {deg}")
    elif degree < 3:
        before.append(f"degree {degree} < 3")
    if not connected:
        before.append("quotient graph disconnected")
    before += [f"loop {e} has zero shift" for e in bare]
    if len(factors) != g.dim:
        after.append(f"cycle-shift rank {len(factors)} < dimension {g.dim}")
    elif factors != (1,) * g.dim:
        after.append(f"lift disconnected: invariant factors {factors}")

    return SimpleNamespace(
        simple=not repeated, invariant_factors=factors, violations=(tuple(before), tuple(after)),
        degree=degree, connected=connected, tree=tuple(tree), cycles=cycles,
        cut_edges=tuple(sorted(e for e in tree if not any(row[e] for row in rows))),
        end_pairs=netcore.end_pairs(g.tails, g.heads, V), loops=tuple(loops))


# the reference facts that the shifts decide, held by ``facts()``, and those
# of the skeleton alone, held by its record
_SHIFT_FACTS = ("simple", "invariant_factors", "violations")
_SKELETON_FACTS = ("degree", "connected", "tree", "cycles", "cut_edges", "end_pairs", "loops")


def _assert_facts_equal(g, want):
    """The shift fields of ``g.facts()`` and the skeleton fields of
    ``g.skeleton()`` equal the reference facts ``want``."""
    assert tuple(f.name for f in dataclasses.fields(netcore.GraphFacts)) == _SHIFT_FACTS
    for name in _SHIFT_FACTS + _SKELETON_FACTS:
        a = getattr(g.facts() if name in _SHIFT_FACTS else g.skeleton(), name)
        b = getattr(want, name)
        if name in ("cycles", "end_pairs"):
            for x, y in zip(*((a, b) if name == "end_pairs" else ((a,), (b,)))):
                assert x.dtype == y.dtype and np.array_equal(x, y), name
        else:
            assert a == b, name


def _small_multigraphs(seed, count):
    """Random multigraphs as in test_immersion_matches_reference_on_small_graphs:
    disconnected, non-regular, with loops, repeated and zero-shift edges."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        V, E = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        yield QuotientGraph(2, V, rng.integers(0, V, E), rng.integers(0, V, E),
                            rng.integers(-1, 2, (E, 2)))


def test_graph_facts_match_the_per_graph_reference():
    kinds = set()
    graphs = list(_small_multigraphs(47, 300))
    graphs += [net.graph for net in _catalog_and_rewrites(3, 83)]
    for g in graphs:
        want = _reference_graph_facts(g)
        _assert_facts_equal(g, want)
        kinds |= {bool(want.violations[0]), bool(want.violations[1]), not want.connected}
    assert kinds == {True, False}
    assert len(graphs) > 350


def test_graphs_over_one_skeleton_share_one_record():
    # two assignments over one skeleton, and a graph built from another's arrays
    skeleton = build_abstract("D1,3", 3)
    shifts = enumerate_shift_arrays(skeleton, 3, 1)[:2]
    graphs = [QuotientGraph(3, 2, skeleton.tails, skeleton.heads, S) for S in shifts]
    graphs.append(QuotientGraph(3, 2, list(skeleton.tails), np.array(skeleton.heads), shifts[0]))
    record = skeleton.skeleton()
    for g in graphs:
        assert g.skeleton() is record
        assert netcore.oriented_star(g, 0) is record.stars[0]
    assert graphs[0].facts() is not graphs[1].facts()
    # the skeleton has no dimension; another vertex count is another skeleton
    assert QuotientGraph(2, 2, skeleton.tails, skeleton.heads,
                         np.zeros((5, 2))).skeleton() is record
    assert QuotientGraph(3, 3, skeleton.tails, skeleton.heads,
                         shifts[0]).skeleton() is not record


def test_skeleton_record_goes_with_its_last_graph():
    g = QuotientGraph.from_edges(3, 4, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0)),
                                        (2, 3, (0, 0, 0)), (3, 0, (1, 0, 0))])
    key = (4, (0, 1, 2, 3), (1, 2, 3, 0))
    record = g.skeleton()
    assert netcore._SKELETONS[key] is record
    del g, record
    assert key not in netcore._SKELETONS


def test_skeleton_record_arrays_are_read_only():
    g = catalog("bnn")[0].graph
    record = g.skeleton()
    record.projector()
    arrays = [record.cycles, record.incidence, record.projector(), *record.end_pairs]
    arrays += [a for star in record.stars for a in star] + list(netcore.oriented_star(g, 5))
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.tree = ()


def test_same_edges_in_another_order_get_their_own_record():
    g = catalog("cds", t=0.3)[0].graph
    for order in ([1, 0, 2, 3], [3, 2, 1, 0]):
        h = QuotientGraph(3, 2, g.tails[order], g.heads[order], g.shifts[order])
        assert h.skeleton() is not g.skeleton()
        assert h.skeleton().tails == tuple(g.tails[order].tolist())
        _assert_facts_equal(h, _reference_graph_facts(h))
    # the edges reversed, too
    r = QuotientGraph(3, 2, g.heads, g.tails, -g.shifts)
    assert r.skeleton() is not g.skeleton()
    assert r.facts().invariant_factors == g.facts().invariant_factors


def _measured_cases():
    """Catalog networks, their rewrites and random networks on their graphs."""
    nets = list(_catalog_and_rewrites(2, 79))
    nets += [random_network(net.graph, seed=seed) for seed in range(2) for net in nets[::3]]
    return nets


def test_verify_measures_the_length_quotient_bit_for_bit():
    # from 8 terms up numpy's pairwise sum and a sequential one round apart,
    # as they do on some random networks over simplex_net(n=7)'s 8 edges
    g7 = catalog("simplex_net", n=7)[0].graph
    count = differ = 0
    for net in _measured_cases() + [random_network(g7, seed=seed) for seed in range(20)]:
        assert verify(net).measured == length_quotient(net)
        validate(twin := _copy(net))
        assert verify(twin).measured == length_quotient(net)
        ell = edge_lengths(net)
        differ += sum(ell.tolist()) != float(ell.sum())
        count += 1
    assert count >= 110 and differ >= 3
    # a zero-length edge, a NaN position and a singular basis measure NaN,
    # where length_quotient raises
    net, _ = catalog("cds", t=0.5)
    positions = np.array(net.positions)
    positions[1] = positions[0]
    collapsed = PeriodicNetwork(net.graph, net.lattice, positions)
    flat = PeriodicNetwork(net.graph, Lattice(np.diag([1.0, 1.0, 0.0])), net.positions)
    for bad in [collapsed, flat] + _invalid_networks():
        with pytest.raises(ValueError):
            length_quotient(bad)
        rep = verify(bad)
        assert not rep.applicable and math.isnan(rep.measured)
        assert rep.note == "network fails validation: " + "; ".join(validate(bad).violations)
    # an invalid network with finite, nonzero lengths and a basis measures its value
    rng = np.random.default_rng(97)
    measured = 0
    for _ in range(200):
        net = _random_multigraph(rng)
        try:
            want = length_quotient(net)
        except ValueError:
            assert math.isnan(verify(net).measured)
        else:
            assert verify(net).measured == want
            measured += not validate(net).ok
    assert measured >= 10


# ---------------------------------------------------------------------------
# graph facts against the former validate, classify and verify

def _reference_validate(net):
    """The former ``validate``: every check recomputed on every call, with
    its per-edge loops and the former degree and edge-list helpers."""
    g = net.graph
    violations: list[str] = []

    deg = np.zeros(g.vertex_count, dtype=np.int64)
    np.add.at(deg, g.tails, 1)
    np.add.at(deg, g.heads, 1)
    degree_regular = bool(len(set(deg.tolist())) == 1)
    degree = int(deg[0]) if degree_regular else None
    if not degree_regular:
        violations.append(f"degrees not regular: {deg.tolist()}")
    elif degree < 3:
        violations.append(f"degree {degree} < 3")

    M = g.cycle_shift_matrix()
    connected = len(M) == g.edge_count - g.vertex_count + 1
    if not connected:
        violations.append("quotient graph disconnected")

    for e in range(g.edge_count):
        if g.tails[e] == g.heads[e] and not g.shifts[e].any():
            violations.append(f"loop {e} has zero shift")

    vecs = edge_vectors(net)
    ell = edge_norms(vecs[None])[0]
    zero_edges = np.flatnonzero(ell == 0.0)
    for e in zero_edges:
        violations.append(f"zero-length edge {int(e)}")

    crossed = np.flatnonzero(parallel_ends(vecs[None], ell[None],
                                           netcore.end_pairs(g.tails, g.heads, g.vertex_count))[0])
    immersed = len(crossed) == 0
    if not immersed:
        violations.append(f"parallel outgoing edges at vertex {crossed[0]}")

    seen: set[tuple] = set()
    simple = True
    for t, h, s in [(int(t), int(h), tuple(int(x) for x in s))
                    for t, h, s in zip(g.tails, g.heads, g.shifts)]:
        key = min((t, h, s), (h, t, tuple(-x for x in s)))
        if key in seen:
            simple = False
            violations.append(f"duplicate edge {(t, h, s)}")
        seen.add(key)

    factors = smith_invariant_factors(M)
    cycle_rank = len(factors)
    rank_full = cycle_rank == g.dim
    if not rank_full:
        violations.append(f"cycle-shift rank {cycle_rank} < dimension {g.dim}")
    lift_connected = factors == (1,) * g.dim
    if rank_full and not lift_connected:
        violations.append(f"lift disconnected: invariant factors {factors}")

    return ValidityReport(
        degree_regular=degree_regular, degree=degree, immersed=immersed,
        quotient_connected=connected, simple=simple, cycle_rank=cycle_rank,
        rank_full=rank_full, lift_connected=lift_connected,
        invariant_factors=factors, violations=tuple(violations))


def _reference_classify(g):
    """The former ``classify``, recomputed on every call."""
    if not g.is_connected():
        raise ValueError("classification requires a connected graph")
    deg = g.degrees()
    if len(set(deg.tolist())) != 1:
        raise ValueError(f"graph is not regular: degrees {deg.tolist()}")
    d, V = int(deg[0]), g.vertex_count
    rank = g.edge_count - V + 1
    is_loop = g.tails == g.heads
    loops_at = np.bincount(g.tails[is_loop], minlength=V)
    bridges = int(np.count_nonzero(~is_loop))
    if V == 1:
        return TopologyClass("bouquet", int(loops_at[0]), 0, rank, d, 1)
    if V == 2 and loops_at[0] == loops_at[1]:
        l = int(loops_at[0])
        return TopologyClass("dipole" if l == 0 else "double_bouquet", l, bridges, rank, d, 2)
    return TopologyClass("other", int(loops_at.sum()), bridges, rank, d, V)


def _assert_verify_matches_reference(net, monkeypatch):
    """``verify`` equals itself run through the former ``validate`` and
    ``classify``; a network with a zero-length edge measures NaN."""
    with monkeypatch.context() as m:
        m.setattr(bounds, "_validate", lambda net: (_reference_validate(net),
                                                    edge_norms(edge_vectors(net)[None])[0],
                                                    edge_vectors(net)))
        m.setattr(bounds, "classify", _reference_classify)
        want = verify(_fresh(net))
    _same_verify(verify(net), want)


def _same_verify(a, b):
    """Equal bound reports, a NaN measure equal to a NaN."""
    assert replace(a, measured=0.0) == replace(b, measured=0.0)
    assert np.array_equal(a.measured, b.measured, equal_nan=True)


def _catalog_and_rewrites(copies, seed):
    rng = np.random.default_rng(seed)
    for name in CATALOG_NAMES:
        params = {"t": 0.35} if name == "cds" else {}
        for n in ((2, 3, 4, 5) if name in ("pcu", "cube_net", "simplex_net") else (None,)):
            net = catalog(name, **params, **({} if n is None else {"n": n}))[0]
            yield net
            for _ in range(copies):
                yield _rewritten(net, rng)


def test_validate_matches_reference_on_catalog_and_rewrites():
    count = 0
    for net in _catalog_and_rewrites(10, 71):
        rep = validate(net)
        assert rep == _reference_validate(net)
        assert rep.ok
        assert validate(net) == rep
        count += 1
    assert count > 100


def test_classify_and_verify_match_reference_on_catalog(monkeypatch):
    for net in _catalog_and_rewrites(2, 73):
        assert classify(net.graph) == _reference_classify(net.graph)
        _assert_verify_matches_reference(net, monkeypatch)


def _random_multigraph(rng):
    """A small multigraph in R^2, often invalid: disconnected, irregular,
    with bare or repeated loops, repeated edges, shifts that span a
    sublattice, zero-length and parallel edges."""
    V, E = int(rng.integers(1, 4)), int(rng.integers(1, 8))
    shifts = rng.integers(-1, 2, (E, 2)) * (2 if rng.random() < 0.25 else 1)
    g = QuotientGraph(2, V, rng.integers(0, V, E), rng.integers(0, V, E), shifts)
    return PeriodicNetwork(g, Lattice(np.eye(2)), rng.integers(0, 2, (V, 2)) * 0.5)


def test_validate_matches_reference_on_random_multigraphs(monkeypatch):
    rng = np.random.default_rng(79)
    verdicts = set()
    for _ in range(300):
        net = _random_multigraph(rng)
        rep = validate(net)
        assert rep == _reference_validate(net)
        try:
            top = _reference_classify(net.graph)
        except ValueError as exc:
            for _ in range(2):        # a refusal is kept, and raised again
                with pytest.raises(ValueError, match=str(exc).replace("[", r"\[")):
                    classify(net.graph)
        else:
            assert classify(net.graph) == top
        _assert_verify_matches_reference(net, monkeypatch)
        verdicts |= {("irregular", not rep.degree_regular),
                     ("disconnected", not rep.quotient_connected),
                     ("zero-shift loop", any("zero shift" in v for v in rep.violations)),
                     ("duplicate edge", not rep.simple),
                     ("rank-deficient", not rep.rank_full),
                     ("lift-disconnected", rep.rank_full and not rep.lift_connected)}
    assert len(verdicts) == 12, sorted(verdicts)


# ---------------------------------------------------------------------------
# the validation slot: back-to-back validate and verify measure a network once

def _copy(net):
    """Another network object over the same graph, lattice and positions."""
    return PeriodicNetwork(net.graph, net.lattice, net.positions)


def _invalid_networks():
    """dia with a zero-length edge, with a NaN position, on a singular basis."""
    net = catalog("dia")[0]
    nan = net.positions.copy()
    nan[1, 0] = np.nan
    return [PeriodicNetwork(net.graph, net.lattice, np.zeros((2, 3))),
            PeriodicNetwork(net.graph, net.lattice, nan),
            PeriodicNetwork(net.graph, Lattice(np.zeros((3, 3))), net.positions)]


def _counting_measures(monkeypatch):
    calls = []
    monkeypatch.setattr(netcore, "parallel_ends",
                        lambda *a, real=netcore.parallel_ends: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("name,params", SHARP_CATALOG,
                         ids=[name for name, _ in SHARP_CATALOG])
def test_validate_and_verify_back_to_back_measure_once(monkeypatch, name, params):
    calls = _counting_measures(monkeypatch)
    net = catalog(name, **params)[0]
    assert validate(net).ok
    classify(net.graph)
    assert verify(net).equality_certificate.passed
    assert len(calls) == 1
    net = catalog(name, **params)[0]
    assert verify(net).equality_certificate.passed
    assert validate(net).ok
    assert len(calls) == 2


def test_validation_slot_measures_every_other_network_anew(monkeypatch):
    calls = _counting_measures(monkeypatch)
    a, b = catalog("dia")[0], catalog("sqp")[0]
    validate(a)
    validate(_copy(a))          # equal, but another object
    assert len(calls) == 2
    validate(b)
    verify(a)                   # b replaced a
    validate(a)
    assert len(calls) == 4


def test_validation_slot_keeps_no_network_alive():
    net = catalog("dia")[0]
    probe = weakref.ref(net)
    validate(net)
    assert netcore._LAST.ref() is net
    del net
    gc.collect()
    assert probe() is None and netcore._LAST.ref() is None


def test_validation_slot_returns_what_a_fresh_measure_returns():
    nets = list(_catalog_and_rewrites(3, 89)) + _invalid_networks()
    for net in nets:
        fresh = netcore._measure(net)           # a new slot
        assert fresh.ref() is net and fresh.report is None     # no report until asked for
        want, want_ell, want_vecs = netcore._validate(_copy(net))   # measured anew
        assert np.array_equal(fresh.ell, want_ell, equal_nan=True)
        assert np.array_equal(fresh.vecs, want_vecs, equal_nan=True)
        for first in (validate, verify):
            twin = _copy(net)
            first(twin)
            rep, ell, vecs = netcore._validate(twin)       # from the slot
            assert rep == want and validate(twin) == want
            assert np.array_equal(ell, want_ell, equal_nan=True)
            assert np.array_equal(vecs, want_vecs, equal_nan=True)
            assert not ell.flags.writeable and not vecs.flags.writeable
            _same_verify(verify(twin), verify(_copy(net)))
    assert sum(not validate(net).ok for net in nets) == 3


def test_threads_validating_different_networks_get_their_own_reports():
    # more threads than cores, switching often: a slot read twice, once for
    # its key and once for its value, hands some thread another's report
    nets = [catalog("dia")[0]] + _invalid_networks()
    want = [netcore._validate(_copy(net)) for net in nets]
    assert len({rep.violations for rep, _, _ in want}) == len(nets)
    wrong, done, start = [], [], threading.Barrier(len(nets))

    def work(net, rep):
        start.wait(timeout=60)
        for _ in range(1000):
            twin = _copy(net)
            for _ in range(300):        # all but the first from the slot, if it is kept
                got = netcore._validate(twin)[0]
                if got != rep:
                    wrong.append(got)
        done.append(net)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(net, rep))
                   for net, (rep, _, _) in zip(nets, want)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(done) == len(nets) and not wrong


def _counting_measure_calls(monkeypatch):
    """The ``_measure`` calls from now on, and the edge vector computations,
    wherever ``lifted_edges`` is called from."""
    calls, lifts = [], []
    monkeypatch.setattr(netcore, "_measure",
                        lambda net, real=netcore._measure: calls.append(net) or real(net))
    counted = lambda *a, real=netcore.lifted_edges: lifts.append(1) or real(*a)  # noqa: E731
    monkeypatch.setattr(netcore, "lifted_edges", counted)
    monkeypatch.setattr(balance, "lifted_edges", counted, raising=False)
    return calls, lifts


@pytest.mark.parametrize("name,params", SHARP_CATALOG,
                         ids=[name for name, _ in SHARP_CATALOG])
def test_force_check_next_to_validation_measures_once(monkeypatch, name, params):
    calls, lifts = _counting_measure_calls(monkeypatch)
    net = catalog(name, **params)[0]
    assert is_balanced(net)             # the sweep's order
    assert verify(net).applicable
    assert len(calls) == len(lifts) == 1
    net = _copy(net)
    assert validate(net).ok             # perinet eval's order
    assert force_all(net).max_norm <= 1e-9
    assert len(calls) == len(lifts) == 2


def _reference_forces(net):
    """The former ``force_all``: the network measured on its own."""
    g = net.graph
    vecs = lifted_edges(net.positions[None], net.lattice.basis[None],
                        g.shifts.T[None].astype(np.float64), g.tails, g.heads)
    ell = edge_norms(vecs)
    if not ell.all():
        raise ValueError(f"zero-length edge {int(np.argmin(ell))}")
    out = vertex_forces(g.skeleton().incidence, vecs / ell[..., None])[0]
    return out, float(np.linalg.norm(out, axis=1).max())


def test_forces_equal_a_fresh_measure_bit_for_bit():
    nets = _measured_cases()
    nets += [random_network(g, seed=seed) for seed in range(3)
             for g in (catalog("simplex_net", n=7)[0].graph, catalog("cds", t=0.35)[0].graph)]
    for net in nets:
        want, want_max = _reference_forces(net)
        for twin in (net, _copy(net)):
            if twin is not net:
                validate(twin)          # from the slot
            got = force_all(twin)
            assert np.array_equal(got.forces, want) and got.max_norm == want_max
    assert len(nets) >= 90


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("entry", ["position", "basis"])
def test_force_on_non_finite_geometry_warns_nothing(entry, value):
    net, _ = catalog("dia")
    positions, basis = np.array(net.positions), np.array(net.lattice.basis)
    (positions if entry == "position" else basis)[0, 0] = value
    bad = PeriodicNetwork(net.graph, Lattice(basis), positions)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want, want_max = _reference_forces(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in range(2):
            assert np.array_equal(force(bad, v), want[v], equal_nan=True)
        assert not is_balanced(bad)
        assert np.isnan(force_all(bad).max_norm) and np.isnan(want_max)
    # a zero-length edge is refused, by its index, as before
    collapsed = PeriodicNetwork(net.graph, net.lattice, np.zeros((2, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^zero-length edge 0$"):
            force(collapsed, 0)


def _every_reader(net):
    """Every measure of one network that reads its edges, in turn."""
    return [edge_lengths(net), edge_vectors(net), edge_vector(net, 0), length(net),
            length_quotient(net), validate(net), verify(net), force_all(net),
            force(net, 0), is_balanced(net), bounds.stress_bound(net),
            optimize.objective_and_gradient(net)]


@pytest.mark.parametrize("name,params", SHARP_CATALOG,
                         ids=[name for name, _ in SHARP_CATALOG])
def test_every_reader_of_one_network_measures_it_once(monkeypatch, name, params):
    calls, lifts = _counting_measure_calls(monkeypatch)
    monkeypatch.setattr(bounds, "lifted_edges", netcore.lifted_edges, raising=False)
    monkeypatch.setattr(optimize, "lifted_edges", netcore.lifted_edges)
    net = _fresh(catalog(name, **params)[0])
    assert _every_reader(net)[5].ok
    assert len(calls) == len(lifts) == 1
    for _ in range(2):          # again, in the reverse order
        assert _every_reader(net)[::-1]
    assert len(calls) == len(lifts) == 1
    twin = _copy(net)           # equal, but another object
    _every_reader(twin)
    assert len(calls) == len(lifts) == 2 and calls == [net, twin]


@pytest.mark.parametrize("name,params", SHARP_CATALOG,
                         ids=[name for name, _ in SHARP_CATALOG])
def test_forces_on_a_fresh_graph_build_no_facts(name, params):
    # forces read the measurement and the skeleton's incidence, never the
    # shift facts that only the validity report needs
    net = _fresh(catalog(name, **params)[0])
    assert is_balanced(net)
    assert force_all(net).max_norm <= 1e-9 and force(net, 0).shape == (net.dim,)
    assert "_facts" not in net.graph.__dict__
    assert validate(net).ok and "_facts" in net.graph.__dict__


def test_a_zero_length_edge_next_to_a_nan_one_is_named_alike_everywhere():
    # a loop at a NaN position has length NaN; edge 1 joins two coincident
    # vertices.  With the loop first or last, every refusal names edge 1,
    # as validation does, never the NaN edge
    loop, tied, free = (2, 2, (1, 0)), (0, 1, (0, 0)), (0, 1, (0, 1))
    for edges, nan_edge in (([loop, tied, free], 0), ([free, tied, loop], 2)):
        g = QuotientGraph.from_edges(2, 3, edges)
        net = PeriodicNetwork(g, Lattice(np.eye(2)), [[0.0, 0.0], [0.0, 0.0], [np.nan, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ell = edge_lengths(net)
            assert math.isnan(ell[nan_edge]) and ell[1] == 0.0
            edge_faults = [v for v in validate(net).violations
                           if v.startswith(("zero", "non-finite edge"))]
            assert edge_faults == ["zero-length edge 1", f"non-finite edge length {nan_edge}"]
            for measure in (length, length_quotient, force_all, lambda n: force(n, 0),
                            is_balanced, bounds.stress_bound, optimize.objective_and_gradient):
                with pytest.raises(ValueError, match="^zero-length edge 1$"):
                    measure(_copy(net))
            assert math.isnan(verify(net).measured)


def test_cut_edges_are_the_edges_whose_removal_disconnects():
    rng = np.random.default_rng(83)
    seen = set()
    for _ in range(300):
        V, E = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        tails, heads = rng.integers(0, V, E), rng.integers(0, V, E)
        g = QuotientGraph(2, V, tails, heads, np.zeros((E, 2), dtype=np.int64))
        if not g.is_connected():
            continue
        want = tuple(e for e in range(E)
                     if not QuotientGraph(2, V, np.delete(tails, e), np.delete(heads, e),
                                          np.zeros((E - 1, 2), dtype=np.int64)).is_connected())
        assert g.skeleton().cut_edges == want
        seen.add(len(want) > 0)
    assert seen == {True, False}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("entry", ["position", "basis"])
def test_non_finite_geometry_is_invalid(entry, value):
    net, _ = catalog("dia")
    positions, basis = np.array(net.positions), np.array(net.lattice.basis)
    (positions if entry == "position" else basis)[0, 0] = value
    bad = PeriodicNetwork(net.graph, Lattice(basis), positions)
    rep = validate(bad)
    # every edge of dia meets vertex 0, and B s is not finite even at s = 0;
    # a non-finite basis is reported as such besides its edges
    basis_fault = ("non-finite lattice basis",) if entry == "basis" else ()
    assert rep.violations == tuple(f"non-finite edge length {e}" for e in range(4)) + basis_fault
    report = verify(bad)
    assert not report.applicable and report.slack is None and report.topology == "D4"
    assert report.note == "network fails validation: " + "; ".join(rep.violations)
    # the measures raise, with no floating-point warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure in (length, length_quotient):
            with pytest.raises(ValueError, match=r"^non-finite edge length \d+$"):
                measure(bad)
        if entry == "basis":
            with pytest.raises(ValueError, match="^non-finite lattice basis$"):
                bad.lattice.volume()


def _random_unimodular(rng, m):
    """Product of random elementary integer operations on the m x m identity."""
    U = np.eye(m, dtype=np.int64)
    for _ in range(2 * m):
        i, j = rng.choice(m, 2, replace=False) if m > 1 else (0, 0)
        if i != j:
            U[i] += int(rng.integers(-2, 3)) * U[j]
        U[[i, j]] = U[[j, i]]
        if rng.random() < 0.3:
            U[i] = -U[i]
    return U


def test_smith_factors_match_a_planted_divisor_chain():
    # M = U D V with unimodular U, V has the Smith factors of D: its nonzero
    # diagonal, a divisor chain, whose length is the rank of M
    rng = np.random.default_rng(67)
    deficient = 0
    for _ in range(300):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        k = int(rng.integers(0, min(rows, cols) + 1))
        chain = [int(rng.integers(1, 4))]
        for _ in range(k - 1):
            chain.append(chain[-1] * int(rng.integers(1, 4)))
        D = np.zeros((rows, cols), dtype=np.int64)
        D[range(k), range(k)] = chain[:k]
        M = _random_unimodular(rng, rows) @ D @ _random_unimodular(rng, cols)
        factors = smith_invariant_factors(M)
        assert factors == tuple(chain[:k]), (M, chain[:k])
        assert len(factors) == np.linalg.matrix_rank(M)
        deficient += k < min(rows, cols)
    assert deficient > 50


def test_int_solve_exact_solution_and_unimodular_inverse():
    from perinet.intlinalg import int_solve
    rng = np.random.default_rng(71)
    for _ in range(200):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, rows + 1))
        A = _random_unimodular(rng, rows)[:, :cols]       # full column rank
        x = rng.integers(-5, 6, (cols, 3))
        solved = int_solve(A, A @ x)
        assert solved.dtype == np.int64 and np.array_equal(solved, x)
        U = _random_unimodular(rng, cols)
        inv = int_solve(U, np.eye(cols, dtype=np.int64))
        assert np.array_equal(U @ inv, np.eye(cols, dtype=np.int64))
        assert np.array_equal(inv @ U, np.eye(cols, dtype=np.int64))


def test_int_solve_raises_without_an_integer_solution():
    from perinet.intlinalg import int_solve
    # a rational solution that is not integral
    with pytest.raises(RuntimeError, match="no integer solution"):
        int_solve(np.array([[2, 0], [0, 1]]), np.array([1, 4]))
    # no solution at all: the least-squares point misses b
    with pytest.raises(RuntimeError, match="no integer solution"):
        int_solve(np.array([[1], [1]]), np.array([0, 2]))
    # the inverse of a basis of a proper sublattice
    with pytest.raises(RuntimeError, match="no integer solution"):
        int_solve(np.array([[1, 1], [-1, 1]]), np.eye(2, dtype=np.int64))
