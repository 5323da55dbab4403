import math
import re

import numpy as np
import pytest

from perinet import (
    Lattice,
    bound_dipole,
    bound_even,
    catalog,
    classify,
    construct_bouquet,
    construct_even_two_vertex,
    construct_odd,
    edge_lengths,
    edge_vectors,
    is_balanced,
    length,
    length_quotient,
    validate,
    volume,
)
from perinet import construct
from perinet.construct import CATALOG_NAMES, regular_simplex_vertices
from perinet.io import network_to_json
from perinet.netcore import DIRECTION_TOL

EXPECTED = {
    ("hcb", ()): 2 * math.sqrt(3),
    ("sql", ()): 4.0,
    ("dia", ()): 12 * math.sqrt(3),
    ("bnn", ()): 27 * math.sqrt(3),
    ("sqp", ()): 405.0 / 8.0,
}


def test_catalog_values_match_entry():
    for (name, _), expected in EXPECTED.items():
        net, entry = catalog(name)
        assert entry.expected_quotient == pytest.approx(expected, rel=1e-15)
        assert length_quotient(net) == pytest.approx(expected, rel=1e-12)


def test_catalog_networks_fully_valid():
    for name in CATALOG_NAMES:
        net, entry = catalog(name)
        rep = validate(net)
        assert rep.ok, (name, rep.violations)
        assert is_balanced(net, 1e-9), name
        assert length_quotient(net) == pytest.approx(entry.expected_quotient,
                                                     rel=1e-9)
        assert classify(net.graph) == entry.topology


def test_catalog_unknown_name():
    with pytest.raises(ValueError, match="unknown catalog name"):
        catalog("gyroid")


@pytest.mark.parametrize("name,params,message", [
    ("dia", {"n": 3}, "'dia' takes no parameter 'n'"),
    ("sql", {"n": 2}, "'sql' takes no parameter 'n'"),
    ("pcu", {"t": 0.5}, "'pcu' takes no parameter 't'"),
    ("cds", {"t": 0.5, "n": 3}, "'cds' takes no parameter 'n'"),
    ("pcu", {"n": 3.7}, "n must be an integer, not 3.7"),
    ("simplex_net", {"n": float("inf")}, "n must be an integer, not inf"),
])
def test_catalog_refuses_parameters_it_does_not_take(name, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        catalog(name, **params)


def test_catalog_takes_an_integral_dimension():
    # a numpy integer is an integer; 4.0 is refused, as QuotientGraph(dim=4.0) is
    net, entry = catalog("pcu", n=np.int64(4))
    assert entry.parameters == {"n": 4} and type(entry.parameters["n"]) is int
    assert network_to_json(net) == network_to_json(catalog("pcu", n=4)[0])
    with pytest.raises(ValueError, match=re.escape("dimension n must be an integer, not 4.0")):
        catalog("pcu", n=4.0)


def test_catalog_takes_its_values_from_the_bounds():
    for n in (4, 5, 6, 10, 30, 81):
        assert catalog("pcu", n=n)[1].expected_quotient == bound_even(n, 2 * n) == float(n) ** n
        assert catalog("cube_net", n=n)[1].expected_quotient == float(n) ** n
        assert catalog("simplex_net", n=n)[1].expected_quotient == bound_dipole(n) \
            == math.sqrt((n + 1) ** (n - 1) * n ** n)


def test_simplex_net_builds_past_the_float_range_of_its_product():
    # (n+1)^(n-1) n^n overflows a float from n = 82; its root does not
    net, entry = catalog("simplex_net", n=82)
    assert entry.expected_quotient == bound_dipole(82)
    assert validate(net).ok
    assert length_quotient(net) == pytest.approx(entry.expected_quotient, rel=1e-13)


def test_catalog_cds_parameter_range():
    for t in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            catalog("cds", t=t)


def test_cds_constant_in_parameter():
    values = [length_quotient(catalog("cds", t=t)[0])
              for t in np.arange(0.05, 0.96, 0.05)]
    assert max(values) - min(values) <= 1e-12 * 27


def test_cds_degenerates_towards_collapse():
    # shrinking the parameter shrinks one bridge towards zero length
    short = edge_lengths(catalog("cds", t=1e-3)[0]).min()
    assert short == pytest.approx(1e-3, rel=1e-9)


def test_simplex_net_matches_hcb():
    q2 = length_quotient(catalog("simplex_net", n=2)[0])
    qh = length_quotient(catalog("hcb")[0])
    assert abs(q2 - qh) <= 1e-12 * qh


def test_simplex_vertices_geometry():
    for n in (2, 3, 4, 5, 6):
        verts = regular_simplex_vertices(n)
        radii = np.linalg.norm(verts, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-12)
        dots = verts @ verts.T
        off = dots[~np.eye(n + 1, dtype=bool)]
        assert np.allclose(off, -1.0 / n, atol=1e-12)
        assert np.allclose(verts.sum(axis=0), 0.0, atol=1e-12)


def test_bnn_equality_relations_exact():
    net, _ = catalog("bnn")
    vecs = edge_vectors(net)
    g = net.graph
    loops = [vecs[e] for e in range(g.edge_count) if g.tails[e] == g.heads[e]]
    bridges = [vecs[e] for e in range(g.edge_count) if g.tails[e] != g.heads[e]]
    x = [np.linalg.norm(v) for v in bridges]
    y, z = (np.linalg.norm(v) for v in loops)
    assert 2 * y + 2 * z == pytest.approx(3 * x[0], rel=1e-14)
    assert x[0] == pytest.approx(x[1], rel=1e-14) == pytest.approx(x[2], rel=1e-14)
    assert y == pytest.approx(z, rel=1e-14)
    normal = np.cross(bridges[0], bridges[1])
    normal /= np.linalg.norm(normal)
    assert abs(abs(loops[0] @ normal) - y) <= 1e-14


def test_sqp_square_pyramid_geometry():
    net, _ = catalog("sqp")
    vecs = edge_vectors(net)
    r = np.linalg.norm(vecs, axis=1)
    apex = int(np.argmax(r))
    base = np.delete(vecs, apex, axis=0)
    xb = np.delete(r, apex)
    assert np.allclose(xb, 8.0 / 13.0 * r[apex], rtol=1e-14)
    # base plane z = -1/4: the probe vertex sits at height x1/4 over it
    assert np.allclose(base[:, 2], -xb.mean() / 4, atol=1e-14)
    L = r.sum()
    apex_height = vecs[apex][2] - base[0, 2]
    assert apex_height == pytest.approx(L / 3, rel=1e-14)


def test_bouquet_construction_values():
    net = construct_bouquet(3, 8, Lattice(np.eye(3)))
    assert length(net) == pytest.approx(3 + math.sqrt(2), rel=1e-14)
    assert classify(net.graph).tag == "B4"
    net = construct_bouquet(2, 4, Lattice(np.eye(2)))
    assert length(net) == pytest.approx(2.0)
    assert length_quotient(net) == pytest.approx(4.0)


def test_bouquet_rejects_odd_or_small_degree():
    with pytest.raises(ValueError):
        construct_bouquet(3, 7, Lattice(np.eye(3)))
    with pytest.raises(ValueError):
        construct_bouquet(3, 4, Lattice(np.eye(3)))


def test_even_two_vertex_plane_example():
    net = construct_even_two_vertex(2, 4, Lattice(np.eye(2)), 0.5)
    assert length(net) == pytest.approx(3.0, rel=1e-14)
    assert length_quotient(net) == pytest.approx(9.0, rel=1e-13)
    assert classify(net.graph).tag == "D1,2"


def test_even_two_vertex_cds_flavour():
    net = construct_even_two_vertex(3, 4, Lattice(np.eye(3)), 0.5)
    assert length_quotient(net) == pytest.approx(27.0, rel=1e-13)
    assert classify(net.graph).tag == "D1,2"


def test_even_two_vertex_param_validation():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            construct_even_two_vertex(3, 4, Lattice(np.eye(3)), bad)


def test_odd_construction_hexagonal_lattice():
    # unit generators at 60 degrees: the Fermat point is the centroid and
    # the result is the honeycomb
    lat = Lattice(np.array([[1.0, 0.5], [0.0, math.sqrt(3) / 2]]))
    net = construct_odd(2, 3, lat)
    assert classify(net.graph).tag == "D3"
    assert is_balanced(net, 1e-9)
    assert length_quotient(net) == pytest.approx(2 * math.sqrt(3), rel=1e-9)


def test_odd_construction_hexagonal_times_orthogonal():
    # in-plane hexagonal generators with an orthogonal third axis give a
    # degree-5 network of bnn type, balanced but generally not optimal
    lat = Lattice(np.array([[1.0, 0.5, 0.0],
                            [0.0, math.sqrt(3) / 2, 0.0],
                            [0.0, 0.0, 1.3]]))
    net = construct_odd(3, 5, lat)
    rep = validate(net)
    assert rep.ok and is_balanced(net, 1e-9)
    assert classify(net.graph).tag == "D1,3"


def test_odd_construction_skewed_lattice_reduces():
    # badly skewed in-plane generators are reduced before the Fermat step
    rng = np.random.default_rng(3)
    for n in (2, 3):
        base = np.eye(n)
        base[:, 1] = base[:, 0] * 7 + base[:, 1]
        lat = Lattice(base + 0.01 * rng.normal(size=(n, n)))
        d = n + 1 if (n + 1) % 2 == 1 else n + 2
        net = construct_odd(n, d, lat)
        rep = validate(net)
        assert rep.ok and is_balanced(net, 1e-9)


def test_construction_grid_identity_lattice():
    for n in (2, 3, 4, 5):
        lat = Lattice(np.eye(n))
        for d in range(n + 1, 2 * n + 4):
            if d % 2 == 1:
                nets = [(construct_odd(n, d, lat), f"D{(d - 3) // 2},3"
                         if d > 3 else "D3")]
            else:
                nets = [(construct_even_two_vertex(n, d, lat, 0.3),
                         f"D{d // 2 - 1},2")]
                if d >= 2 * n:
                    nets.append((construct_bouquet(n, d, lat), f"B{d // 2}"))
            for net, want in nets:
                rep = validate(net)
                assert rep.ok, (n, d, rep.violations)
                assert is_balanced(net, 1e-9), (n, d)
                assert classify(net.graph).tag == want


def test_construction_nonidentity_lattice():
    rng = np.random.default_rng(9)
    B = np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3))
    lat = Lattice(B)
    for d, builder in [(6, construct_bouquet), (5, construct_odd),
                       (4, lambda n, d, l: construct_even_two_vertex(n, d, l, 0.4))]:
        net = builder(3, d, lat)
        rep = validate(net)
        assert rep.ok and is_balanced(net, 1e-9)
        assert volume(net) == pytest.approx(abs(np.linalg.det(B)), rel=1e-12)


def _reference_parallel(s, t):
    return all(s[i] * t[j] == s[j] * t[i] for i in range(len(s)) for j in range(i + 1, len(s)))


def _reference_pick_loops(n, basis, per_vertex, required, *, skip_axes=(),
                          out_of_plane=False, avoid_dirs=()):
    """The two-vertex loop placement as first written: the required shifts
    dealt round-robin, then each vertex topped up from the shift pool."""
    chosen = [[], []]
    queue = list(required)
    slot = 0
    while queue:
        v = slot % 2
        if len(chosen[v]) < per_vertex:
            chosen[v].append(queue.pop(0))
        slot += 1
        if slot > 4 * per_vertex + 8:
            raise RuntimeError("cannot place required loop shifts")
    pool = construct._shift_pool(n, basis)
    if out_of_plane:
        pool = [s for s in pool if any(s[i] for i in range(n) if i not in skip_axes)]
    else:
        pool = [s for s in pool
                if not any(_reference_parallel(s, construct._unit_shift(n, i))
                           for i in skip_axes)]
    for v in range(2):
        for cand in pool:
            if len(chosen[v]) == per_vertex:
                break
            if any(_reference_parallel(cand, s) for s in chosen[v]):
                continue
            vec = basis @ np.array(cand, float)
            u = vec / np.linalg.norm(vec)
            if any(min(np.max(np.abs(u - w)), np.max(np.abs(u + w))) < DIRECTION_TOL
                   for w in avoid_dirs):
                continue
            chosen[v].append(cand)
        if len(chosen[v]) < per_vertex:
            raise RuntimeError("shift pool exhausted while placing loops")
    return chosen


def _reference_loop_edges(n, basis, per_vertex, required, **kw):
    # the constructors skipped the placement when no loop was needed
    loops = _reference_pick_loops(n, basis, per_vertex, required, **kw) \
        if per_vertex else [[], []]
    return [(0, 0, s) for s in loops[0]] + [(1, 1, s) for s in loops[1]]


def _reference_bouquet(n, d, lattice):
    B = lattice.basis
    chosen = [construct._unit_shift(n, i) for i in range(n)]
    for cand in construct._shift_pool(n, B):
        if len(chosen) == d // 2:
            break
        if any(_reference_parallel(cand, s) for s in chosen):
            continue
        chosen.append(cand)
    return construct._net(n, 1, [(0, 0, s) for s in chosen], B, np.zeros((1, n)))


def _outcome(builder, *args):
    try:
        return network_to_json(builder(*args))
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def test_construction_grid_matches_reference_placement(monkeypatch):
    builders = (construct_odd, construct_even_two_vertex)
    built = 0
    for n in range(2, 6):
        for d in range(n + 1, 2 * n + 4):
            for k in range(3):
                rng = np.random.default_rng((n, d, k))
                lat = Lattice(np.eye(n) + rng.uniform(-0.4, 0.4, (n, n)))
                if d % 2 == 0 and d >= 2 * n:
                    assert _outcome(construct_bouquet, n, d, lat) \
                        == network_to_json(_reference_bouquet(n, d, lat))
                    built += 1
                got = [_outcome(b, n, d, lat) for b in builders]
                with monkeypatch.context() as m:
                    m.setattr(construct, "_pick_loops", _reference_loop_edges)
                    want = [_outcome(b, n, d, lat) for b in builders]
                assert got == want, (n, d, k)
                built += sum(isinstance(x, str) for x in got)
    assert built == 102
