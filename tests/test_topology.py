from itertools import combinations, permutations, product

import numpy as np
import pytest

from perinet import (
    QuotientGraph,
    TopologyClass,
    build_abstract,
    catalog,
    circuit_rank,
    classify,
    enumerate_shifts,
    min_vertex_count,
    validate,
)
from perinet.intlinalg import smith_invariant_factors
from perinet.netcore import Lattice, PeriodicNetwork
from perinet.topology import enumerate_shift_arrays, shift_orbits


def test_circuit_rank_bouquet():
    assert circuit_rank(build_abstract("B3", 3)) == 3


def test_circuit_rank_double_bouquet():
    # two vertices, five edges: rank four
    assert circuit_rank(build_abstract("D1,3", 3)) == 4


def test_circuit_rank_dipole():
    assert circuit_rank(build_abstract("D4", 3)) == 3


def test_circuit_rank_disconnected_raises():
    g = QuotientGraph.from_edges(2, 2, [(0, 0, (1, 0)), (1, 1, (0, 1))])
    with pytest.raises(ValueError):
        circuit_rank(g)


def test_classify_catalog():
    assert classify(catalog("pcu", n=3)[0].graph).tag == "B3"
    assert classify(catalog("bnn")[0].graph).tag == "D1,3"
    assert classify(catalog("sqp")[0].graph).tag == "D5"
    assert classify(catalog("cds", t=0.5)[0].graph).tag == "D1,2"
    assert classify(catalog("hcb")[0].graph).tag == "D3"


def test_classify_other():
    # three vertices in a 4-regular ring with doubled edges
    g = QuotientGraph.from_edges(2, 3, [(0, 1, (0, 0)), (0, 1, (1, 0)),
                                        (1, 2, (0, 0)), (1, 2, (0, 1)),
                                        (2, 0, (0, 0)), (2, 0, (1, 1))])
    assert classify(g).kind == "other"


def test_classify_irregular_raises():
    g = QuotientGraph.from_edges(2, 2, [(0, 1, (0, 0)), (0, 0, (1, 0))])
    with pytest.raises(ValueError, match="regular"):
        classify(g)


def test_classify_build_abstract_roundtrip():
    tags = ["B2", "B3", "B5", "D3", "D4", "D5", "D7",
            "D1,2", "D1,3", "D2,2", "D2,3", "D3,4"]
    for tag in tags:
        top = TopologyClass.from_tag(tag)
        g = build_abstract(top, max(top.circuit_rank, 2))
        got = classify(g)
        assert got.tag == top.tag
        assert got.degree == top.degree
        assert got.circuit_rank == top.circuit_rank
        assert got.vertex_count == top.vertex_count


def test_tag_parsing_variants():
    assert TopologyClass.from_tag("d1_3").tag == "D1,3"
    assert TopologyClass.from_tag("b4").tag == "B4"
    with pytest.raises(ValueError):
        TopologyClass.from_tag("X7")


def test_degree_bookkeeping():
    for tag in ("B3", "D5", "D2,3", "D1,2"):
        g = build_abstract(tag, 3)
        deg = g.degrees()
        assert 2 * g.edge_count == int(deg[0]) * g.vertex_count


def test_min_vertex_count_examples():
    count, adm = min_vertex_count(3, 4)
    assert count == 2 and [t.tag for t in adm] == ["D4", "D1,2"]
    count, adm = min_vertex_count(3, 6)
    assert count == 1 and [t.tag for t in adm] == ["B3"]
    count, adm = min_vertex_count(3, 5)
    assert count == 2 and [t.tag for t in adm] == ["D5", "D1,3"]
    count, adm = min_vertex_count(2, 3)
    assert count == 2 and [t.tag for t in adm] == ["D3"]


def test_min_vertex_count_low_degree_region():
    # d <= n: only the counting bound, no structural candidates
    count, adm = min_vertex_count(4, 3)
    assert count == 6 and adm == []
    count, adm = min_vertex_count(3, 3)
    assert count == 4 and adm == []
    count, adm = min_vertex_count(5, 4)
    assert count == 4 and adm == []


def test_min_vertex_count_errors():
    with pytest.raises(ValueError):
        min_vertex_count(3, 2)
    with pytest.raises(ValueError):
        min_vertex_count(1, 4)


def test_build_abstract_structures():
    g = build_abstract("B4", 3)
    assert g.vertex_count == 1 and g.edge_count == 4
    g = build_abstract("D1,2", 2)
    assert g.vertex_count == 2 and g.edge_count == 4
    assert classify(g).degree == 4
    g = build_abstract("D5", 4)
    assert g.vertex_count == 2 and g.edge_count == 5
    with pytest.raises(ValueError):
        build_abstract("other", 3)


def _as_sets(shift_list):
    return [frozenset(map(tuple, np.asarray(s).tolist())) for s in shift_list]


def test_enumerate_contains_standard_bouquet():
    arrays = enumerate_shift_arrays(build_abstract("B3", 3), 3, 1)
    target = frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)})
    assert target in _as_sets(arrays)


def test_enumerate_contains_dia_pattern():
    arrays = enumerate_shift_arrays(build_abstract("D4", 3), 3, 1)
    sets = _as_sets(arrays)
    dia = frozenset({(0, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1)})
    neg = frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)})
    assert dia in sets or neg in sets


def test_enumerate_contains_sqp_pattern():
    arrays = enumerate_shift_arrays(build_abstract("D5", 3), 3, 1)
    sets = _as_sets(arrays)
    sqp = frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1)})
    neg = frozenset({(0, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, 1, -1)})
    assert sqp in sets or neg in sets


def test_enumerate_all_valid_and_deduplicated():
    for tag, n in [("B3", 3), ("D4", 3), ("D1,2", 3), ("D3", 2)]:
        graphs = enumerate_shifts(build_abstract(tag, n), n, 1)
        assert graphs
        seen = set()
        for g in graphs:
            rep = validate(PeriodicNetwork(g, Lattice(np.eye(n)),
                                           np.zeros((g.vertex_count, n))))
            assert rep.rank_full and rep.lift_connected
            key = tuple(map(tuple, g.shifts.tolist()))
            neg = tuple(map(tuple, (-g.shifts).tolist()))
            assert key not in seen and neg not in seen
            seen.add(key)


def test_enumerate_assignment_counts():
    # frozen counts for the canonical one- and two-vertex skeletons
    expect = {("B3", 3): 145, ("D4", 3): 580, ("D1,2", 3): 870,
              ("D5", 3): 5590, ("D3", 2): 10}
    for (tag, n), count in expect.items():
        assert len(enumerate_shift_arrays(build_abstract(tag, n), n, 1)) == count


def _reference_shift_arrays(skeleton, n, s_max):
    """The enumeration written out candidate by candidate.

    Loop sets at each vertex (sign-canonical classes), then free bridge
    sets (the first bridge fixed at zero), all in lexicographic order; a
    candidate is kept when its free rows have Smith factors all 1 and no
    earlier candidate is its bridge negation.
    """
    nonzero = [s for s in product(range(-s_max, s_max + 1), repeat=n) if any(s)]
    classes = sorted({max(s, tuple(-x for x in s)) for s in nonzero})
    edges = list(zip(skeleton.tails.tolist(), skeleton.heads.tolist()))
    loops0 = [e for e, (t, h) in enumerate(edges) if t == h == 0]
    loops1 = [e for e, (t, h) in enumerate(edges) if t == h == 1]
    bridges = [e for e, (t, h) in enumerate(edges) if t != h]
    out, seen = [], set()
    for la in combinations(classes, len(loops0)):
        for lb in combinations(classes, len(loops1)):
            for br in combinations(nonzero, max(len(bridges) - 1, 0)):
                rows = la + lb + br
                if len(rows) < n or smith_invariant_factors(rows) != (1,) * n:
                    continue
                if (la, lb, frozenset(tuple(-x for x in s) for s in br)) in seen:
                    continue
                seen.add((la, lb, frozenset(br)))
                S = np.zeros((skeleton.edge_count, n), dtype=np.int64)
                for e, s in zip(loops0 + loops1 + bridges[1:], rows):
                    S[e] = s
                out.append(S)
    return out


@pytest.mark.parametrize("tag,n,s_max", [
    ("B3", 3, 1), ("D4", 3, 1), ("D1,2", 3, 1), ("D5", 3, 1),
    ("D3", 2, 1), ("D3", 2, 2), ("B2", 2, 2), ("D1,1", 2, 2),
])
def test_enumerate_matches_reference(tag, n, s_max):
    skeleton = build_abstract(tag, n)
    ref = _reference_shift_arrays(skeleton, n, s_max)
    got = enumerate_shift_arrays(skeleton, n, s_max)
    assert len(got) == len(ref)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_enumerate_guard_trips():
    with pytest.raises(RuntimeError, match="exceeds"):
        enumerate_shift_arrays(build_abstract("D5", 3), 3, 3)


def test_admissible_topologies_have_assignments():
    # existence of a full-rank, lattice-generating assignment for every
    # admissible type; lazily, so the large n = 4 spaces stay cheap
    from itertools import islice

    from perinet.topology import iter_shift_arrays

    for n in (2, 3, 4):
        for d in range(n + 1, 2 * n + 1):
            _, admissible = min_vertex_count(n, d)
            assert admissible
            for top in admissible:
                skeleton = build_abstract(top, n)
                try:
                    arrays = list(islice(iter_shift_arrays(skeleton, n, 1), 1))
                except RuntimeError:
                    continue
                assert arrays, f"no assignment for {top.tag} at n={n}"
                g = QuotientGraph(n, top.vertex_count, skeleton.tails,
                                  skeleton.heads, arrays[0])
                assert circuit_rank(g) >= n


@pytest.mark.parametrize("tag,n,count", [
    ("B3", 3, 1), ("D4", 3, 1), ("D1,2", 3, 1), ("D5", 3, 30), ("D1,3", 3, 46),
    ("B4", 3, 10), ("D5", 4, 1), ("B4", 4, 1), ("D3", 2, 1),
])
def test_shift_orbit_counts(tag, n, count):
    skeleton = build_abstract(tag, n)
    orbits = shift_orbits(skeleton, n, 1)
    assert len(orbits) == count
    arrays = enumerate_shift_arrays(skeleton, n, 1)
    members = np.sort(np.concatenate([o.members for o in orbits]))
    assert np.array_equal(members, np.arange(len(arrays)))
    assert sum(o.size for o in orbits) == len(arrays)
    for o in orbits:
        assert o.index == o.members.min()
        assert np.array_equal(o.shifts, arrays[o.index])
    assert [o.index for o in orbits] == sorted(o.index for o in orbits)


def _dipole_automorphisms(loops: int, bridges: int):
    """(edge order, edge signs) of each automorphism of the D_{l,k} skeleton.

    Edge order as in build_abstract: loops at vertex 0, loops at vertex 1,
    bridges 0 -> 1.  Loops may be permuted and reversed at their vertex,
    bridges permuted; swapping the vertices exchanges the loops and
    reverses every bridge.
    """
    at0 = list(range(loops))
    at1 = list(range(loops, 2 * loops))
    br = list(range(2 * loops, 2 * loops + bridges))
    for swap in (False, True):
        first, second = (at1, at0) if swap else (at0, at1)
        for p0 in permutations(first):
            for p1 in permutations(second):
                for pb in permutations(br):
                    for flips in product((1, -1), repeat=2 * loops):
                        yield (list(p0) + list(p1) + list(pb),
                               list(flips) + [-1 if swap else 1] * bridges)


def _cycle_rows(S, loops):
    # loops, then each further bridge against the first: one row per cycle
    bridges = S[:, 2 * loops:]
    return np.concatenate([S[:, :2 * loops], bridges[:, 1:] - bridges[:, :1]], axis=1)


def _unimodular_match(C, T):
    """Per row: is there a unimodular integer X with C X = T exactly?"""
    Ct = C.transpose(0, 2, 1).astype(float)
    X = np.rint(np.linalg.solve(Ct @ C, Ct @ T)).astype(np.int64)
    exact = (np.einsum('acj,ajk->ack', C, X) == T).all(axis=(1, 2))
    return exact & (np.abs(np.rint(np.linalg.det(X))) == 1)


@pytest.mark.parametrize("tag,loops,bridges", [("D5", 0, 5), ("D1,3", 1, 3)])
def test_shift_orbits_brute_force(tag, loops, bridges):
    # oracle without relation vectors: every assignment maps onto the
    # cycle-shift matrix of its representative by an automorphism and a
    # unimodular basis change, and no two representatives are related
    skeleton = build_abstract(tag, 3)
    S = np.stack(enumerate_shift_arrays(skeleton, 3, 1))
    orbits = shift_orbits(skeleton, 3, 1)
    rep = np.empty(len(S), dtype=np.int64)
    for o in orbits:
        rep[o.members] = o.index
    target = _cycle_rows(S[rep], loops)
    reps = S[[o.index for o in orbits]]
    K = len(reps)
    found = np.zeros(len(S), dtype=bool)
    related = np.zeros((K, K), dtype=bool)
    for order, signs in _dipole_automorphisms(loops, bridges):
        signs = np.array(signs)[None, :, None]
        todo = np.flatnonzero(~found)
        if len(todo):
            C = _cycle_rows(signs * S[todo][:, order], loops)
            found[todo] = _unimodular_match(C, target[todo])
        C = _cycle_rows(signs * reps[:, order], loops)
        Cr = np.repeat(C, K, axis=0)
        Tr = np.tile(_cycle_rows(reps, loops), (K, 1, 1))
        related |= _unimodular_match(Cr, Tr).reshape(K, K)
    assert found.all(), np.flatnonzero(~found)[:10]
    assert np.array_equal(related, np.eye(K, dtype=bool))
