import hashlib
import math
from itertools import combinations, permutations, product
from math import gcd

import numpy as np
import pytest

from perinet import (
    QuotientGraph,
    TopologyClass,
    build_abstract,
    catalog,
    classify,
    min_vertex_count,
    validate,
    verify,
)
from perinet.intlinalg import det_int, det_int_batch, smith_invariant_factors
from perinet.netcore import Lattice, PeriodicNetwork
from perinet import topology
from perinet.optimize import OptimizeConfig, minimize_topology
from perinet.topology import _relation_keys, enumerate_shift_arrays, oriented_star, shift_orbits


def test_circuit_rank_bouquet():
    assert classify(build_abstract("B3", 3)).circuit_rank == 3


def test_circuit_rank_double_bouquet():
    # two vertices, five edges: rank four
    assert classify(build_abstract("D1,3", 3)).circuit_rank == 4


def test_circuit_rank_dipole():
    assert classify(build_abstract("D4", 3)).circuit_rank == 3


def test_circuit_rank_disconnected_raises():
    g = QuotientGraph.from_edges(2, 2, [(0, 0, (1, 0)), (1, 1, (0, 1))])
    with pytest.raises(ValueError, match="connected"):
        classify(g)


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
        skeleton = build_abstract(tag, n)
        arrays = enumerate_shift_arrays(skeleton, n, 1)
        assert len(arrays)
        seen = set()
        for S in arrays:
            g = QuotientGraph(n, skeleton.vertex_count, skeleton.tails, skeleton.heads, S)
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


def _skeleton(tag, n):
    """``build_abstract(tag, n)``, or for "D1,2 reordered" a D1,2 skeleton
    with its edges out of that order: the loop at vertex 1, a bridge
    1 -> 0, the loop at vertex 0, then a bridge 0 -> 1."""
    if tag != "D1,2 reordered":
        return build_abstract(tag, n)
    z = [0] * n
    return QuotientGraph.from_edges(n, 2, [(1, 1, z), (1, 0, z), (0, 0, z), (0, 1, z)])


def _reference_shift_arrays(skeleton, n, s_max):
    """The enumeration written out candidate by candidate.

    Loop sets at each vertex (sign-canonical classes), then free bridge
    sets (the first bridge fixed at zero), all in lexicographic order; a
    candidate is kept when no two loops at one vertex have proportional
    shifts, its free rows have Smith factors all 1 and no earlier candidate
    is its bridge negation.
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
                if any(_proportional(s, t) for ls in (la, lb) for s, t in combinations(ls, 2)):
                    continue
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


def _proportional(s, t):
    """Whether two shifts are proportional: every 2 x 2 minor of (s, t) is 0."""
    return all(s[i] * t[j] == s[j] * t[i] for i, j in combinations(range(len(s)), 2))


@pytest.mark.parametrize("tag,n,s_max", [
    ("B3", 3, 1), ("D4", 3, 1), ("D1,2", 3, 1), ("D5", 3, 1),
    ("D3", 2, 1), ("D3", 2, 2), ("B2", 2, 2), ("D1,1", 2, 2),
    ("D1,2 reordered", 2, 1), ("D1,2 reordered", 2, 2), ("B3", 2, 2),
])
def test_enumerate_matches_reference(tag, n, s_max):
    skeleton = _skeleton(tag, n)
    ref = _reference_shift_arrays(skeleton, n, s_max)
    got = enumerate_shift_arrays(skeleton, n, s_max)
    assert len(got) == len(ref)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("tag,n,orbits", [("B3", 2, 17), ("B4", 3, 1444)])
def test_orbits_at_s_max_2_have_valid_realizations(tag, n, orbits):
    # two loops at one vertex with proportional shifts leave it in one
    # direction in every realization; the enumeration skips such loop sets
    # (one orbit of each topology here), so every representative passes
    # facts() and the search returns
    g = build_abstract(tag, n)
    reps = shift_orbits(g, n, 2)
    assert len(reps) == orbits
    for S in reps:
        assert not any(QuotientGraph(n, g.vertex_count, g.tails, g.heads, S).facts().violations)
    res = minimize_topology(tag, n, OptimizeConfig(s_max=2))
    assert validate(res.network).ok


def test_enumerate_guard_trips():
    with pytest.raises(RuntimeError, match="exceeds"):
        enumerate_shift_arrays(build_abstract("D5", 3), 3, 3)


def test_admissible_topologies_have_assignments():
    # existence of a full-rank, lattice-generating assignment for every
    # admissible type whose orbits are found under ENUMERATION_LIMIT
    for n in (2, 3, 4):
        for d in range(n + 1, 2 * n + 1):
            _, admissible = min_vertex_count(n, d)
            assert admissible
            for top in admissible:
                skeleton = build_abstract(top, n)
                try:
                    reps = shift_orbits(skeleton, n, 1)
                except RuntimeError:
                    continue
                assert len(reps), f"no assignment for {top.tag} at n={n}"
                g = QuotientGraph(n, top.vertex_count, skeleton.tails,
                                  skeleton.heads, reps[0])
                assert classify(g).circuit_rank >= n
                assert smith_invariant_factors(g.cycle_shift_matrix()) == (1,) * n


@pytest.mark.parametrize("tag,n,count", [
    ("B3", 3, 1), ("D4", 3, 1), ("D1,2", 3, 1), ("D5", 3, 30), ("D1,3", 3, 46),
    ("B4", 3, 10), ("D5", 4, 1), ("B4", 4, 1), ("D3", 2, 1),
])
def test_shift_orbit_counts(tag, n, count):
    skeleton = build_abstract(tag, n)
    reps = shift_orbits(skeleton, n, 1)
    assert reps.shape == (count, skeleton.edge_count, n)
    arrays = enumerate_shift_arrays(skeleton, n, 1)
    labels = _orbit_labels(skeleton, n, reps, arrays)
    # every enumerated assignment falls in exactly one class, every class
    # is met, and an enumerated class is represented by its first member
    assert np.array_equal(np.unique(labels), np.arange(count))
    if classify(skeleton).circuit_rank == n + 1:
        first = np.unique(labels, return_index=True)[1]
        assert np.array_equal(reps, arrays[first])
        assert np.array_equal(first, np.sort(first))


@pytest.mark.parametrize("tag,screened,keyed,enumerated", [("D1,3", 1308, 786, 19380),
                                                           ("D5", 769, 531, 5590)])
def test_shift_orbits_screen_and_key_the_folded_candidates_once(monkeypatch, tag, screened,
                                                                keyed, enumerated):
    # the orbit search builds only the candidates that no signed coordinate
    # permutation maps earlier, screens them in one pass and keys every kept
    # one once, a small share of the assignments the enumeration keeps
    rows, keys = [], []
    screen, relation_keys = topology._rows_generate_zn, topology._relation_keys
    monkeypatch.setattr(topology, "_rows_generate_zn",
                        lambda C, n, s_max: rows.append(C.shape[-1]) or screen(C, n, s_max))
    monkeypatch.setattr(topology, "_relation_keys",
                        lambda g, minors: keys.append(minors.shape[1]) or relation_keys(g, minors))
    skeleton = build_abstract(tag, 3)
    shift_orbits(skeleton, 3, 1)
    assert rows == [screened] and keys == [keyed]
    assert len(enumerate_shift_arrays(skeleton, 3, 1)) == enumerated


@pytest.mark.parametrize("tag,count", [("D5", 18), ("D1,3", 60), ("D7", 8)])
def test_circuit_rank_past_n_plus_1_folds_by_signed_permutations(tag, count):
    # past r = n + 1 nothing is keyed: the assignments the signed coordinate
    # permutations fold to are the representatives, each an enumerated one
    # in the enumeration's order, and every enumerated assignment maps onto
    # one of them by a skeleton automorphism and a unimodular basis change
    # (two may be related: the last bridge is folded by -I alone); the
    # search over them ends on a valid network above the strict
    # degree-floor bound
    skeleton = build_abstract(tag, 2)
    top = classify(skeleton)
    assert top.circuit_rank >= 4
    S = enumerate_shift_arrays(skeleton, 2, 1)
    reps = shift_orbits(skeleton, 2, 1)
    assert len(reps) == count
    at = {a.tobytes(): i for i, a in enumerate(S)}
    pos = np.array([at.get(a.tobytes(), -1) for a in reps])
    assert pos[0] >= 0 and (np.diff(pos) > 0).all()
    targets = _cycle_rows(reps, top.loops)
    found = np.zeros(len(S), dtype=bool)
    for order, signs in _dipole_automorphisms(top.loops, top.bridges):
        todo = np.flatnonzero(~found)
        if not len(todo):
            break
        C = _cycle_rows(np.array(signs)[None, :, None] * S[todo][:, order], top.loops)
        match = _unimodular_match(np.repeat(C, count, axis=0), np.tile(targets, (len(todo), 1, 1)))
        found[todo] = match.reshape(len(todo), count).any(axis=1)
    assert found.all(), np.flatnonzero(~found)[:10]
    res = minimize_topology(tag, 2, OptimizeConfig(seed=1))
    assert validate(res.network).ok
    rep = verify(res.network)
    assert rep.theorem == "degree-floor" and rep.strict and rep.slack > 0


def _cycle_matrices(g, S):
    """Cycle-shift matrices (N, r, n) of the stacked assignments ``S`` of ``g``."""
    E = g.edge_count
    Z = QuotientGraph(E, g.vertex_count, g.tails, g.heads,
                      np.eye(E, dtype=np.int64)).cycle_shift_matrix()
    return np.einsum('ce,aei->aci', Z, S)


def _minors(g, S):
    """The n x n minors of the cycle-shift matrices of the stacked
    assignments ``S``, laid out as ``_relation_keys`` reads them: one row
    per n-subset of the cycles in lexicographic order, one column per
    assignment."""
    C = _cycle_matrices(g, S)
    return np.stack([det_int_batch(C[:, list(sub)])
                     for sub in combinations(range(C.shape[1]), g.dim)])


@pytest.mark.parametrize("tag,kept", [("D4", False), ("D5", True), ("D6", False)])
def test_screen_keeps_minors_only_at_rank_n_plus_1(tag, kept):
    # only the orbit fold at circuit rank n + 1 reads the screen's minors:
    # none are kept at r = n (D4 in R^3) or r = n + 2 (D6)
    g = build_abstract(tag, 3)
    C, minors = topology._screened_rows(g, 3, 1)
    S = enumerate_shift_arrays(g, 3, 1)
    assert np.array_equal(C, _cycle_matrices(g, S))
    assert (minors is not None) == kept
    if kept:
        assert np.array_equal(minors, _minors(g, S))


def _orbit_labels(g, n, reps, S):
    """Position in ``reps`` of the class of each assignment in ``S``.

    At circuit rank n every valid assignment is one class with the single
    representative: its cycle-shift matrix is unimodular, and the
    representative's is I_n.  At rank n + 1 classes are read from the
    relation keys of ``reps`` and ``S`` ranked together, which must give
    the representatives distinct keys.
    """
    if classify(g).circuit_rank == n:
        assert len(reps) == 1
        assert np.array_equal(_cycle_matrices(g, reps)[0], np.eye(n, dtype=np.int64))
        assert (np.abs(det_int_batch(_cycle_matrices(g, S))) == 1).all()
        return np.zeros(len(S), dtype=np.int64)
    keys = _relation_keys(g, _minors(g, np.concatenate([reps, S])))
    rep_keys, keys = keys[:len(reps)], keys[len(reps):]
    order = np.argsort(rep_keys)
    assert len(np.unique(rep_keys)) == len(reps)
    pos = np.minimum(np.searchsorted(rep_keys[order], keys), len(reps) - 1)
    assert np.array_equal(rep_keys[order][pos], keys)
    return order[pos]


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


@pytest.mark.parametrize("tag,loops,bridges", [("D5", 0, 5), ("D1,3", 1, 3),
                                               ("D4", 0, 4), ("D1,2", 1, 2)])
def test_shift_orbits_brute_force(tag, loops, bridges):
    # oracle without relation vectors: every assignment maps onto the
    # cycle-shift matrix of its representative by an automorphism and a
    # unimodular basis change, and no two representatives are related;
    # at circuit rank n (D4, D1,2) the representative is built, not enumerated
    skeleton = build_abstract(tag, 3)
    S = enumerate_shift_arrays(skeleton, 3, 1)
    reps = shift_orbits(skeleton, 3, 1)
    target = _cycle_rows(reps[_orbit_labels(skeleton, 3, reps, S)], loops)
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


def _reference_relation_keys(g, S):
    """The relation-vector keying as first written: the images of every
    assignment ranked as rows by ``np.unique(axis=0)``."""
    E = g.edge_count
    Z = QuotientGraph(E, g.vertex_count, g.tails, g.heads,
                      np.eye(E, dtype=np.int64)).cycle_shift_matrix()
    C = np.einsum('ce,aei->aci', Z, S)
    minors = np.stack([(-1) ** i * det_int_batch(np.delete(C, i, axis=1))
                       for i in range(len(Z))], axis=1)
    mu = minors @ Z
    mu //= np.gcd.reduce(mu, axis=1, keepdims=True)
    bridges, sign, _ = oriented_star(g, 0)
    mu_b = mu[:, bridges] * sign
    loops = [np.sort(np.abs(mu[:, oriented_star(g, v)[2]]), axis=1)
             for v in range(g.vertex_count)]
    pos, neg = np.sort(mu_b, axis=1), np.sort(-mu_b, axis=1)
    images = [np.hstack(loops + [pos]), np.hstack(loops + [neg])]
    if g.vertex_count == 2:
        images += [np.hstack(loops[::-1] + [neg]), np.hstack(loops[::-1] + [pos])]
    images = np.stack(images, axis=1)
    _, rank = np.unique(images.reshape(-1, images.shape[2]), axis=0, return_inverse=True)
    return rank.reshape(images.shape[:2]).min(axis=1)


# every one- and two-vertex skeleton of circuit rank n + 1 in dimensions 2
# and 3 under ENUMERATION_LIMIT, at each s_max whose enumeration takes
# about a second or less, and a D1,2 with its edges out of build_abstract
# order; left out for time and memory are D5 and D2,1 at s_max = 2 (1.9 M
# and 1.5 M assignments) and B5 in R^4 (427 k)
@pytest.mark.parametrize("tag,n,s_max", [
    ("D4", 2, 1), ("D4", 2, 2), ("D4", 2, 3), ("D1,2", 2, 1), ("D1,2", 2, 2),
    ("D1,2", 2, 3), ("B3", 2, 1), ("B3", 2, 2), ("B3", 2, 3),
    ("D5", 3, 1), ("D1,3", 3, 1), ("D2,1", 3, 1), ("B4", 3, 1), ("B4", 3, 2),
    ("D1,2 reordered", 2, 1), ("D1,2 reordered", 2, 2), ("D1,2 reordered", 2, 3),
])
def test_shift_orbits_match_reference_keying(tag, n, s_max):
    skeleton = _skeleton(tag, n)
    assert classify(skeleton).circuit_rank == n + 1
    S = enumerate_shift_arrays(skeleton, n, s_max)
    ref = _first_member_labels(_reference_relation_keys(skeleton, S))
    assert np.array_equal(_first_member_labels(_relation_keys(skeleton, _minors(skeleton, S))), ref)
    got = shift_orbits(skeleton, n, s_max)
    first = np.unique(ref, return_index=True)[1]
    assert np.array_equal(got, S[first])
    assert np.array_equal(_orbit_labels(skeleton, n, got, S), ref)


def _first_member_labels(keys):
    """The partition that ``keys`` define, each class numbered by the order
    of its first member; equal arrays mean equal partitions."""
    _, first, labels = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[labels]


@pytest.mark.parametrize("tag,n", [("D4", 3), ("D1,2", 3), ("B3", 3), ("D3", 2),
                                   ("D5", 4), ("D1,3", 4), ("B4", 4)])
def test_circuit_rank_n_orbit_is_built_not_enumerated(monkeypatch, tag, n):
    def no_enumeration(*args):
        raise AssertionError("shift assignments enumerated")

    monkeypatch.setattr(topology, "enumerate_shift_arrays", no_enumeration)
    skeleton = build_abstract(tag, n)
    reps = shift_orbits(skeleton, n, 1)
    assert len(reps) == 1
    g = QuotientGraph(n, skeleton.vertex_count, skeleton.tails, skeleton.heads, reps[0])
    assert np.array_equal(g.cycle_shift_matrix(), np.eye(n, dtype=np.int64))
    res = minimize_topology(tag, n, OptimizeConfig(seed=0))
    assert np.array_equal(res.shifts, reps[0]) and res.assignment_index == 0
    assert np.isfinite(res.value) and validate(res.network).ok


def _rows(sets, k):
    """Index sets of size k as the rows of an int64 array."""
    sets = list(sets)
    return np.array(sets, dtype=np.int64).reshape(len(sets), k)


def _signed_permutation_actions(n, s_max):
    """Every signed coordinate permutation w of Z^n as permutations of the
    indices of the nonzero shifts of the box (product order) and of the
    sign-canonical loop classes, built from the matrices one by one."""
    nonzero = [s for s in product(range(-s_max, s_max + 1), repeat=n) if any(s)]
    classes = sorted({max(s, tuple(-x for x in s)) for s in nonzero})
    at, cls = {s: i for i, s in enumerate(nonzero)}, {c: i for i, c in enumerate(classes)}
    shifts, loops = [], []
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            w = np.eye(n, dtype=np.int64)[list(perm)] * np.array(signs)[:, None]
            images = [tuple((w @ s).tolist()) for s in nonzero]
            shifts.append([at[s] for s in images])
            loops.append([cls[max(s, tuple(-x for x in s))] for s in images[len(classes):]])
    return np.array(shifts), np.array(loops)


def _lex_index(sets, base):
    """Sorted index rows as integers whose order is the lexicographic."""
    return sets @ base ** np.arange(sets.shape[1] - 1, -1, -1)


@pytest.mark.parametrize("tag,n,s_max", [
    ("D5", 3, 1), ("D1,3", 3, 1), ("D2,1", 3, 1), ("B4", 3, 1),
    ("D4", 2, 1), ("D4", 2, 2), ("D1,2", 2, 1), ("D1,2", 2, 2), ("B3", 2, 1), ("B3", 2, 2),
])
def test_signed_permutations_map_the_folded_enumeration_onto_itself(tag, n, s_max):
    # the premise of the orbit search's fold: for every signed coordinate
    # permutation w, the image of each candidate of the enumeration (loop
    # sets on sign-canonical classes, q0 <= q1 on two vertices, a bridge set
    # no later than its negation), folded by loop sign, bridge negation and
    # vertex swap, is a candidate with the same screen verdict; and the maps
    # the search takes (_box_maps) are these, the identity first and -w
    # half of them after w
    g = build_abstract(tag, n)
    top = classify(g)
    shifts, loops = _signed_permutation_actions(n, s_max)
    _, _, maps, loop_maps, _, _ = topology._box_maps(n, s_max)
    G, N = shifts.shape
    Nc = N // 2
    assert sorted(map(tuple, maps.tolist())) == sorted(map(tuple, shifts.tolist()))
    assert np.array_equal(maps[0], np.arange(N))
    assert np.array_equal(maps[G // 2:], N - 1 - maps[:G // 2])
    assert sorted(map(tuple, loop_maps[:G // 2, :Nc].tolist())) == \
        sorted(set(map(tuple, loops.tolist())))
    assert np.array_equal(loop_maps[G // 2:], np.roll(loop_maps[:G // 2], Nc, axis=1))

    classes = np.array(sorted({max(s, tuple(-x for x in s)) for s in
                               product(range(-s_max, s_max + 1), repeat=n) if any(s)}))
    nonzero = np.array([s for s in product(range(-s_max, s_max + 1), repeat=n) if any(s)])
    sets = [c for c in combinations(range(Nc), top.loops)
            if not any(_proportional(classes[a], classes[b]) for a, b in combinations(c, 2))]
    pairs = [(a, b) for i, a in enumerate(sets) for b in sets[i:]] if top.vertex_count == 2 \
        else [(a, ()) for a in sets]
    free = max(top.bridges - 1, 0)
    bridge_sets = [b for b in combinations(range(N), free)
                   if b <= tuple(sorted(N - 1 - x for x in b))]
    q0, q1, b = (_rows(x, k) for x, k in
                 (([p[0] for p in pairs for _ in bridge_sets], top.loops),
                  ([p[1] for p in pairs for _ in bridge_sets], top.loops * (top.vertex_count - 1)),
                  ([x for _ in pairs for x in bridge_sets], free)))
    C = np.concatenate([classes[q0], classes[q1], nonzero[b]], axis=1)
    minors = np.stack([det_int_batch(C[:, list(sub)])
                       for sub in combinations(range(C.shape[1]), n)])
    verdict = np.gcd.reduce(minors, axis=0) == 1
    base = N + 1

    def code(q0, q1, b):
        return (_lex_index(q0, base) * base ** q1.shape[1] + _lex_index(q1, base)) \
            * base ** b.shape[1] + _lex_index(b, base)

    codes = code(q0, q1, b)
    order = np.argsort(codes)
    assert len(np.unique(codes)) == len(codes)
    for w in range(G):
        i0, i1 = np.sort(loops[w][q0], axis=1), np.sort(loops[w][q1], axis=1)
        if top.vertex_count == 2:
            swap = _lex_index(i1, base) < _lex_index(i0, base)
            i0[swap], i1[swap] = i1[swap], i0[swap]
        ib, neg = np.sort(shifts[w][b], axis=1), np.sort(N - 1 - shifts[w][b], axis=1)
        ib = np.where((_lex_index(neg, base) < _lex_index(ib, base))[:, None], neg, ib)
        image = code(i0, i1, ib)
        pos = order[np.minimum(np.searchsorted(codes, image, sorter=order), len(codes) - 1)]
        assert np.array_equal(codes[pos], image), w
        assert np.array_equal(verdict[pos], verdict), w


def _least_by_brute_force(maps, subsets, owners):
    """Per owner (row of ``owners``), the rows of ``subsets`` (M, k), sorted
    index sets, that no map the owner takes sends to a lexicographically
    earlier sorted set."""
    if not subsets.shape[1]:
        return [subsets for _ in owners]
    diff = np.sign(np.sort(maps[:, subsets], axis=2) - subsets)          # (G, M, k)
    first = np.take_along_axis(diff, (diff != 0).argmax(axis=2)[..., None], 2)[..., 0]
    return [subsets[~((first < 0) & own[:, None]).any(axis=0)] for own in owners]


@pytest.mark.parametrize("n,s_max,k_max", [(2, 1, 4), (2, 2, 4), (3, 1, 4), (3, 2, 2)])
def test_least_sets_match_an_exhaustive_check(n, s_max, k_max):
    # the level-by-level generator against every k-subset checked under
    # every map: the full group W on the nonzero shifts and the stabilizer
    # of shift 0, as two owners and as one; and on the loop classes, with
    # proportional classes kept apart.  N = 124 at n = 3, s_max = 2 takes
    # two words of mask; N = 8, 24 and 26 below take one
    _, along, maps, loop_maps, bits, _ = topology._box_maps(n, s_max)
    G, N = maps.shape
    owners = np.stack([np.ones(G, dtype=bool), maps[:, 0] == 0])
    classes = loop_maps[:G // 2, :N // 2]
    class_bits = topology._masks(classes)
    for k in range(k_max + 1):
        subsets = _rows(combinations(range(N), k), k)
        want = _least_by_brute_force(maps, subsets, owners)
        owner, got = topology._least_sets(bits, [(N, k)], owners)
        assert np.array_equal(owner, np.repeat([0, 1], [len(w) for w in want]))
        assert np.array_equal(got, np.concatenate(want))
        assert np.array_equal(topology._least_sets(bits, [(N, k)])[1], want[0])
        subsets = _rows([c for c in combinations(range(N // 2), k)
                         if len(set(along[list(c)].tolist())) == k], k)
        want = _least_by_brute_force(classes, subsets, owners[:1, :G // 2])[0]
        assert np.array_equal(topology._least_sets(class_bits, [(N // 2, k)], along=along)[1], want)


@pytest.mark.parametrize("n,s", [(2, 15), (3, 3), (4, 2)])
def test_screen_minors_are_exact_in_small_integer_types(n, s):
    # int8 rows at the largest entries a feasible enumeration reaches in
    # each dimension, half of them with every entry at +-s, where minors
    # are largest; the minors come out in int32 and equal det_int's
    rng = np.random.default_rng(n)
    rows = np.concatenate([rng.integers(-s, s + 1, size=(n + 2, n, 100)),
                           s * rng.choice([-1, 1], size=(n + 2, n, 100))], axis=2)
    ok, minors = topology._rows_generate_zn(rows.astype(np.int8), n, s)
    assert minors.dtype == np.int32
    ref = [[det_int(rows[list(sub), :, a]) for a in range(rows.shape[2])]
           for sub in combinations(range(n + 2), n)]
    assert minors.tolist() == ref
    assert ok.tolist() == [gcd(*col) == 1 for col in zip(*ref)]
    # past the int32 bound the minors are taken in int64
    big = np.array([[40000, -40000], [40000, 40000]])[:, :, None]
    assert topology._rows_generate_zn(big, 2, 40000)[1].tolist() == [[det_int(big[:, :, 0])]]


def test_det_int_batch_matches_det_int():
    rng = np.random.default_rng(61)
    for m in range(1, 6):
        for lead in [(40,), (3, 7), (0,), (2, 0, 3)]:
            mats = rng.integers(-4, 5, size=lead + (m, m))
            got = det_int_batch(mats)
            assert got.shape == lead
            ref = [det_int(a) for a in mats.reshape(-1, m, m)]
            assert got.ravel().tolist() == ref


def _smith_samples():
    """(kind, matrix) pairs with n = 2..5 columns, r = n..n + 4 rows and
    entries within +-50, given as int64 arrays, integral floats or lists of
    Python ints: ``unit`` has an identity block under unimodular column
    operations and shuffled rows, ``scaled`` one of its columns times 2 to
    4, ``deficient`` a column that combines two others, ``random`` uniform
    entries."""
    rng = np.random.default_rng(39)
    out = []
    for n in range(2, 6):
        for r in range(n, n + 5):
            for _ in range(4):
                M = np.vstack([np.eye(n, dtype=np.int64), rng.integers(-3, 4, (r - n, n))])
                for _ in range(2 * n):
                    i, j = rng.choice(n, 2, replace=False)
                    M[:, i] += int(rng.integers(-2, 3)) * M[:, j]
                M = M[rng.permutation(r)]
                D = M.copy()
                D[:, int(rng.integers(n))] *= int(rng.integers(2, 5))
                K = rng.integers(-9, 10, (r, n))
                K[:, 0] = 2 * K[:, 1] - K[:, -1]
                W = rng.integers(-50, 51, (r, n))
                out += [("unit", M), ("unit", (-M).tolist()), ("unit", M.astype(np.float64)),
                        ("scaled", D), ("deficient", K), ("random", W),
                        ("random", -W.astype(np.float64))]
    return [(kind, m) for kind, m in out if np.abs(np.asarray(m)).max() <= 50]


def test_smith_form_matches_the_elimination_on_every_kind_of_matrix():
    # the factors of 542 matrices, pinned by a digest of what the elimination
    # alone gives; each is a divisibility chain of rank-many factors whose
    # product is the gcd of the maximal minors
    samples = _smith_samples()
    got = [smith_invariant_factors(m) for _, m in samples]
    assert hashlib.sha256(repr(got).encode()).hexdigest()[:20] == "f71df18a5319a3ef95f9"
    paths = set()
    for (kind, m), factors in zip(samples, got):
        a = np.asarray(m).astype(np.int64)
        r, n = a.shape
        assert all(type(f) is int and f > 0 for f in factors)
        assert all(g % f == 0 for f, g in zip(factors, factors[1:]))
        assert len(factors) == np.linalg.matrix_rank(a)
        minors = [det_int(a[list(rows)]) for rows in combinations(range(r), n)]
        if len(factors) == n:
            assert math.prod(factors) == gcd(*minors)
        unit = r <= n + 1 and 1 in map(abs, minors)
        paths.add((kind, unit, r <= n + 1))
        assert kind != "scaled" or factors[-1] > 1
        assert kind != "deficient" or len(factors) < n
    # the unit-minor exit, and the elimination at r <= n + 1 and past it
    assert {("unit", True, True), ("scaled", False, True), ("random", False, True),
            ("deficient", False, True), ("unit", False, False)} <= paths
