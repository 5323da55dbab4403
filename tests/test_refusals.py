"""Boundary refusals of the public API and the command line, one row each.

A row is a call and what it must do: raise the exception type with part of
its message, or, for the command line, exit with the code and print the
text.  Internal invariants that no input reaches (an objective that
increased, a plane reduction that did not terminate, a Fermat point on a
vertex of ``construct_odd``'s triangle) have no row; a comment at the
raise says why.
"""

import io
import json
import re
import sys

import numpy as np
import pytest

from perinet import (Lattice, OptimizeConfig, PeriodicNetwork, PyramidInstance, QuotientGraph,
                     TopologyClass, bound_degree3d, bound_dipole, bound_even, build_abstract, catalog,
                     check_simplex, classify, construct_bouquet, construct_even_two_vertex,
                     construct_odd, dipole5_coefficients, edge_vector, export_obj, force,
                     geometric_median, is_balanced, lifted_neighbours, min_vertex_count,
                     minimize_topology, monotonicity_table, network_from_json, network_to_json,
                     random_network, read_network, rebalance_vertex, regular_simplex_vertices,
                     scaled, write_network)
from perinet.cli import run
from perinet.intlinalg import det_int, smith_invariant_factors
from perinet.topology import enumerate_shift_arrays, shift_orbits
from test_bounds import _unclassifiable_network


def _dia():
    return catalog("dia")[0]


def _dia_graph(**fields):
    """dia's quotient graph with ``fields`` replaced."""
    g = _dia().graph
    args = dict(dim=g.dim, vertex_count=g.vertex_count, tails=g.tails, heads=g.heads,
                shifts=g.shifts)
    return QuotientGraph(**{**args, **fields})


def _sqp_doubled():
    """sqp with its shifts doubled: they span an index-8 sublattice, so no
    triple of neighbour differences is unimodular."""
    net = catalog("sqp")[0]
    g = net.graph
    return PeriodicNetwork(QuotientGraph(3, 2, g.tails, g.heads, 2 * g.shifts),
                           net.lattice, net.positions)


def _dia_json(edit):
    """dia's JSON with ``edit`` applied to the parsed document."""
    doc = json.loads(network_to_json(_dia()))
    edit(doc)
    return json.dumps(doc)


def _triangle():
    """A connected 4-regular graph on three vertices: classified ``other``."""
    return QuotientGraph.from_edges(2, 3, [(0, 1, (0, 0)), (1, 2, (0, 0)), (2, 0, (1, 0))] * 2)


def _cli(argv, net):
    """A command-line row: ``argv`` run in a fresh directory, with ``FILE``
    the path of ``net`` written there and ``net`` on standard input."""
    def call(tmp_path, monkeypatch):
        path = tmp_path / "net.json"
        write_network(net(), str(path))
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        monkeypatch.chdir(tmp_path)
        return run([str(path) if a == "FILE" else a for a in argv])
    return call


ROWS = {
    "graph-dim-1": (lambda: QuotientGraph(1, 1, [0], [0], [[1]]),
                    ValueError, "dim must be at least 2, not 1"),
    "graph-no-vertex": (lambda: QuotientGraph(2, 0, [], [], np.zeros((0, 2))),
                        ValueError, "vertex_count must be at least 1, not 0"),
    "graph-tails-heads": (lambda: QuotientGraph(2, 1, [0, 0], [0], [[1, 0], [0, 1]]),
                          ValueError, "tail/head arrays differ in length"),
    "graph-endpoint": (lambda: QuotientGraph(2, 1, [0], [1], [[1, 0]]),
                       ValueError, "edge endpoint out of range"),
    # the cast to int64 would truncate a fraction and read a bool as 0 or 1
    "graph-shifts-fraction": (lambda: _dia_graph(shifts=_dia().graph.shifts + 0.5),
                              ValueError, "shifts must be integers"),
    "graph-tails-fraction": (lambda: _dia_graph(tails=[0, 0.9, 0, 0]),
                             ValueError, "tails must be integers"),
    "graph-heads-bool": (lambda: _dia_graph(heads=_dia().graph.heads.astype(bool)),
                         ValueError, "heads must be integers"),
    "graph-vertex-count-float": (lambda: _dia_graph(vertex_count=2.0),
                                 ValueError, "vertex_count must be an integer"),
    "graph-vertex-count-bool": (lambda: _dia_graph(vertex_count=True),
                                ValueError, "vertex_count must be an integer"),
    "graph-dim-float": (lambda: _dia_graph(dim=3.0), ValueError, "dim must be an integer"),
    "lattice-not-square": (lambda: Lattice(np.ones((2, 3))),
                           ValueError, "lattice basis must be a square matrix"),
    "network-positions": (lambda: PeriodicNetwork(_dia().graph, _dia().lattice, np.zeros((3, 3))),
                          ValueError, "positions must be (vertex_count, dim)"),
    "network-lattice-dim": (lambda: PeriodicNetwork(_dia().graph, Lattice(np.eye(2)),
                                                    _dia().positions),
                            ValueError, "lattice dimension does not match graph"),
    "json-duplicate-ids": (lambda: network_from_json(_dia_json(
                               lambda doc: doc["vertices"][1].__setitem__("id", 0))),
                           ValueError, "duplicate vertex ids"),
    "json-position-dim": (lambda: network_from_json(_dia_json(
                              lambda doc: doc["vertices"][0].__setitem__("pos", [0.0, 0.0]))),
                          ValueError, "position has wrong dimension"),
    "json-lattice-shape": (lambda: network_from_json(_dia_json(
                               lambda doc: doc.__setitem__("lattice", doc["lattice"][:2]))),
                           ValueError, "lattice must hold dim columns of length dim"),
    "read-file-object": (lambda: read_network(io.StringIO('{"dim": 3}')),
                         ValueError, "missing network field"),
    "obj-no-cells": (lambda: export_obj(_dia(), io.StringIO(), cells=0),
                     ValueError, "cells must be at least 1"),
    "obj-fractional-cells": (lambda: export_obj(_dia(), io.StringIO(), cells=1.5),
                             ValueError, "cells must be an integer"),
    "obj-float-cells": (lambda: export_obj(_dia(), io.StringIO(), cells=2.0),
                        ValueError, "cells must be an integer"),
    "obj-bool-cells": (lambda: export_obj(_dia(), io.StringIO(), cells=True),
                       ValueError, "cells must be an integer"),
    "bouquet-lattice-dim": (lambda: construct_bouquet(3, 6, Lattice(np.eye(2))),
                            ValueError, "lattice dimension mismatch"),
    "odd-lattice-dim": (lambda: construct_odd(3, 5, Lattice(np.eye(2))),
                        ValueError, "lattice dimension mismatch"),
    "even-lattice-dim": (lambda: construct_even_two_vertex(3, 4, Lattice(np.eye(2))),
                         ValueError, "lattice dimension mismatch"),
    "pcu-n-1": (lambda: catalog("pcu", n=1), ValueError, "dimension n must be at least 2, not 1"),
    "simplex-net-n-1": (lambda: catalog("simplex_net", n=1),
                        ValueError, "dimension n must be at least 2, not 1"),
    "median-tol-0": (lambda: geometric_median(np.eye(3), tol=0),
                     ValueError, "tolerance must be positive"),
    # a NaN tolerance compares false both ways: it must not run the iteration cap out
    "median-tol-nan": (lambda: geometric_median(np.eye(3), tol=float("nan")),
                       ValueError, "tolerance must be positive"),
    "median-max-iter-0": (lambda: geometric_median(np.eye(3), max_iter=0),
                          ValueError, "max_iter must be at least 1, not 0"),
    "median-max-iter-negative": (lambda: geometric_median(np.eye(3), max_iter=-1),
                                 ValueError, "max_iter must be at least 1, not -1"),
    "balanced-tol-nan": (lambda: is_balanced(_dia(), float("nan")),
                         ValueError, "tolerance must be positive"),
    # a real argument is a number: a string or a bool is not read as the value it spells
    "balanced-tol-string": (lambda: is_balanced(_dia(), "1e-9"),
                            ValueError, "tolerance must be positive and finite, not '1e-9'"),
    "median-tol-bool": (lambda: geometric_median(np.eye(3), tol=True),
                        ValueError, "tolerance must be positive and finite, not True"),
    "scaled-bool": (lambda: scaled(_dia(), True),
                    ValueError, "scale factor must be positive and finite, not True"),
    "scaled-inf": (lambda: scaled(_dia(), float("inf")),
                   ValueError, "scale factor must be positive and finite, not inf"),
    "cds-t-string": (lambda: catalog("cds", t="0.3"),
                     ValueError, "cds parameter t must lie strictly between 0 and 1, not '0.3'"),
    "cds-t-1": (lambda: catalog("cds", t=1), ValueError,
                "cds parameter t must lie strictly between 0 and 1, not 1"),
    "even-q-param-string": (lambda: construct_even_two_vertex(3, 4, Lattice(np.eye(3)), "0.5"),
                            ValueError, "q_param must lie strictly between 0 and 1, not '0.5'"),
    # a bool is a mask to numpy: True would move, or take the force of, every vertex
    "rebalance-vertex-bool": (lambda: rebalance_vertex(_dia(), True),
                              ValueError, "unknown vertex id True"),
    "force-vertex-bool": (lambda: force(_dia(), True), ValueError, "unknown vertex id True"),
    "force-vertex-float": (lambda: force(_dia(), 1.0), ValueError, "unknown vertex id 1.0"),
    "edge-vector-bool": (lambda: edge_vector(_dia(), True), ValueError, "unknown edge id True"),
    "edge-vector-float": (lambda: edge_vector(_dia(), 1.0), ValueError, "unknown edge id 1.0"),
    "random-network-seed": (lambda: random_network(_dia().graph, seed=-1),
                            ValueError, "seed must be at least 0, not -1"),
    "random-network-seed-bool": (lambda: random_network(_dia().graph, seed=True),
                                 ValueError, "seed must be an integer"),
    "random-network-seed-float": (lambda: random_network(_dia().graph, seed=1.5),
                                  ValueError, "seed must be an integer"),
    # a NaN passes the "< 1" check, and a float or a bool would reach range()
    # or the random stream, or run as the integer it stands for
    "config-restarts-nan": (lambda: OptimizeConfig(restarts=float("nan")),
                            ValueError, "restarts must be an integer"),
    "config-restarts-bool": (lambda: OptimizeConfig(restarts=True),
                             ValueError, "restarts must be an integer"),
    "config-s-max-float": (lambda: OptimizeConfig(s_max=1.5), ValueError,
                           "s_max must be an integer"),
    "config-s-max-bool": (lambda: OptimizeConfig(s_max=True), ValueError,
                          "s_max must be an integer"),
    "config-seed-float": (lambda: OptimizeConfig(seed=1.5), ValueError, "seed must be an integer"),
    "config-seed-bool": (lambda: OptimizeConfig(seed=True), ValueError, "seed must be an integer"),
    "bouquet-0": (lambda: TopologyClass.bouquet(0), ValueError, "loops must be at least 1, not 0"),
    "double-bouquet-loops": (lambda: TopologyClass.double_bouquet(-1, 2),
                             ValueError, "loops must be at least 0, not -1"),
    "tag-Bx": (lambda: TopologyClass.from_tag("Bx"), ValueError, "cannot parse topology tag 'Bx'"),
    "abstract-other": (lambda: build_abstract(classify(_triangle()), 2),
                       ValueError, "cannot build abstract graph for kind 'other'"),
    "enumerate-three-vertices": (lambda: enumerate_shift_arrays(_triangle(), 2),
                                 ValueError, "one- and two-vertex skeletons only"),
    "det-not-square": (lambda: det_int(np.ones((2, 3), dtype=int)),
                       ValueError, "determinant requires a square matrix"),
    "det-empty": (lambda: det_int([]), ValueError, "determinant requires a nonempty matrix"),
    # a fractional or non-finite entry is refused, not truncated to an int:
    # truncated, these read det 0, det 1 and the factors (1, 1)
    "det-fractional": (lambda: det_int([[0.5, 0], [0, 2]]), ValueError,
                       "matrix entry 0.5 is not an integer"),
    "det-fractional-unit": (lambda: det_int([[2.9, 1], [1, 1]]), ValueError,
                            "matrix entry 2.9 is not an integer"),
    "smith-fractional": (lambda: smith_invariant_factors([[1.5, 0], [0, 1]]), ValueError,
                         "matrix entry 1.5 is not an integer"),
    "smith-nan": (lambda: smith_invariant_factors(np.array([[1, 0], [0, np.nan]])), ValueError,
                  "matrix entry nan is not an integer"),
    "bound-even-n-1": (lambda: bound_even(1, 4), ValueError, "dimension n must be at least 2, not 1"),
    "monotonicity-odd": (lambda: monotonicity_table(3, 7),
                         ValueError, "d_max must be even and at least 2n"),
    # past the float range a closed-form bound names the argument that took it
    # there; the table and the three-dimensional bound refuse through bound_even
    "bound-dipole-overflow": (lambda: bound_dipole(200), ValueError,
                              "dimension n too large: the bound overflows a float"),
    "bound-even-n-overflow": (lambda: bound_even(200, 400), ValueError,
                              "dimension n too large: the bound overflows a float"),
    "bound-even-d-overflow": (lambda: bound_even(3, 10**400), ValueError,
                              "degree d too large: the bound overflows a float"),
    "monotonicity-overflow": (lambda: monotonicity_table(3, 10**400), ValueError,
                              "degree d too large: the bound overflows a float"),
    "bound-degree3d-overflow": (lambda: bound_degree3d(10**400, TopologyClass.bouquet(5 * 10**399)),
                                ValueError, "degree d too large: the bound overflows a float"),
    # a catalog entry's value is its bound, taken before the network is
    # built: n^n leaves the float range at n = 144
    "catalog-pcu-overflow": (lambda: catalog("pcu", n=144), ValueError,
                             "dimension n too large: the bound overflows a float"),
    "catalog-cube-net-overflow": (lambda: catalog("cube_net", n=144), ValueError,
                                  "dimension n too large: the bound overflows a float"),
    "catalog-simplex-net-overflow": (lambda: catalog("simplex_net", n=144), ValueError,
                                     "dimension n too large: the bound overflows a float"),
    "simplex-n-points": (lambda: check_simplex(np.eye(3)), ValueError, "need n+1 points in R^n"),
    "dipole5-sublattice": (lambda: dipole5_coefficients(_sqp_doubled()),
                           ValueError, "shift bookkeeping inconsistent"),
    # k < n base vertices: no draw could be a pyramid, so none is made
    "pyramid-random-few-base": (lambda: PyramidInstance.random(np.random.default_rng(0), 3, 2),
                                ValueError, "k must be at least 3, not 2"),
    # R^2 has 8 pairwise non-parallel shift classes with entries in [-2, 2],
    # and a degree-18 bouquet needs 9 loops
    "bouquet-pool-exhausted": (lambda: construct_bouquet(2, 18, Lattice(np.eye(2))),
                               RuntimeError, "shift pool exhausted while placing loops"),
    # B5 in R^2 needs 5 pairwise non-parallel loop shifts, and entries in
    # [-1, 1] give 4 classes
    "topology-no-assignment": (lambda: minimize_topology("B5", 2), ValueError,
                               "no valid shift assignment exists for this topology"),
    "pyramid-shapes": (lambda: PyramidInstance(np.zeros(3), np.zeros((4, 2)), np.zeros(3)),
                       ValueError, "inconsistent pyramid data"),
    "pyramid-few-base": (lambda: PyramidInstance(np.zeros(3), np.eye(3)[:2], np.zeros(3)),
                         ValueError, "need at least n base vertices"),
    "pyramid-not-coplanar": (lambda: PyramidInstance(np.full(3, 2.0),
                                                     np.vstack([np.zeros(3), np.eye(3)]),
                                                     np.zeros(3)),
                             ValueError, "base vertices are not coplanar"),
    "pyramid-collinear-base": (lambda: PyramidInstance(np.full(3, 2.0),
                                                       np.outer([0, 1, 2], [1, 0, 0]),
                                                       np.zeros(3)),
                               ValueError, "degenerate base"),
    "cli-eval-stdin": (_cli(["eval", "-"], _dia), 0, "valid = True"),
    "cli-verify-stdin": (_cli(["verify", "-"], _dia), 0, '"theorem": "dipole-simplex"'),
    "cli-classify-stdin": (_cli(["classify", "-"], _dia), 0, "topology = D4"),
    "cli-classify-irregular": (_cli(["classify", "FILE"],
                                    lambda: _unclassifiable_network("irregular")),
                               1, "graph is not regular"),
    # the bound is refused before the network is built, as a ValueError
    "cli-catalog-overflow": (_cli(["catalog", "--name", "pcu", "--param", "144"], _dia),
                             1, "dimension n too large: the bound overflows a float"),
    "cli-export-4d": (_cli(["export", "FILE", "--obj", "out.obj"],
                           lambda: catalog("pcu", n=4)[0]),
                      1, "OBJ export supports dimensions 2 and 3 only"),
}


@pytest.mark.parametrize("case", ROWS)
def test_refusal(case, tmp_path, monkeypatch, capsys):
    call, expect, message = ROWS[case]
    if isinstance(expect, int):
        assert call(tmp_path, monkeypatch) == expect
        captured = capsys.readouterr()
        assert message in captured.out + captured.err
    else:
        with pytest.raises(expect, match=re.escape(message)):
            call()


_LATTICE3 = Lattice(np.eye(3))

# every integer argument of the public API, by entry point: the call on the
# value, the name the refusal gives the argument, and a value below its range
GATED = {
    "graph-dim": (lambda x: _dia_graph(dim=x), "dim", 1),
    "graph-vertex-count": (lambda x: _dia_graph(vertex_count=x), "vertex_count", 0),
    "config-restarts": (lambda x: OptimizeConfig(restarts=x), "restarts", 0),
    "config-s-max": (lambda x: OptimizeConfig(s_max=x), "s_max", 0),
    "config-seed": (lambda x: OptimizeConfig(seed=x), "seed", -1),
    "random-network-seed": (lambda x: random_network(_dia().graph, seed=x), "seed", -1),
    "median-max-iter": (lambda x: geometric_median(np.eye(3), max_iter=x), "max_iter", 0),
    "obj-cells": (lambda x: export_obj(_dia(), io.StringIO(), cells=x), "cells", 0),
    "min-vertex-count-n": (lambda x: min_vertex_count(x, 4), "dimension n", 1),
    "min-vertex-count-d": (lambda x: min_vertex_count(3, x), "degree d", 2),
    "bound-dipole-n": (lambda x: bound_dipole(x), "dimension n", 1),
    "bound-even-n": (lambda x: bound_even(x, 8), "dimension n", 1),
    "bound-even-d": (lambda x: bound_even(3, x), "degree d", 2),
    "bound-degree3d-d": (lambda x: bound_degree3d(x, "D4"), "degree d", 2),
    "monotonicity-n": (lambda x: monotonicity_table(x, 8), "dimension n", 1),
    "monotonicity-d-max": (lambda x: monotonicity_table(3, x), "d_max", 2),
    "bouquet-n": (lambda x: construct_bouquet(x, 6, _LATTICE3), "dimension n", 1),
    "bouquet-d": (lambda x: construct_bouquet(3, x, _LATTICE3), "degree d", 2),
    "odd-n": (lambda x: construct_odd(x, 5, _LATTICE3), "dimension n", 1),
    "odd-d": (lambda x: construct_odd(3, x, _LATTICE3), "degree d", 2),
    "even-n": (lambda x: construct_even_two_vertex(x, 4, _LATTICE3), "dimension n", 1),
    "even-d": (lambda x: construct_even_two_vertex(3, x, _LATTICE3), "degree d", 2),
    "simplex-vertices-n": (lambda x: regular_simplex_vertices(x), "dimension n", 0),
    "pcu-n": (lambda x: catalog("pcu", n=x), "dimension n", 1),
    "cube-net-n": (lambda x: catalog("cube_net", n=x), "dimension n", 1),
    "simplex-net-n": (lambda x: catalog("simplex_net", n=x), "dimension n", 1),
    "topology-bouquet-loops": (lambda x: TopologyClass.bouquet(x), "loops", 0),
    "topology-double-bouquet-loops": (lambda x: TopologyClass.double_bouquet(x, 2), "loops", -1),
    "topology-double-bouquet-bridges": (lambda x: TopologyClass.double_bouquet(1, x), "bridges", 0),
    "abstract-dim": (lambda x: build_abstract("B3", x), "dim", 1),
    "enumerate-n": (lambda x: enumerate_shift_arrays(build_abstract("D4", 3), x), "dimension n", 1),
    "enumerate-s-max": (lambda x: enumerate_shift_arrays(build_abstract("D4", 3), 3, x), "s_max", 0),
    "orbits-n": (lambda x: shift_orbits(build_abstract("D5", 3), x), "dimension n", 1),
    "orbits-s-max": (lambda x: shift_orbits(build_abstract("D5", 3), 3, x), "s_max", 0),
    "topology-search-n": (lambda x: minimize_topology("D4", x), "dimension n", 1),
    "pyramid-random-n": (lambda x: PyramidInstance.random(np.random.default_rng(0), x, 4),
                         "dimension n", 1),
    "pyramid-random-k": (lambda x: PyramidInstance.random(np.random.default_rng(0), 3, x), "k", 2),
}


@pytest.mark.parametrize("value", [2.5, 4.0, True, "3", "below"])
@pytest.mark.parametrize("case", GATED)
def test_integer_arguments_are_refused_naming_the_argument(case, value):
    # numpy would take a bool as a mask, range() refuses a float, and 4.0 or
    # "3" would be taken as the integer they spell: each is a ValueError
    call, name, below = GATED[case]
    if value == "below":
        message = f"{name} must be at least {below + 1}, not {below}"
        value = below
    else:
        message = f"{name} must be an integer, not {value!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        call(value)


@pytest.mark.parametrize("value", [2.5, 4.0, 1.0, True, "1", np.int64(4), -1])
@pytest.mark.parametrize("probe,kind", [(force, "vertex"), (lifted_neighbours, "vertex"),
                                        (rebalance_vertex, "vertex"), (edge_vector, "edge")])
def test_ids_are_refused_unless_integers_naming_a_vertex_or_edge(probe, kind, value):
    # dia has 2 vertices and 4 edges: each value is no integer or names none
    with pytest.raises(ValueError, match=re.escape(f"unknown {kind} id {value}") + "$"):
        probe(_dia(), value)
