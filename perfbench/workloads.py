"""The benchmark's four workloads: inputs made from a seed, one operation each.

A workload's constructor is its set-up: it makes every input from the
seed.  ``round(r)`` lists the operations of round ``r``, one per input
class, so that a run of whole rounds keeps the mix of classes fixed.
``run(item, tr, tally)`` performs one operation through perinet's public
API, each call inside a span of ``tr``, and returns the names of the checks
it failed (empty when it passed).  ``ROUND_S`` is about how long a round
takes on a 2-core host; a run uses it only to fix its number of rounds in
advance from ``--seconds``.  ``HOST_BLOCK`` is the reference block, like
the workload's own work, by which the run scales its timings to the
host's speed of the moment (``hostspeed``).

An output that contradicts a theorem -- a length quotient below its proven
bound, or a rewritten catalog network whose L^n/V moved -- is recorded in
``tally.wrong`` and makes the run incorrect.  A failed check or a raised
exception counts the operation as failed and the run goes on; known
defects (the FCC certificate on a re-based ``dia``) are left in the inputs
so that they show up there.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

import perinet as pn
from hostspeed import SmallBlock, WideBlock
from perinet.topology import build_abstract, enumerate_shift_arrays

SQRT3 = math.sqrt(3.0)
SLACK_TOL = 1e-9            # a measured L^n/V may sit this far below its bound
VALUE_TOL = 1e-9            # relative drift of L^n/V allowed under a rewrite

# (topology, dimension, sharp L^n/V, relative tolerance): the acceptance cases
RECOVER_CASES = (
    ("D4", 3, 12 * SQRT3, 1e-4),
    ("D1,2", 3, 27.0, 1e-4),
    ("D1,3", 3, 27 * SQRT3, 1e-3),
    ("D5", 3, 405.0 / 8.0, 1e-3),
    ("B3", 3, 27.0, 1e-6),
    ("D3", 2, 2 * SQRT3, 1e-4),
)


def _case_label(tag: str, n: int) -> str:
    return tag if n == 3 else f"{tag}-n{n}"


CASE_LABELS = tuple(_case_label(tag, n) for tag, n, _, _ in RECOVER_CASES)
# The acceptance config uses 50 restarts, about 78 s a pass on 2 cores; 10
# keeps one pass near 20 s with the same assignments and 12-step exploration.
RECOVER_RESTARTS = 10

SWEEP_TOPOLOGIES = ("D4", "D1,2", "D5", "D1,3", "B3")      # criterion 4

CATALOG_GRAPHS = (
    ("hcb", {}), ("dia", {}), ("cds", {"t": 0.5}), ("bnn", {}), ("sqp", {}),
    ("pcu", {"n": 3}), ("simplex_net", {"n": 4}), ("pcu", {"n": 4}),
    ("simplex_net", {"n": 5}),
)
FIXED_RESTARTS = 8
FIXED_COPIES = 64           # rewritten copies per catalog graph, used in turn;
                            # more than a run's rounds, so no input repeats
FIXED_VALUE_TOL = 1e-6
CERTIFY_COPIES = 512        # enough that the cost of a seed's inputs varies little


class Tally:
    """What the operations of one run did besides taking time."""

    def __init__(self):
        self.failures = Counter()   # failed check or raised exception -> operations
        self.wrong: list[str] = []  # outputs that contradict a theorem
        self.counts = Counter()     # per-layer counters of the operations
        self.setup = Counter()      # per-layer counters of the set-up
        self.outcomes: dict[str, list[int]] = {}    # input class -> [passed, failed]
        self.results: dict[str, dict] = {}          # result values by input


def _count_traces(tally: Tally, traces) -> None:
    tally.counts["optimize.instances"] += len(traces)
    tally.counts["optimize.instance_steps"] += int(traces.iterations.sum())
    _, first, counts = np.unique(traces.termination, return_index=True,
                                 return_counts=True)
    for i, k in zip(first, counts):
        label = traces.record(int(i))["termination"]
        tally.counts["optimize.term." + label] += int(k)


def _bound_checks(tally: Tally, where: str, rep, at_bound: bool) -> list[str]:
    """Failed checks of a bound report; ``at_bound`` asks for a passing certificate."""
    if not rep.applicable:
        return ["not_applicable"]
    fails = []
    if rep.slack < -SLACK_TOL:
        tally.wrong.append(f"{where}: L^n/V {rep.measured!r} below bound {rep.bound!r}")
        fails.append("below_bound")
    if at_bound:
        cert = rep.equality_certificate
        if cert is None or not cert.passed:
            tally.counts["bounds.cert_fail"] += 1
            fails.append("certificate")
    return fails


class Recover:
    """minimize_topology on the acceptance cases; one operation per case."""

    ROUND_S = 15.0
    HOST_BLOCK = WideBlock

    def __init__(self, seed: int, tr, tally: Tally):
        self.cfg = pn.OptimizeConfig(seed=seed, restarts=RECOVER_RESTARTS)

    def round(self, r: int):
        return RECOVER_CASES

    @staticmethod
    def label(case) -> str:
        return _case_label(case[0], case[1])

    def run(self, case, tr, tally: Tally) -> list[str]:
        tag, n, target, tol = case
        res = tr.call("optimize.minimize_topology", pn.minimize_topology, tag, n, self.cfg)
        _count_traces(tally, res.traces)
        tally.counts["topology.assignments"] += int(res.traces.assignment_index.max()) + 1
        rep = tr.call("bounds.verify", pn.verify, res.network)
        cert = rep.equality_certificate
        tally.results[self.label(case)] = {
            "value": res.value, "slack": rep.slack,
            "certificate": None if cert is None else cert.passed,
            "assignment": res.shifts.tolist(),
            "assignment_index": res.assignment_index, "restart": res.restart_index,
        }
        fails = []
        if abs(res.value - rep.measured) > VALUE_TOL * target:
            tally.wrong.append(f"recover {tag}: reported {res.value!r}, "
                               f"network measures {rep.measured!r}")
            fails.append("value_mismatch")
        if abs(res.value - target) > tol * target:
            fails.append("missed_value")
        return fails + _bound_checks(tally, f"recover {tag}", rep, at_bound=True)


class Sweep:
    """Criterion 4: random balanced networks must not beat their bound."""

    ROUND_S = 0.02
    HOST_BLOCK = SmallBlock

    def __init__(self, seed: int, tr, tally: Tally):
        self.classes = []
        for k, tag in enumerate(SWEEP_TOPOLOGIES):
            skeleton = tr.call("topology.build_abstract", build_abstract, tag, 3)
            shifts = tr.call("topology.enumerate_shift_arrays",
                             enumerate_shift_arrays, skeleton, 3, 1)
            tally.setup["topology.assignments"] += len(shifts)
            rng = np.random.default_rng((seed, k))
            self.classes.append((tag, skeleton, shifts, rng))

    def round(self, r: int):
        return self.classes

    @staticmethod
    def label(item) -> str:
        return item[0]

    def run(self, item, tr, tally: Tally) -> list[str]:
        tag, skeleton, shifts, rng = item
        while True:
            S = shifts[int(rng.integers(len(shifts)))]
            g = pn.QuotientGraph(3, skeleton.vertex_count, skeleton.tails,
                                 skeleton.heads, S)
            net = tr.call("optimize.random_network", pn.random_network, g,
                          seed=int(rng.integers(1 << 62)))
            if g.vertex_count == 1:
                break
            tally.counts["balance.rebalance_attempts"] += 1
            net, degenerate = tr.call("balance.rebalance_vertex",
                                      pn.rebalance_vertex, net, 1)
            if not degenerate:
                tally.counts["balance.rebalance_accepted"] += 1
                break
        fails = []
        if not tr.call("balance.is_balanced", pn.is_balanced, net, 1e-7):
            fails.append("unbalanced")
        rep = tr.call("bounds.verify", pn.verify, net)
        return fails + _bound_checks(tally, f"sweep {tag}", rep, at_bound=False)


def _rewrite(net: pn.PeriodicNetwork, rng: np.random.Generator) -> pn.PeriodicNetwork:
    """The same network written down differently.

    Applies a random unimodular change of lattice basis, a rotation, an
    edge permutation, random edge reversals and, for two vertices, a
    random vertex swap.  Lengths, volume and topology are unchanged.
    """
    g, n = net.graph, net.dim
    U = np.eye(n, dtype=np.int64)
    for _ in range(2 * n):
        i, j = rng.choice(n, 2, replace=False)
        U[:, j] += int(rng.choice((-1, 1))) * U[:, i]
    U_inv = np.rint(np.linalg.inv(U)).astype(np.int64)
    if not np.array_equal(U @ U_inv, np.eye(n, dtype=np.int64)):
        raise RuntimeError("basis change is not unimodular")
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    basis = Q @ net.lattice.basis @ U            # B' = Q B U
    positions = net.positions @ Q.T
    shifts = g.shifts @ U_inv.T                  # s' = U^-1 s, so B' s' = Q B s
    tails, heads = g.tails.copy(), g.heads.copy()
    flip = rng.random(g.edge_count) < 0.5
    tails[flip], heads[flip] = g.heads[flip], g.tails[flip]
    shifts[flip] = -shifts[flip]
    if g.vertex_count == 2 and rng.random() < 0.5:
        tails, heads, positions = 1 - tails, 1 - heads, positions[::-1]
    order = rng.permutation(g.edge_count)
    graph = pn.QuotientGraph(n, g.vertex_count, tails[order], heads[order], shifts[order])
    return pn.PeriodicNetwork(graph, pn.Lattice(basis), positions)


def _rewritten_catalog(rng: np.random.Generator, copies: int, tr):
    """(label, catalog entry, rewritten copies) for each catalog graph."""
    pool = []
    for name, params in CATALOG_GRAPHS:
        net, entry = tr.call("construct.catalog", pn.catalog, name, **params)
        label = name + "".join(f"({v})" for v in params.values())
        pool.append((label, entry, [_rewrite(net, rng) for _ in range(copies)]))
    return pool


class FixedSolve:
    """minimize_fixed_shifts on rewritten catalog graphs, then verify."""

    ROUND_S = 0.45
    HOST_BLOCK = SmallBlock

    def __init__(self, seed: int, tr, tally: Tally):
        rng = np.random.default_rng(seed)
        self.pool = _rewritten_catalog(rng, FIXED_COPIES, tr)
        self.seeds = rng.integers(1 << 31, size=FIXED_COPIES)

    def round(self, r: int):
        c = r % FIXED_COPIES
        return [(label, entry, nets[c], int(self.seeds[c])) for label, entry, nets in self.pool]

    @staticmethod
    def label(item) -> str:
        return item[0]

    def run(self, item, tr, tally: Tally) -> list[str]:
        label, entry, net, seed = item
        cfg = pn.OptimizeConfig(seed=seed, restarts=FIXED_RESTARTS)
        res = tr.call("optimize.minimize_fixed_shifts", pn.minimize_fixed_shifts,
                      net.graph, cfg)
        _count_traces(tally, res.traces)
        rep = tr.call("bounds.verify", pn.verify, res.network)
        target = entry.expected_quotient
        fails = []
        if abs(res.value - target) > FIXED_VALUE_TOL * target:
            fails.append("missed_value")
        return fails + _bound_checks(tally, f"fixed-solve {label}", rep, at_bound=True)


class Certify:
    """validate, classify, verify and a JSON round-trip of rewritten minimizers."""

    ROUND_S = 0.01
    HOST_BLOCK = SmallBlock

    def __init__(self, seed: int, tr, tally: Tally):
        self.pool = _rewritten_catalog(np.random.default_rng(seed), CERTIFY_COPIES, tr)

    def round(self, r: int):
        c = r % CERTIFY_COPIES
        return [(label, entry, nets[c]) for label, entry, nets in self.pool]

    @staticmethod
    def label(item) -> str:
        return item[0]

    def run(self, item, tr, tally: Tally) -> list[str]:
        label, entry, net = item
        fails = []
        if not tr.call("netcore.validate", pn.validate, net).ok:
            fails.append("invalid")
        if tr.call("topology.classify", pn.classify, net.graph) != entry.topology:
            fails.append("topology")
        rep = tr.call("bounds.verify", pn.verify, net)
        target = entry.expected_quotient
        if not abs(rep.measured - target) <= VALUE_TOL * target:
            tally.wrong.append(f"certify {label}: L^n/V {rep.measured!r}, catalog {target!r}")
            fails.append("value_moved")
        text = tr.call("io.network_to_json", pn.network_to_json, net)
        back = tr.call("io.network_from_json", pn.network_from_json, text)
        if not (np.array_equal(back.positions, net.positions)
                and np.array_equal(back.lattice.basis, net.lattice.basis)
                and np.array_equal(back.graph.tails, net.graph.tails)
                and np.array_equal(back.graph.heads, net.graph.heads)
                and np.array_equal(back.graph.shifts, net.graph.shifts)):
            fails.append("roundtrip")
        return fails + _bound_checks(tally, f"certify {label}", rep, at_bound=True)


WORKLOADS = {"recover": Recover, "sweep": Sweep, "fixed-solve": FixedSolve,
             "certify": Certify}
