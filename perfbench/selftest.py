"""Tests of the benchmark itself, at the smallest size.

    python3 -m pytest perfbench/selftest.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    """One set-up, the two cheapest recover cases, one rewritten copy per graph."""
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "RECOVER_CASES", workloads.RECOVER_CASES[4:])
    monkeypatch.setattr(workloads, "RECOVER_RESTARTS", 2)
    monkeypatch.setattr(workloads, "FIXED_COPIES", 1)
    monkeypatch.setattr(workloads, "CERTIFY_COPIES", 1)
    return tmp_path


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(small, name):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        _, line = run.run_workload(name, seed=1, seconds=1e-3, trace=trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1
        assert {k: m["unit"] for k, m in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(math.isfinite(m["value"]) for m in line["metrics"].values())


def test_a_raising_operation_is_counted_and_the_run_goes_on(small, monkeypatch):
    real_verify = workloads.pn.verify

    def verify(net):
        if workloads.pn.classify(net.graph).tag == "D4":      # dia
            raise RuntimeError("greedy reduction did not terminate")
        return real_verify(net)

    monkeypatch.setattr(workloads.pn, "verify", verify)
    detail, line = run.run_workload("certify", seed=1, seconds=0.2, trace=False)
    rounds = detail["rounds"]
    assert rounds >= 2
    assert line["attempted"] == len(workloads.CATALOG_GRAPHS) * rounds
    assert detail["outcomes"]["dia"] == [0, rounds]
    assert detail["failures"]["raised RuntimeError"] == rounds
    assert detail["errors"]["raised RuntimeError"] == "greedy reduction did not terminate"
    assert line["failed"] == sum(f for _, f in detail["outcomes"].values())


def test_a_seed_fixes_the_operations_and_their_failures(small):
    runs = [run.run_workload("certify", seed=3, seconds=0.05, trace=False) for _ in range(2)]
    (first, a), (second, b) = runs
    assert a["attempted"] == b["attempted"] >= len(workloads.CATALOG_GRAPHS)
    assert a["failed"] == b["failed"]
    assert first["outcomes"] == second["outcomes"]


def test_traced_spans_nest_under_their_operation(small):
    detail, _ = run.run_workload("sweep", seed=1, seconds=1e-3, trace=True)
    spans = json.loads(Path(detail["spans_file"]).read_text())
    roots = [s for s in spans if s["parent"] is None]
    assert len({s["op"] for s in roots}) == len(roots) == 1 + len(workloads.SWEEP_TOPOLOGIES)
    children = [s for s in spans if s["parent"] is not None]
    assert {s["name"] for s in children} >= {
        "topology.enumerate_shift_arrays", "optimize.random_network",
        "balance.rebalance_vertex", "balance.is_balanced", "bounds.verify"}
    for s in children:
        parent = spans[s["parent"]]
        assert parent["op"] == s["op"]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
