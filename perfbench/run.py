"""perinet's benchmark.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run builds its inputs from the seed three times (``setup_s`` is the
median of import plus input generation; the import is timed in a fresh
interpreter each time), then calls perinet from this one process in a
closed loop: each operation starts when the previous one has returned.
It runs whole rounds, one operation per input class.  The number of rounds
is fixed by the workload and ``--seconds`` alone (each workload states how
long a round takes on a 2-core host), so the same seed and ``--seconds``
give the same operations, and the same counts of failed ones, on any
machine.  The rounds are timed in chunks of about a second.  Between
operations, about once a second and at the end of each chunk, the run
times a fixed block of reference work like the workload's own
(``hostspeed``, the workload's ``HOST_BLOCK``) and scales the work since
the previous block by the two blocks' mean time.  ``ops_per_s`` is the
median of the chunks' scaled throughputs: operations per second of a host
on which the block takes its ``REF_S``.  ``setup_s`` is scaled the same
way, by the blocks timed just before and after each set-up.  This
keeps the figures steady on a shared host whose speed drifts by half for
minutes at a time; the raw figures are in the detail line.  Every output
is checked; an operation that raises or fails a check counts as failed
and the run goes on.

With ``--trace 0`` the end-to-end metrics are measured.  With ``--trace 1``
every call into perinet runs inside a span and the per-layer metrics are
computed from the spans; the spans are written to ``.bench_out/``.  Layer
times are seconds per call; counts are per round, except those of the
set-up.  ``--workload all`` runs every workload untraced and traced, each
in a fresh process, and reports the gap in throughput as the cost of
tracing.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the failures by type and the result values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"          # span files of traced runs
SETUPS = 3
CHUNK_S = 1.0                      # nominal length of one timed chunk of rounds
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer time metrics: name -> span names summed; calls are spans of the first
LAYER_TIMES = {
    "topology.enumerate_s": ("topology.enumerate_shift_arrays",),
    "topology.classify_s": ("topology.classify",),
    "optimize.minimize_topology_s": ("optimize.minimize_topology",),
    "optimize.minimize_fixed_shifts_s": ("optimize.minimize_fixed_shifts",),
    "optimize.random_network_s": ("optimize.random_network",),
    "balance.rebalance_vertex_s": ("balance.rebalance_vertex",),
    "balance.is_balanced_s": ("balance.is_balanced",),
    "bounds.verify_s": ("bounds.verify",),
    "netcore.validate_s": ("netcore.validate",),
    "io.roundtrip_s": ("io.network_to_json", "io.network_from_json"),
    "construct.catalog_s": ("construct.catalog",),
}
COUNTS = ("topology.assignments", "optimize.instances", "optimize.instance_steps",
          "optimize.term.converged", "optimize.term.max_iter",
          "optimize.term.collapsed_edge", "optimize.term.degenerate_lattice",
          "bounds.cert_fail")


def _limit_threads():
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        n = int(value) if value.isdigit() and int(value) > 0 else cores
        os.environ[var] = str(min(n, cores))


def _import_seconds() -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import perinet; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "seed": seed,
        "src_perinet_lines": sum(len(p.read_text().splitlines())
                                 for p in (SRC / "perinet").glob("*.py")),
    }


def _per_layer(tr, tally, rounds: int, loop_s: float, ops_per_s: float,
               overhead_s: float) -> dict:
    from tracing import layer_seconds, self_seconds
    from workloads import CASE_LABELS

    spans = layer_seconds(tr.spans)

    def per_call(names):
        calls = len(spans.get(names[0], ()))
        return sum(sum(spans.get(n, ())) for n in names) / calls if calls else 0.0

    m = {name: (per_call(names), "s") for name, names in LAYER_TIMES.items()}
    cases = {label: [] for label in CASE_LABELS}
    for name, start, end, parent, _ in tr.spans:
        if name == "optimize.minimize_topology":
            cases[tr.spans[parent][0].split(" ", 1)[1]].append(end - start)
    for label, times in cases.items():
        m["optimize.minimize_topology_s." + label.replace(",", "_")] = (
            statistics.fmean(times) if times else 0.0, "s")
    for name in COUNTS:
        m[name] = (tally.setup[name] + tally.counts[name] / rounds, "count")
    counts = tally.counts
    steps = counts["optimize.instance_steps"]
    solve_s = sum(spans.get("optimize.minimize_topology", ())) + \
        sum(spans.get("optimize.minimize_fixed_shifts", ()))
    m["optimize.us_per_instance_step"] = (1e6 * solve_s / steps if steps else 0.0, "us")
    inst = counts["optimize.instances"]
    m["optimize.converged_ratio"] = (
        counts["optimize.term.converged"] / inst if inst else 0.0, "ratio")
    tries = counts["balance.rebalance_attempts"]
    m["balance.accept_ratio"] = (
        counts["balance.rebalance_accepted"] / tries if tries else 0.0, "ratio")
    own = [t for name, t in self_seconds(tr.spans) if not name.startswith("setup ")]
    m["bench.self_s"] = (statistics.fmean(own), "s")
    m["bench.ops_per_s"] = (ops_per_s, "1/s")
    m["bench.trace_overhead_pct"] = (100.0 * overhead_s / loop_s, "%")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run in this process: (detail record, result line)."""
    from hostspeed import HostSpeed
    from tracing import Tracer
    from workloads import WORKLOADS, Tally

    tr, off = Tracer(trace), Tracer(False)
    host = HostSpeed(WORKLOADS[name].HOST_BLOCK())
    setups, scaled_setups = [], []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        before = host.sample()
        import_s = _import_seconds()
        tally = Tally()
        start = perf_counter()
        with (tr if last else off).operation("setup " + name):
            wl = WORKLOADS[name](seed, tr if last else off, tally)
        setups.append(import_s + perf_counter() - start)
        scaled_setups.append(host.scale(setups[-1], before, host.sample()))

    per_chunk = max(1, round(min(CHUNK_S, seconds) / wl.ROUND_S))
    chunks = max(1, round(seconds / (per_chunk * wl.ROUND_S)))
    rounds = chunks * per_chunk
    latencies, chunk_rates, scaled_rates, attempted, failed, errors = [], [], [], 0, 0, {}
    setup_own_s = tr.own_s
    host.sample()
    t0 = perf_counter()
    for c in range(chunks):
        items = [item for r in range(c * per_chunk, (c + 1) * per_chunk)
                 for item in wl.round(r)]
        busy_s = scaled_s = 0.0
        for k, item in enumerate(items, 1):
            label = wl.label(item)
            with tr.operation(f"{name} {label}"):
                start = perf_counter()
                try:
                    fails = wl.run(item, tr, tally)
                except Exception as exc:    # counted as a failed operation; the run goes on
                    kind = f"raised {type(exc).__name__}"
                    errors.setdefault(kind, str(exc))
                    fails = [kind]
                latencies.append(perf_counter() - start)
            failed += bool(fails)
            tally.failures.update(fails)
            tally.outcomes.setdefault(label, [0, 0])[bool(fails)] += 1
            if k == len(items) or host.due():
                took_s, scaled = host.segment()
                busy_s += took_s
                scaled_s += scaled
        chunk_rates.append(len(items) / busy_s)
        scaled_rates.append(len(items) / scaled_s)
        attempted += len(items)
    loop_s = perf_counter() - t0
    ops_per_s = statistics.median(scaled_rates)

    if trace:
        metrics = _per_layer(tr, tally, rounds, loop_s, ops_per_s, tr.own_s - setup_own_s)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{name}-{seed}.json"
        spans_file.write_text(json.dumps(tr.records(t0)))
    else:
        metrics = {
            "setup_s": (statistics.median(scaled_setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ops_per_s": (ops_per_s, "1/s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        spans_file = None
    detail = {
        "workload": name, "trace": int(trace), "seconds": seconds, "rounds": rounds,
        "loop_s": loop_s, "raw_ops_per_s": statistics.median(chunk_rates),
        "chunk_ops_per_s": chunk_rates, "scaled_chunk_ops_per_s": scaled_rates,
        "ref_block_ms": 1e3 * statistics.median(host.samples),
        "setups_s": setups, "scaled_setups_s": scaled_setups, "env": _environment(seed),
        "latency_ms": {"p50": 1e3 * statistics.median(latencies),
                       "p90": 1e3 * statistics.quantiles(latencies, n=10,
                                                         method="inclusive")[8],
                       "samples": len(latencies)},
        "failures": dict(tally.failures), "errors": errors, "wrong": tally.wrong[:20],
        "outcomes": tally.outcomes, "results": tally.results,
        "counts": dict(tally.counts), "spans_file": spans_file and str(spans_file),
    }
    line = {"correct": not tally.wrong, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return detail, line


def run_all(names, seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    lines = {}
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            print(proc.stdout, end="")
            lines[name, trace] = json.loads(proc.stdout.splitlines()[-1])
    metrics = {}
    for name in names:
        plain, traced = lines[name, 0]["metrics"], lines[name, 1]["metrics"]
        for key, m in plain.items():
            metrics[f"{name}.{key}"] = m
        gap = 100.0 * (1.0 - traced["bench.ops_per_s"]["value"] / plain["ops_per_s"]["value"])
        metrics[f"{name}.trace_gap_pct"] = {"value": gap, "unit": "%"}
    untraced = [lines[name, 0] for name in names]
    print(json.dumps({"correct": all(l["correct"] for l in untraced),
                      "attempted": sum(l["attempted"] for l in untraced),
                      "failed": sum(l["failed"] for l in untraced),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    _limit_threads()
    if not (SRC / "perinet" / "__init__.py").is_file():
        print(f"perinet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds)
    detail, line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
