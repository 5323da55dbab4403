"""Compare two runs of perinet's benchmark, metric by metric.

    python3 perfbench/run.py --workload all > CHANGE.json
    python3 tools/bench_compare.py PARENT.json CHANGE.json

Each file holds what ``perfbench/run.py`` prints: a stream of JSON
objects, a run's detail (with its ``workload`` and ``trace``) followed by
its result line (with its ``metrics``), and for ``--workload all`` a
summary at the end.  Every metric of every run is printed as
``parent -> change``, with the relative change and, for the end-to-end
metrics of the untraced runs, the bound that ``BENCHMARK.json`` sets on
it.  A metric that is worse than the parent's by more than its bound is
marked ``WORSE``.  Uses the standard library only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict[tuple[str, int], dict]:
    """(workload, trace) -> metrics of the run, from a benchmark output file."""
    text, decoder = Path(path).read_text(), json.JSONDecoder()
    runs, pos, current = {}, 0, None
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return runs
        obj, pos = decoder.raw_decode(text, pos)
        if "workload" in obj:
            current = (obj["workload"], int(obj["trace"]))
        elif "metrics" in obj and current is not None:
            runs[current] = {k: m["value"] for k, m in obj["metrics"].items()}
            current = None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, change = (load_runs(p) for p in argv)
    for key in sorted(parent.keys() & change.keys(), key=lambda k: (k[1], k[0])):
        workload, trace = key
        print(f"{workload} ({'traced' if trace else 'untraced'})")
        for name, old in parent[key].items():
            if name not in change[key]:
                continue
            new = change[key][name]
            rel = (new - old) / abs(old) if old else 0.0
            note = f"{rel:+8.1%}"
            if name in better:
                note += f"  better {better[name]}"
            if not trace and name in bound:
                note += f"  bound {bound[name]}"
                worse = -rel if better[name] == "higher" else rel
                if worse > bound[name]:
                    note += "  WORSE"
            print(f"  {name:42s} {old:12.6g} -> {new:<12.6g} {note}")
    for key in sorted(parent.keys() ^ change.keys()):
        print(f"{key[0]} (trace {key[1]}): in one file only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
