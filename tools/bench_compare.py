"""Compare runs of perinet's benchmark, metric by metric.

    python3 perfbench/run.py --workload all > CHANGE.json
    python3 tools/bench_compare.py PARENT.json CHANGE.json
    python3 tools/bench_compare.py PARENT_1.json PARENT_2.json ... -- CHANGE_1.json ...
    python3 tools/bench_compare.py BOTH.json

Each file holds what ``perfbench/run.py`` prints: a stream of JSON
objects, a run's detail (with its ``workload`` and ``trace``) followed by
its result line (with its ``metrics``), and for ``--workload all`` a
summary at the end.  A detail line may name its run's ``side``,
``parent`` or ``change``, when one file holds the interleaved runs of a
commit and of its parent: such a file given alone is compared parent to
change, and among several files it stands for its change runs, those
of the commit it belongs to.  Every metric of every run is printed as
``parent -> change``, with the relative change and, for the end-to-end
metrics of the untraced runs, the bound that ``BENCHMARK.json`` sets on
it.  A metric that is worse than the parent's by more than its bound is
marked ``WORSE``.

With several runs on a side (files before and after ``--``, or a file
that holds several runs of one workload), each side of a metric is its
median over the runs, followed by its spread: the least and greatest
value and the number of runs.  ``WORSE`` is applied to the medians.  When
both sides hold the same number of runs, the i-th parent run and the i-th
change run form a pair (run them interleaved), and the number of pairs in
which the change is better is printed.  With several parent runs the
next line gives their interquartile range (``statistics.quantiles``,
n=4) and how far apart the medians are, marked ``BEYOND IQR`` when that
is more than the range: a gain is claimed only beyond it.  Uses the
standard library only.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict[tuple[str | None, str, int], list[dict]]:
    """(side, workload, trace) -> metrics of each of its runs, from a benchmark
    output file; side is the detail line's ``side``, or None where it has none."""
    text, decoder = Path(path).read_text(), json.JSONDecoder()
    runs, pos, current = {}, 0, None
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return runs
        obj, pos = decoder.raw_decode(text, pos)
        if "workload" in obj:
            current = (obj.get("side"), obj["workload"], int(obj["trace"]))
        elif "metrics" in obj and current is not None:
            runs.setdefault(current, []).append(
                {k: m["value"] for k, m in obj["metrics"].items()})
            current = None


def load_side(paths: list[str], side: str = "change") -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> the runs of every file of one side, in the order
    given; of the runs that name a side, those of ``side``."""
    out: dict[tuple[str, int], list[dict]] = {}
    for path in paths:
        for (tag, *key), runs in load_runs(path).items():
            if tag in (None, side):
                out.setdefault(tuple(key), []).extend(runs)
    return out


def main(argv: list[str]) -> int:
    try:
        code = compare(argv)
        sys.stdout.flush()
    except BrokenPipeError:     # a closed reader; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    return code


def compare(argv: list[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        parent_paths, change_paths = argv[:cut], argv[cut + 1:]
    elif len(argv) == 2:
        parent_paths, change_paths = argv[:1], argv[1:]
    elif len(argv) == 1 and any(tag for tag, *_ in load_runs(argv[0])):
        parent_paths = change_paths = argv     # one file of both sides
    else:
        parent_paths = change_paths = []
    if not parent_paths or not change_paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent = load_side(parent_paths, "parent" if len(argv) == 1 else "change")
    change = load_side(change_paths)
    for key in sorted(parent.keys() & change.keys(), key=lambda k: (k[1], k[0])):
        workload, trace = key
        print(f"{workload} ({'traced' if trace else 'untraced'})")
        names = dict.fromkeys(name for run in parent[key] for name in run)
        for name in names:
            olds = [run[name] for run in parent[key] if name in run]
            news = [run[name] for run in change[key] if name in run]
            if not news:
                continue
            old, new = statistics.median(olds), statistics.median(news)
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
            if len(olds) > 1 or len(news) > 1:
                spread = (f"{'':44s}[{min(olds):.6g}, {max(olds):.6g}] n={len(olds)} -> "
                          f"[{min(news):.6g}, {max(news):.6g}] n={len(news)}")
                if len(olds) == len(news) and name in better:
                    sign = 1 if better[name] == "higher" else -1
                    wins = sum(sign * (b - a) > 0 for a, b in zip(olds, news))
                    spread += f"  better in {wins}/{len(olds)} pairs"
                print(spread)
            if len(olds) > 1:
                q1, _, q3 = statistics.quantiles(olds, n=4)
                beyond = "  BEYOND IQR" if abs(new - old) > q3 - q1 else ""
                print(f"{'':44s}parent IQR {q3 - q1:.6g}, medians {new - old:+.6g} apart{beyond}")
    where = "file" if len(argv) == 2 and "--" not in argv else "side"
    for key in sorted(parent.keys() ^ change.keys()):
        print(f"{key[0]} (trace {key[1]}): in one {where} only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
