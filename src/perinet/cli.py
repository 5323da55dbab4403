"""Command-line interface.

Exit codes: 0 success; 1 a failure, which a command raises as ``ValueError``
or ``RuntimeError`` and ``run`` prints, or a reader that closed stdout; 2 usage
error.  Numeric output uses 10 significant digits; network JSON uses 17.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

import numpy as np

from . import io as netio
from .balance import force_all
from .bounds import SLACK_TOL, verify
from .construct import CATALOG_NAMES, catalog
from .netcore import length, length_quotient, validate, volume
from .optimize import OptimizeConfig, minimize_topology
from .topology import classify, min_vertex_count


def _f(x: float) -> str:
    return format(float(x), ".10g")


def _load(path: str):
    try:
        if path == "-":
            return netio.network_from_json(sys.stdin.read())
        return netio.read_network(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read network: {exc}") from None


def _write(path: str, text: str | None = None) -> None:
    """Write text to path, or with no text check that path can be written:
    an existing file keeps its bytes and a file the check made is removed."""
    try:
        existed = os.path.lexists(path)
        with open(path, "a" if text is None else "w") as fh:
            fh.write(text or "")
        if not existed and text is None:
            os.remove(path)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from None


def _cmd_catalog(args) -> int:
    if args.name is None:
        for name in CATALOG_NAMES:
            net, entry = catalog(name)
            print(f"{name:12s} dim={entry.dim} degree={entry.degree} "
                  f"topology={entry.topology.tag:5s} "
                  f"quotient={_f(entry.expected_quotient)} [{entry.expected_expr}]")
        return 0
    params = {}
    if args.param is not None:
        key, parse = ("t", float) if args.name == "cds" else ("n", int)
        try:
            params[key] = parse(args.param)
        except ValueError:
            raise ValueError(f"cannot parse --param value {args.param!r}") from None
    net, entry = catalog(args.name, **params)
    doc = json.loads(netio.network_to_json(net))
    doc["expected_quotient"] = entry.expected_quotient
    doc["expected_expr"] = entry.expected_expr
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_eval(args) -> int:
    net = _load(args.file)
    rep = validate(net)
    try:
        L = length(net)
        V = volume(net)
        q = length_quotient(net)
        print(f"L   = {_f(L)}")
        print(f"V   = {_f(V)}")
        print(f"L^{net.dim}/V = {_f(q)}")
        forces = force_all(net)
        for v in range(net.graph.vertex_count):
            print(f"force[{v}] = {_f(np.linalg.norm(forces.forces[v]))}")
    except ValueError as exc:
        print(f"measures unavailable: {exc}")
    print(f"valid = {rep.ok}")
    if not rep.ok:
        for violation in rep.violations:
            print(f"  violation: {violation}")
    print(f"degree = {rep.degree}  rank = {rep.cycle_rank}  "
          f"lift_connected = {rep.lift_connected}  immersed = {rep.immersed}")
    return 0 if rep.ok else 1


def _cmd_optimize(args) -> int:
    cfg = OptimizeConfig(seed=args.seed, s_max=args.smax)
    _write(args.out)                # before the search, not after it
    result = minimize_topology(args.topology, args.dim, cfg)
    bounded = int((result.traces.termination == 4).sum())
    print(f"best {_f(result.value)} "
          f"(assignment {result.assignment_index}, {result.termination}, "
          f"{len(result.traces)} orbits, {bounded} bounded)")
    _write(args.out, netio.network_to_json(result.network))
    print(f"wrote {args.out}")
    return 0


def _cmd_classify(args) -> int:
    net = _load(args.file)
    top = classify(net.graph)
    count, admissible = min_vertex_count(net.dim, top.degree)
    irreducible = (net.graph.vertex_count == count
                   and (not admissible or any(t == top for t in admissible)))
    print(f"topology = {top.tag}")
    print(f"circuit_rank = {top.circuit_rank}")
    print(f"degree = {top.degree}  vertices = {top.vertex_count}")
    print(f"min_vertex_count = {count}  admissible = "
          f"[{', '.join(t.tag for t in admissible)}]")
    print(f"irreducible = {irreducible}")
    return 0


def _cmd_verify(args) -> int:
    net = _load(args.file)
    report = verify(net)
    doc = report.to_json()
    doc.update({key: float(_f(doc[key])) for key in ("bound", "measured", "slack")
                if doc[key] is not None})
    print(json.dumps(doc, indent=2, allow_nan=False))
    return 0 if report.applicable and (report.slack is None or
                                       report.slack >= -SLACK_TOL) else 1


def _cmd_table(args) -> int:
    if args.dim != 3:
        print("table is defined for --dim 3", file=sys.stderr)
        return 2
    base = None
    print(f"{'net':6s} {'L^3/V':>12s} {'L/V^(1/3)':>10s} {'vs dia':>8s}")
    for name in ("dia", "cds", "bnn", "sqp", "pcu"):
        _, entry = catalog(name)
        q = entry.expected_quotient
        root = q ** (1.0 / 3.0)
        if base is None:
            base = root
        print(f"{name:6s} {q:12.6f} {root:10.4f} {100 * root / base:7.1f}%")
    return 0


def _cmd_export(args) -> int:
    net = _load(args.file)
    count = netio.export_obj(net, obj := io.StringIO(), cells=args.cells)
    _write(args.obj, obj.getvalue())
    print(f"wrote {args.obj} ({count} line records)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perinet",
                                description="periodic networks of fixed degree: "
                                            "catalog, measures, optimization, bounds")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("catalog", help="print a catalog network as JSON")
    c.add_argument("--name", choices=CATALOG_NAMES)
    c.add_argument("--param", help="t for cds, integer dimension n for pcu/simplex_net/cube_net")
    c.set_defaults(fn=_cmd_catalog)

    c = sub.add_parser("eval", help="measure a network file")
    c.add_argument("file")
    c.set_defaults(fn=_cmd_eval)

    c = sub.add_parser("optimize", help="minimize the length quotient of a topology")
    c.add_argument("--topology", required=True, help="tag like B3, D4, D1,3")
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--smax", type=int, default=1)
    c.add_argument("--out", default="optimized.json")
    c.set_defaults(fn=_cmd_optimize)

    c = sub.add_parser("classify", help="topology class of a network file")
    c.add_argument("file")
    c.set_defaults(fn=_cmd_classify)

    c = sub.add_parser("verify", help="check a network against its bound")
    c.add_argument("file")
    c.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("table", help="summary of the three-dimensional minimizers")
    c.add_argument("--dim", type=int, default=3)
    c.set_defaults(fn=_cmd_table)

    c = sub.add_parser("export", help="write the lift as a Wavefront OBJ")
    c.add_argument("file")
    c.add_argument("--obj", required=True)
    c.add_argument("--cells", type=int, default=2)
    c.set_defaults(fn=_cmd_export)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError) as exc:
        print(exc, file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:     # a closed reader; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
