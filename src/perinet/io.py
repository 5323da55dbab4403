"""Canonical JSON serialization and Wavefront OBJ export.

The JSON document holds the dimension, the vertices with positions, the
lattice basis column by column, and the shift-labeled edges.  Floats are
written with 17 significant digits, which round-trips IEEE doubles
exactly, and a negative zero as -0.0; the writer output is byte-stable
for a given network.  JSON has
no non-finite numbers: the writer refuses them, and the reader refuses the
``NaN`` and ``Infinity`` literals that Python's json module would accept
and a number such as ``1e999`` that it would read as infinite.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import IO

import numpy as np

from .netcore import Lattice, PeriodicNetwork, QuotientGraph, _count


def _finite(text: str) -> float:
    if not math.isfinite(x := float(text)):
        raise ValueError(f"not valid JSON: {text} is not a finite double")
    return x


_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)


def _int(x, field: str) -> int:
    if type(x) not in (int, float) or not float(x).is_integer():
        raise ValueError(f"{field} must be an integer, not {json.dumps(x)}")
    return int(x)


def _floats(xs, field: str) -> list:
    """A JSON list of numbers, checked in bulk; booleans and strings are
    refused, where ``np.asarray`` would read them as 1.0 and as their value."""
    if type(xs) is not list or not set(map(type, xs)) <= {int, float}:
        raise ValueError(f"{field} must be a list of numbers, not {json.dumps(xs)}")
    return xs


def network_to_json(net: PeriodicNetwork) -> str:
    """Serialize a network to its canonical JSON text."""
    g, n = net.graph, net.dim
    # Python floats: the finiteness check and the formatting cost less on them
    pos, cols = net.positions.tolist(), net.lattice.basis.T.tolist()
    for x in itertools.chain(*pos, *cols):
        if not math.isfinite(x):
            raise ValueError(f"non-finite number {x} has no JSON form")
    point = ", ".join(["%.17g"] * n)        # as format(x, ".17g")
    vertex, column = '    {"id": %d, "pos": [' + point + ']}', "    [" + point + "]"
    edge = '    {"tail": %d, "head": %d, "shift": [' + ", ".join(["%d"] * n) + "]}"
    floats = "".join([",\n".join([vertex % (v, *row) for v, row in enumerate(pos)]),
                      '\n  ],\n  "lattice": [\n',
                      ",\n".join([column % tuple(c) for c in cols])])
    # "%.17g" writes -0.0 as -0, which JSON reads as the integer 0
    return "".join(['{\n  "dim": %d,\n  "vertices": [\n' % n,
                    floats.replace("-0,", "-0.0,").replace("-0]", "-0.0]"),
                    '\n  ],\n  "edges": [\n',
                    ",\n".join([edge % (t, h, *s) for t, h, s in
                                zip(g.tails.tolist(), g.heads.tolist(), g.shifts.tolist())]),
                    "\n  ]\n}\n"])


def network_from_json(text: str) -> PeriodicNetwork:
    """Parse the canonical JSON network format; unknown keys are ignored."""
    try:
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    try:
        dim = _int(doc["dim"], "dim")
        vertices = doc["vertices"]
        lattice = [_floats(column, "lattice") for column in doc["lattice"]]
        ids = [_int(v["id"], "id") for v in vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        index = {vid: i for i, vid in enumerate(sorted(ids))}
        rows = [None] * len(ids)
        for vid, v in zip(ids, vertices):
            pos = _floats(v["pos"], "pos")
            if len(pos) != dim:
                raise ValueError(f"vertex {vid} position has wrong dimension")
            rows[index[vid]] = pos
        if len(lattice) != dim or any(len(column) != dim for column in lattice):
            raise ValueError("lattice must hold dim columns of length dim")
        tails, heads, shifts = [], [], []
        for e in doc["edges"]:
            shift = e["shift"]
            if type(shift) is not list or not set(map(type, shift)) <= {int}:
                shift = [_int(x, "shift") for x in shift]   # integral floats read as ints
            if len(shift) != dim:
                raise ValueError("edge shift has wrong dimension")
            tails.append(index[_int(e["tail"], "tail")])
            heads.append(index[_int(e["head"], "head")])
            shifts.append(shift)
        graph = QuotientGraph(dim, len(ids), tails, heads, shifts)
        # stored column by column; transpose back into a basis matrix
        return PeriodicNetwork(graph, Lattice(list(zip(*lattice))), rows)
    except KeyError as exc:
        raise ValueError(f"missing network field or unknown vertex id: {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed network field: {exc}") from exc


def _write_text(path_or_file: str | IO[str], text: str) -> None:
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)


def write_network(net: PeriodicNetwork, path_or_file: str | IO[str]) -> None:
    _write_text(path_or_file, network_to_json(net))


def read_network(path_or_file: str | IO[str]) -> PeriodicNetwork:
    if hasattr(path_or_file, "read"):
        return network_from_json(path_or_file.read())
    with open(path_or_file) as fh:
        return network_from_json(fh.read())


def export_obj(net: PeriodicNetwork, path_or_file: str | IO[str],
               cells: int = 2) -> int:
    """Write the lift over a cells^n block of translates as OBJ lines.

    Every quotient edge becomes one ``l`` record per lattice translate;
    2-dimensional networks are padded with z = 0.  Returns the number of
    line records written.
    """
    cells = _count(cells, "cells", 1)
    n = net.dim
    if n not in (2, 3):
        raise ValueError("OBJ export supports dimensions 2 and 3 only")
    g = net.graph
    B = net.lattice.basis
    vert_index: dict[tuple, int] = {}
    verts: list[tuple] = []
    lines: list[tuple[int, int]] = []

    def vid(p: np.ndarray) -> int:
        if n == 2:
            p = np.append(p, 0.0)
        key = tuple(round(float(x), 12) for x in p)
        if key not in vert_index:
            vert_index[key] = len(verts) + 1      # OBJ indices are 1-based
            verts.append(key)
        return vert_index[key]

    for k in itertools.product(range(cells), repeat=n):
        kv = np.array(k, dtype=np.float64)
        for t, h, s in g.edges:
            a = net.positions[t] + B @ kv
            b = net.positions[h] + B @ (kv + np.array(s, dtype=np.float64))
            lines.append((vid(a), vid(b)))

    out = ["# periodic network lift, %d^%d cells\n" % (cells, n)]
    for v in verts:
        out.append("v %s %s %s\n" % tuple(format(x, ".12g") for x in v))
    for a, b in lines:
        out.append("l %d %d\n" % (a, b))
    _write_text(path_or_file, "".join(out))
    return len(lines)
