import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from perinet import (Lattice, OptimizeConfig, PeriodicNetwork, catalog, length, length_quotient,
                     minimize_topology, volume)
from perinet.cli import run
from perinet.io import export_obj, network_from_json, network_to_json, read_network, write_network
from test_bounds import UNCLASSIFIABLE, _unclassifiable_network
from test_netcore import _catalog_and_rewrites


def test_json_roundtrip_preserves_measures():
    for name, params in [("dia", {}), ("bnn", {}), ("sqp", {}),
                         ("cds", {"t": 1 / 3}), ("hcb", {}),
                         ("simplex_net", {"n": 4})]:
        net, _ = catalog(name, **params)
        back = network_from_json(network_to_json(net))
        assert abs(length(back) - length(net)) <= 1e-12 * length(net)
        assert abs(volume(back) - volume(net)) <= 1e-12 * volume(net)
        assert np.array_equal(back.graph.shifts, net.graph.shifts)


def test_json_writer_stable():
    net, _ = catalog("bnn")
    assert network_to_json(net) == network_to_json(net)


def test_json_reader_ignores_extra_keys():
    net, _ = catalog("dia")
    doc = json.loads(network_to_json(net))
    doc["expected_quotient"] = 1.23
    doc["note"] = "extra"
    back = network_from_json(json.dumps(doc))
    assert length(back) == pytest.approx(length(net), rel=1e-15)


def test_json_reader_rejects_malformed():
    with pytest.raises(ValueError, match="JSON"):
        network_from_json("{not json")
    with pytest.raises(ValueError, match="field"):
        network_from_json('{"dim": 3}')
    net, _ = catalog("dia")
    doc = json.loads(network_to_json(net))
    doc["edges"][0]["shift"] = [1, 0]
    with pytest.raises(ValueError, match="dimension"):
        network_from_json(json.dumps(doc))


def _fnum(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x} has no JSON form")
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text     # -0 would read back as the integer 0


def _reference_json(net):
    """The former writer: every number checked and formatted on its own."""
    g = net.graph
    parts = ['{\n  "dim": %d,\n  "vertices": [\n' % g.dim]
    vrows = []
    for v, row in enumerate(net.positions.tolist()):
        pos = ", ".join(_fnum(x) for x in row)
        vrows.append('    {"id": %d, "pos": [%s]}' % (v, pos))
    parts.append(",\n".join(vrows))
    parts.append('\n  ],\n  "lattice": [\n')
    cols = []
    for column in net.lattice.basis.T.tolist():
        col = ", ".join(_fnum(x) for x in column)
        cols.append("    [%s]" % col)
    parts.append(",\n".join(cols))
    parts.append('\n  ],\n  "edges": [\n')
    erows = []
    for t, h, s in g.edges:
        erows.append('    {"tail": %d, "head": %d, "shift": [%s]}'
                     % (t, h, ", ".join(str(x) for x in s)))
    parts.append(",\n".join(erows))
    parts.append("\n  ]\n}\n")
    return "".join(parts)


def test_json_writer_matches_the_per_number_writer():
    count = 0
    for net in _catalog_and_rewrites(4, 35):
        assert network_to_json(net) == _reference_json(net)
        count += 1
    assert count == 5 * 18


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_json_writer_formats_edge_values_as_the_per_number_writer(n):
    # signed zero, the least subnormal, the extremes of the exponent range,
    # a number with no short binary form and integral floats
    values = [-0.0, 5e-324, 1e-300, 1e300, 0.1, 1.0, -3.0, 2.0 ** 60, -1e-300, -5e-324]
    net = catalog("pcu", n=n)[0]
    rng = np.random.default_rng(n)
    for _ in range(10):
        positions = rng.choice(values, net.positions.shape)
        basis = rng.choice(values, (n, n))
        odd = PeriodicNetwork(net.graph, Lattice(basis), positions)
        text = network_to_json(odd)
        assert text == _reference_json(odd)
        back = network_from_json(text)
        assert np.array_equal(back.positions, positions)
        assert np.array_equal(back.lattice.basis, basis)
        assert np.array_equal(np.signbit(back.positions), np.signbit(positions))
        assert np.array_equal(np.signbit(back.lattice.basis), np.signbit(basis))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["position", "basis"])
def test_json_writer_refuses_non_finite_numbers(entry, value):
    # the message names the first non-finite number, positions before the
    # basis, as the per-number writer's did
    net, _ = catalog("dia")
    for i, j, other in [(1, 0, None), (0, 2, None), (1, 0, -value)]:
        positions, basis = np.array(net.positions), np.array(net.lattice.basis)
        (positions if entry == "position" else basis)[i, j] = value
        if other is not None:       # a second one in the other part
            (basis if entry == "position" else positions)[0, 1] = other
        odd = PeriodicNetwork(net.graph, Lattice(basis), positions)
        with pytest.raises(ValueError) as want:
            _reference_json(odd)
        with pytest.raises(ValueError, match="^non-finite number .* has no JSON form$") as got:
            network_to_json(odd)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_json_reader_refuses_non_finite_literals(literal):
    text = network_to_json(catalog("dia")[0])
    with pytest.raises(ValueError, match=f"not valid JSON: {literal} is not a finite double"):
        network_from_json(text.replace("0.25", literal, 1))


@pytest.mark.parametrize("number", ["0.25", "0.5"], ids=["pos", "lattice"])
def test_json_reader_refuses_numbers_beyond_the_double_range(number):
    # Python's json module reads 1e999 as inf, which no JSON number is; in
    # dia's text 0.25 first occurs in a position and 0.5 in the lattice
    text = network_to_json(catalog("dia")[0])
    with pytest.raises(ValueError, match="not valid JSON: 1e999 is not a finite double"):
        network_from_json(text.replace(number, "1e999", 1))


def test_json_file_io(tmp_path):
    net, _ = catalog("sqp")
    path = tmp_path / "sqp.json"
    write_network(net, str(path))
    back = read_network(str(path))
    assert length_quotient(back) == pytest.approx(50.625, rel=1e-12)


def test_obj_export_pcu_two_cells(tmp_path):
    net, _ = catalog("pcu", n=3)
    path = tmp_path / "pcu.obj"
    count = export_obj(net, str(path), cells=2)
    text = path.read_text()
    lines = [l for l in text.splitlines() if l.startswith("l ")]
    verts = [l for l in text.splitlines() if l.startswith("v ")]
    assert count == 24 and len(lines) == 3 * 8
    for v in verts:
        coords = [float(x) for x in v.split()[1:]]
        assert all(abs(c - round(c)) <= 1e-12 for c in coords)


def test_obj_export_plane_padded():
    net, _ = catalog("hcb")
    buf = io.StringIO()
    export_obj(net, buf, cells=1)
    assert all(line.split()[3] == "0" for line in buf.getvalue().splitlines()
               if line.startswith("v "))


def test_obj_export_dimension_limit():
    net, _ = catalog("simplex_net", n=4)
    with pytest.raises(ValueError, match="dimension"):
        export_obj(net, io.StringIO())


# ---------------------------------------------------------------------------
# CLI


def test_cli_catalog_pipes_into_eval(tmp_path, capsys):
    assert run(["catalog", "--name", "sqp"]) == 0
    doc = capsys.readouterr().out
    assert json.loads(doc)["expected_quotient"] == pytest.approx(50.625)
    path = tmp_path / "net.json"
    path.write_text(doc)
    assert run(["eval", str(path)]) == 0
    out = capsys.readouterr().out
    assert "L^3/V = 50.625" in out
    assert "valid = True" in out


def test_cli_catalog_lists_all(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("hcb", "sql", "dia", "cds", "bnn", "sqp", "pcu"):
        assert name in out


def test_cli_catalog_with_param(capsys):
    assert run(["catalog", "--name", "cds", "--param", "0.25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["expected_quotient"] == pytest.approx(27.0)
    assert run(["catalog", "--name", "pcu", "--param", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["expected_quotient"] == pytest.approx(256.0)


def test_cli_table(capsys):
    assert run(["table", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    roots = {}
    for line in out.splitlines()[1:]:
        parts = line.split()
        roots[parts[0]] = float(parts[2])
    assert abs(roots["dia"] - 2.75) <= 0.01
    assert abs(roots["cds"] - 3.00) <= 0.01
    assert abs(roots["bnn"] - 3.60) <= 0.01
    assert abs(roots["sqp"] - 3.70) <= 0.01
    assert abs(roots["pcu"] - 3.00) <= 0.01


def test_cli_table_wrong_dim(capsys):
    assert run(["table", "--dim", "2"]) == 2


def test_cli_classify(tmp_path, capsys):
    net, _ = catalog("bnn")
    path = tmp_path / "bnn.json"
    write_network(net, str(path))
    assert run(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "topology = D1,3" in out
    assert "circuit_rank = 4" in out
    assert "irreducible = True" in out


def test_cli_verify(tmp_path, capsys):
    net, _ = catalog("dia")
    path = tmp_path / "dia.json"
    write_network(net, str(path))
    assert run(["verify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theorem"] == "dipole-simplex"
    assert abs(doc["slack"]) <= 1e-9
    assert doc["equality_certificate"]["passed"] is True


@pytest.mark.parametrize("case", sorted(UNCLASSIFIABLE))
def test_cli_verify_invalid_network_exits_1(tmp_path, capsys, case):
    path = tmp_path / "bad.json"
    write_network(_unclassifiable_network(case), str(path))
    assert run(["verify", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["applicable"] is False
    assert doc["topology"] == "unclassified"
    assert doc["note"].startswith("network fails validation")


def _far_vertex_file(tmp_path, coordinate: str) -> str:
    path = tmp_path / "far.json"
    path.write_text(network_to_json(catalog("dia")[0]).replace("0.25", coordinate, 1))
    return str(path)


def test_cli_verify_infinite_position_exits_1(tmp_path, capsys):
    # a coordinate of 1e200 is finite, but the squared lengths of its
    # edges overflow, so their lengths read as inf; the report is strict
    # JSON, with null for the measure it could not take, and no spurious
    # parallel edges are read off the non-finite edge vectors
    def no_constant(name):
        raise AssertionError(f"{name} in the report")

    assert run(["verify", _far_vertex_file(tmp_path, "1e200")]) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    assert doc["applicable"] is False
    assert doc["measured"] is None
    assert doc["note"] == ("network fails validation: "
                           + "; ".join(f"non-finite edge length {e}" for e in range(4)))


def test_cli_eval_infinite_position_exits_1(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["eval", _far_vertex_file(tmp_path, "1e200")]) == 1
    out = capsys.readouterr().out
    assert "measures unavailable: non-finite edge length 0" in out
    assert "L   =" not in out and "force[" not in out
    assert "  violation: non-finite edge length 0" in out
    assert "parallel" not in out


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_cli_refuses_a_number_beyond_the_double_range(tmp_path, capsys, command):
    # Python's json module reads 1e999 as inf; the reader refuses it, so no
    # infinite coordinate reaches the command
    assert run([command, _far_vertex_file(tmp_path, "1e999")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cannot read network: not valid JSON: 1e999 is not a finite double")


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_cli_singular_basis_exits_1(tmp_path, capsys, command):
    def flatten(doc):
        doc["lattice"] = [[1.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]

    path = tmp_path / "flat.json"
    path.write_text(_dia_doc_with(flatten))
    assert run([command, str(path)]) == 1
    out = capsys.readouterr().out
    if command == "eval":
        assert "  violation: singular lattice basis" in out
    else:
        doc = json.loads(out)
        assert doc["applicable"] is False
        assert doc["note"] == "network fails validation: singular lattice basis"


def test_cli_export(tmp_path, capsys):
    net, _ = catalog("pcu", n=3)
    path = tmp_path / "pcu.json"
    write_network(net, str(path))
    out_obj = tmp_path / "pcu.obj"
    assert run(["export", str(path), "--obj", str(out_obj), "--cells", "2"]) == 0
    assert "24 line records" in capsys.readouterr().out
    assert out_obj.exists()


def test_cli_export_to_an_unwritable_path_exits_1(tmp_path, capsys):
    path = tmp_path / "pcu.json"
    write_network(catalog("pcu", n=3)[0], str(path))
    out_obj = tmp_path / "missing" / "pcu.obj"
    assert run(["export", str(path), "--obj", str(out_obj)]) == 1
    assert f"cannot write {out_obj}: " in capsys.readouterr().err


def test_cli_optimize_to_an_unwritable_path_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "d3.json"
    assert run(["optimize", "--topology", "D3", "--dim", "2", "--out", str(out)]) == 1
    assert f"cannot write {out}: " in capsys.readouterr().err


def test_cli_optimize_checks_its_out_path_before_the_search(tmp_path, capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran before --out was checked")

    monkeypatch.setattr("perinet.cli.minimize_topology", no_search)
    out = tmp_path / "missing" / "x.json"
    assert run(["optimize", "--topology", "D1,2", "--dim", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"cannot write {out}: ")


def test_cli_failed_search_leaves_its_out_path_as_it_was(tmp_path, capsys):
    # D3 is not an admissible topology in R^3, so the search fails after
    # --out was checked: an existing file keeps its bytes, a new one is not made
    kept, missing = tmp_path / "kept.json", tmp_path / "missing.json"
    kept.write_bytes(b"earlier bytes\n")
    for out in (kept, missing):
        assert run(["optimize", "--topology", "D3", "--dim", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err != ""
    assert kept.read_bytes() == b"earlier bytes\n"
    assert not missing.exists()


def test_module_entry_point_exits_1_quietly_when_its_reader_has_gone():
    import perinet

    src = os.path.dirname(os.path.dirname(perinet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "perinet", "catalog"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()         # long before the interpreter has started
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert err == b""


def test_cli_optimize_has_no_restarts_flag(tmp_path, capsys):
    # every orbit is descended once, so there is no count of starts to pass
    with pytest.raises(SystemExit) as exc:
        run(["optimize", "--topology", "D3", "--dim", "2", "--restarts", "1",
             "--out", str(tmp_path / "d3.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --restarts 1" in capsys.readouterr().err


def test_cli_optimize_deterministic(tmp_path, capsys):
    args = ["optimize", "--topology", "D3", "--dim", "2", "--seed", "3",
            "--out", str(tmp_path / "d3.json")]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert f"best {2 * math.sqrt(3):.6f}"[:11] in first
    back = read_network(str(tmp_path / "d3.json"))
    assert length_quotient(back) == pytest.approx(2 * math.sqrt(3), rel=1e-6)


def test_cli_optimize_documented_example(tmp_path, capsys):
    out = tmp_path / "d4.json"
    assert run(["optimize", "--topology", "D4", "--dim", "3", "--seed", "7",
                "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    value = float(printed.split()[1])
    assert abs(value - 20.7846097) <= 1e-4 * 20.7846097
    back = read_network(str(out))
    assert length_quotient(back) == pytest.approx(value, rel=1e-9)


def test_cli_optimize_counts_bounded_runs(tmp_path, capsys):
    # D5 in R^3 has 30 orbits: the run at the sharp value 405/8 is the one
    # descended to the end, and every other orbit's stress bound passes it
    assert run(["optimize", "--topology", "D5", "--dim", "3", "--seed", "2024",
                "--out", str(tmp_path / "d5.json")]) == 0
    printed = capsys.readouterr().out
    res = minimize_topology("D5", 3, OptimizeConfig(seed=2024))
    bounded = int((res.traces.termination == 4).sum())
    assert bounded == 29
    assert f"{len(res.traces)} orbits, {bounded} bounded)" in printed.splitlines()[0]
    assert run(["optimize", "--topology", "D3", "--dim", "2",
                "--out", str(tmp_path / "d3.json")]) == 0
    assert "1 orbits, 0 bounded)" in capsys.readouterr().out


def test_module_entry_point_runs_table_optimize_verify(tmp_path):
    # ``python -m perinet`` end to end: each command exits 0, and verify
    # reads the network that optimize wrote
    import perinet

    src = os.path.dirname(os.path.dirname(perinet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "best.json"
    for args in (["table", "--dim", "3"],
                 ["optimize", "--topology", "D3", "--dim", "2", "--out", str(out)],
                 ["verify", str(out)]):
        proc = subprocess.run([sys.executable, "-m", "perinet", *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (args, proc.stdout, proc.stderr)
    assert json.loads(proc.stdout)["applicable"]


@pytest.mark.parametrize("flag,value,message", [("--smax", "0", "s_max must be at least 1"),
                                                 ("--seed", "-1", "seed must be at least 0")])
def test_cli_optimize_bad_config_fails_cleanly(tmp_path, capsys, flag, value, message):
    out = tmp_path / "never.json"
    assert run(["optimize", "--topology", "D3", "--dim", "2", flag, value,
                "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_catalog_bad_param(capsys):
    assert run(["catalog", "--name", "cds", "--param", "zebra"]) == 1
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("name,param,message", [
    ("dia", "3", "catalog network 'dia' takes no parameter 'n'"),
    ("pcu", "3.7", "cannot parse --param value '3.7'"),
    ("pcu", "4.0", "cannot parse --param value '4.0'"),
])
def test_cli_catalog_refuses_a_parameter_it_does_not_take(capsys, name, param, message):
    assert run(["catalog", "--name", name, "--param", param]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_cli_bad_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{oops")
    assert run(["eval", str(path)]) == 1
    assert "cannot read network" in capsys.readouterr().err


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_cli_eval_invalid_network_exit_code(tmp_path, capsys):
    net, _ = catalog("pcu", n=3)
    doc = json.loads(network_to_json(net))
    doc["edges"][2]["shift"] = [0, 0, 2]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["eval", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violation" in out


def _dia_doc_with(edit):
    doc = json.loads(network_to_json(catalog("dia")[0]))
    edit(doc)
    return json.dumps(doc)


MALFORMED = {
    "unknown_vertex_id": lambda doc: doc["edges"][0].update(head=5),
    "vertex_without_id": lambda doc: doc["vertices"][1].pop("id"),
    "edge_without_shift": lambda doc: doc["edges"][0].pop("shift"),
    "shift_beyond_int64": lambda doc: doc["edges"][0].update(shift=[2 ** 70, 0, 0]),
    "nan_position": lambda doc: doc["vertices"][1]["pos"].__setitem__(0, math.nan),
    "fractional_shift": lambda doc: doc["edges"][1].update(shift=[-1.6, 0, 0]),
    "boolean_shift": lambda doc: doc["edges"][1]["shift"].__setitem__(0, True),
    "string_shift": lambda doc: doc["edges"][1]["shift"].__setitem__(0, "-1"),
    "fractional_dim": lambda doc: doc.update(dim=3.9),
    "boolean_dim": lambda doc: doc.update(dim=True),
    "fractional_tail": lambda doc: doc["edges"][0].update(tail=0.5),
    "boolean_head": lambda doc: doc["edges"][0].update(head=True),
    "fractional_vertex_id": lambda doc: doc["vertices"][1].update(id=1.5),
    "boolean_position": lambda doc: doc["vertices"][1]["pos"].__setitem__(0, True),
    "string_position": lambda doc: doc["vertices"][1]["pos"].__setitem__(0, "0.25"),
    "boolean_lattice": lambda doc: doc["lattice"][0].__setitem__(0, True),
    "string_lattice": lambda doc: doc["lattice"][2].__setitem__(1, "0.5"),
    "lattice_column_not_a_list": lambda doc: doc["lattice"].__setitem__(1, "0.5"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_json_reader_malformed_raises_value_error(case):
    with pytest.raises(ValueError):
        network_from_json(_dia_doc_with(MALFORMED[case]))


@pytest.mark.parametrize("case,field", [
    ("fractional_shift", "shift"), ("boolean_shift", "shift"), ("string_shift", "shift"),
    ("fractional_dim", "dim"), ("boolean_dim", "dim"), ("fractional_tail", "tail"),
    ("boolean_head", "head"), ("fractional_vertex_id", "id")])
def test_json_reader_names_the_non_integral_field(case, field):
    # int() used to truncate -1.6 to -1 and read true as 1
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        network_from_json(_dia_doc_with(MALFORMED[case]))


@pytest.mark.parametrize("case,field", [
    ("boolean_position", "pos"), ("string_position", "pos"), ("boolean_lattice", "lattice"),
    ("string_lattice", "lattice"), ("lattice_column_not_a_list", "lattice")])
def test_json_reader_names_the_non_numeric_field(case, field):
    # np.asarray used to read "0.25" as 0.25 and true as 1.0
    with pytest.raises(ValueError, match=f"^{field} must "):
        network_from_json(_dia_doc_with(MALFORMED[case]))


def test_json_reader_accepts_integral_floats():
    net = catalog("dia")[0]

    def as_floats(doc):
        doc["dim"] = 3.0
        doc["vertices"][1]["id"] = 1.0
        doc["edges"][1].update(tail=0.0, shift=[float(x) for x in doc["edges"][1]["shift"]])

    got = network_from_json(_dia_doc_with(as_floats))
    assert got.graph.edges == net.graph.edges
    assert network_to_json(got) == network_to_json(net)


@pytest.mark.parametrize("command", ["eval", "verify"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_malformed_network_fails_cleanly(tmp_path, capsys, command, case):
    path = tmp_path / "bad.json"
    path.write_text(_dia_doc_with(MALFORMED[case]))
    assert run([command, str(path)]) == 1
    assert "cannot read network" in capsys.readouterr().err
