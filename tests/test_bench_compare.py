import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _run_file(path, ops_per_s):
    """A benchmark output file of untraced recover runs, one per value."""
    lines = []
    for value in ops_per_s:
        lines.append(json.dumps({"workload": "recover", "trace": 0}))
        lines.append(json.dumps({"metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _compare(capsys, *args):
    assert bench_compare.main(list(args)) == 0
    return capsys.readouterr().out.splitlines()


def test_two_files_print_one_line_per_metric(tmp_path, capsys):
    out = _compare(capsys, _run_file(tmp_path / "a.json", [40.0]),
                   _run_file(tmp_path / "b.json", [20.0]))
    assert out[0] == "recover (untraced)"
    assert len(out) == 2
    assert out[1].split()[:4] == ["ops_per_s", "40", "->", "20"]
    assert out[1].endswith("bound 0.24  WORSE")


def test_several_runs_compare_medians(tmp_path, capsys):
    # one slow parent run does not make the change look better: WORSE and
    # the relative change are read on the medians
    parents = [_run_file(tmp_path / f"p{i}.json", [v]) for i, v in enumerate([40, 41, 10])]
    changes = [_run_file(tmp_path / f"c{i}.json", [v]) for i, v in enumerate([30, 29, 31])]
    out = _compare(capsys, *parents, "--", *changes)
    assert out[1].split()[:4] == ["ops_per_s", "40", "->", "30"]
    assert out[1].endswith("WORSE")
    assert out[2].split() == ["[10,", "41]", "n=3", "->", "[29,", "31]", "n=3",
                              "better", "in", "1/3", "pairs"]


def test_one_file_may_hold_several_runs(tmp_path, capsys):
    out = _compare(capsys, _run_file(tmp_path / "a.json", [40, 42, 44]), "--",
                   _run_file(tmp_path / "b.json", [50, 52, 54]))
    assert out[1].split()[:5] == ["ops_per_s", "42", "->", "52", "+23.8%"]
    assert "WORSE" not in out[1] and out[2].endswith("better in 3/3 pairs")


def test_a_side_without_files_is_refused(tmp_path, capsys):
    a = _run_file(tmp_path / "a.json", [40.0])
    for args in ([a], [a, "--"], ["--", a], [a, a, a]):
        assert bench_compare.main(args) == 2


def test_several_parent_runs_print_their_interquartile_range(tmp_path, capsys):
    # the medians must differ by more than the parent runs' interquartile
    # range (statistics.quantiles, n=4) for the line to be marked
    parents = _run_file(tmp_path / "p.json", [40, 42, 44, 46, 48])
    out = _compare(capsys, parents, "--", _run_file(tmp_path / "a.json", [47, 50]))
    # quartiles 41 and 47, medians 44 and 48.5
    assert out[3].split() == ["parent", "IQR", "6,", "medians", "+4.5", "apart"]
    out = _compare(capsys, parents, "--", _run_file(tmp_path / "b.json", [51, 52, 50]))
    assert out[3].split()[-4:] == ["+7", "apart", "BEYOND", "IQR"]
    out = _compare(capsys, parents, "--", _run_file(tmp_path / "c.json", [36]))
    assert out[3].split()[-4:] == ["-8", "apart", "BEYOND", "IQR"]
    # one parent run has no range to print
    out = _compare(capsys, _run_file(tmp_path / "d.json", [40]), "--",
                   _run_file(tmp_path / "e.json", [47, 50]))
    assert len(out) == 3
