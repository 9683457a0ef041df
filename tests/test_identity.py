"""The compare step of tools/identity.py: identical outputs pass, and a
one-ulp change in one trace cell is named by run and column."""

import importlib.util
import io
import json
import math
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

BATTERY = [
    ("padmm-ebb.qp0", ["--algorithm", "padmm-ebb", "--problem", "qp:seed=0",
                       "--max-iters", "30"]),
    ("condat-vu.qp0", ["--algorithm", "condat-vu", "--problem", "qp:seed=0",
                       "--max-iters", "30"]),
    ("beta-nan", ["--algorithm", "padmm-ebb", "--problem", "qp:seed=0",
                  "--beta", "nan"]),
]


def _compare(a, b):
    out = io.StringIO()
    ok = identity.compare(a, b, out=out)
    return ok, out.getvalue().splitlines()


def _edit_cell(path, column, row, change):
    rows = path.read_bytes().decode().split("\r\n")
    col = rows[0].split(",").index(column)
    cells = rows[row].split(",")
    cells[col] = repr(change(float(cells[col])))
    rows[row] = ",".join(cells)
    path.write_bytes("\r\n".join(rows).encode())


def test_compare_passes_identical_outputs_and_names_a_one_ulp_change(
        tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    identity.collect(base, BATTERY)
    runs = json.loads((base / "runs.json").read_text())
    assert [run["exit"] for run in runs] == [0, 0, 2]
    assert runs[2]["stderr"].startswith("configuration error: beta")
    shutil.copytree(base, head)
    ok, lines = _compare(base, head)
    assert ok and len(lines) == 4
    assert all(line.startswith("identical") for line in lines[:3])
    assert lines[3].startswith("3 runs, 3 identical; digest ")
    # time_s and wall_time_s are not compared
    _edit_cell(head / "condat-vu.qp0.csv", "time_s", 3, lambda x: x + 1.0)
    summary = json.loads((head / "condat-vu.qp0.json").read_text())
    summary["wall_time_s"] += 1.0
    (head / "condat-vu.qp0.json").write_text(json.dumps(summary))
    # one ulp in one cell of one trace
    _edit_cell(head / "padmm-ebb.qp0.csv", "eps", 7,
               lambda x: math.nextafter(x, math.inf))
    ok, lines = _compare(base, head)
    assert not ok
    assert lines[0] == ("DIFFERS   padmm-ebb.qp0            iters 30/30: "
                        "trace columns eps")
    assert lines[1].startswith("identical condat-vu.qp0")
    assert lines[3].startswith("3 runs, 2 identical; digest ")
    assert " vs " in lines[3]
