"""The compare step of tools/identity.py: identical outputs pass, a one-ulp
change in one trace cell is named by run and column, and the ``--rel`` mode
passes what deviates by at most its tolerance and nothing else."""

import importlib.util
import io
import json
import math
import shutil
from pathlib import Path

import pytest

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


def _compare(a, b, rel=None):
    out = io.StringIO()
    ok = identity.compare(a, b, out=out, rel=rel)
    return ok, out.getvalue().splitlines()


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    base = tmp_path_factory.mktemp("collected")
    identity.collect(base, BATTERY)
    return base


@pytest.fixture
def base_and_head(collected, tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    shutil.copytree(collected, base)
    shutil.copytree(collected, head)
    return base, head


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


def test_rel_mode_passes_a_change_within_tolerance_only(base_and_head):
    base, head = base_and_head
    _edit_cell(head / "padmm-ebb.qp0.csv", "eps", 7,
               lambda x: x * (1.0 + 1e-15))
    ok, lines = _compare(base, head)
    assert not ok and lines[0].endswith("trace columns eps")
    ok, lines = _compare(base, head, rel=1e-12)
    assert ok
    assert lines[0].startswith("within    padmm-ebb.qp0            iters "
                               "30/30: largest deviation ")
    assert float(lines[0].rsplit(" ", 1)[1]) <= 1e-12
    assert all(line.startswith("identical") for line in lines[1:3])
    assert lines[3].startswith("3 runs, 2 identical, 1 within 1e-12; digest")


def test_rel_mode_names_a_column_over_tolerance(base_and_head):
    base, head = base_and_head
    _edit_cell(head / "padmm-ebb.qp0.csv", "eps", 7,
               lambda x: x * (1.0 + 1e-9))
    ok, lines = _compare(base, head, rel=1e-12)
    assert not ok
    prefix = "DIFFERS   padmm-ebb.qp0            iters 30/30: trace columns eps "
    assert lines[0].startswith(prefix)
    assert float(lines[0][len(prefix):]) == pytest.approx(1e-9, rel=1e-3)


def test_a_dropped_trace_row_fails_both_modes(base_and_head):
    base, head = base_and_head
    path = head / "condat-vu.qp0.csv"
    rows = path.read_bytes().decode().split("\r\n")
    path.write_bytes("\r\n".join(rows[:5] + rows[6:]).encode())
    for rel in (None, 1e-12):
        ok, lines = _compare(base, head, rel=rel)
        assert not ok
        assert lines[1] == ("DIFFERS   condat-vu.qp0            iters 30/30: "
                            "trace shape")


def test_rel_mode_matches_iteration_counts_exactly(base_and_head):
    base, head = base_and_head
    path = head / "condat-vu.qp0.json"
    summary = json.loads(path.read_text())
    summary["iterations"] += 1
    summary["final"]["v_norm"] *= 1.0 + 1e-9
    path.write_text(json.dumps(summary))
    ok, lines = _compare(base, head, rel=1e-6)
    assert not ok
    assert lines[1] == ("DIFFERS   condat-vu.qp0            iters 30/31: "
                        "summary iterations")


@pytest.mark.parametrize("x,y,dev", [
    ("nan", "nan", 0.0), ("inf", "inf", 0.0), ("NaN", "NaN", 0.0),
    ("0.0", "-0.0", 0.0), ("2.0", "1.0", 0.5), ("0.0", "1e-300", 1.0),
    ("inf", "-inf", math.inf), ("nan", "1.0", math.inf),
    ("inf", "1.0", math.inf), ("true", "false", math.inf),
    (None, "1.0", math.inf)])
def test_deviation(x, y, dev):
    assert identity.deviation(x, y) == dev
