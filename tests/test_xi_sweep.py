"""tools/xi_sweep.py: the drift bound it prints, its input checks, one
interpreter per row, and the defaults xi0, kappa and afbas-pd's theta that
a row sets for the rest of its process."""

import importlib.util
import math
from pathlib import Path

import pytest

from opsplit import cli, padmm_ebb, splitters
from opsplit.cli import build_parser
from opsplit.hpe_core import HpeConfig
from opsplit.prox_problems import gen_qp

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "xi_sweep", ROOT / "tools" / "xi_sweep.py")
xi_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(xi_sweep)


@pytest.mark.parametrize("xi0,printed", [(0.0, "1"), (0.01, "1.006"),
                                         (1.0, "1.838"), (10.0, "94.4")])
def test_xi_bound_is_the_infinite_product(xi0, printed):
    # the first 1e5 factors; the rest multiply by about exp(xi0 * 1e-5)
    cfg = HpeConfig(xi0=xi0)
    partial = math.prod(1.0 + cfg.xi(k) for k in range(1, 100_001))
    bound = xi_sweep.xi_bound(xi0)
    assert partial <= bound <= partial * (1.0 + 2e-5 * xi0)
    assert "%.4g" % bound == printed


@pytest.mark.parametrize("argv,message", [
    (["--sigma", "0.5", "1.5"], "sigma must lie in [0, 1)"),
    (["--xi0", "1", "-1"], "xi0 must be finite and nonnegative, got -1.0"),
    (["--beta-kappa", "0.5", "0"], "kappa must be finite and positive, got 0.0"),
    (["--afbas-theta", "2", "-1"],
     "afbas theta must be finite and nonnegative, got -1.0"),
    (["--afbas-theta", "inf"],
     "afbas theta must be finite and nonnegative, got inf"),
])
def test_every_axis_value_is_checked_before_any_row(argv, message, capsys,
                                                    monkeypatch):
    # a bad value on any axis is a usage error, exit 2, before the first row
    # even when an earlier value is good
    monkeypatch.setattr(xi_sweep, "row", lambda *a: pytest.fail("ran a row"))
    monkeypatch.setattr(xi_sweep, "_child_row",
                        lambda argv: pytest.fail("started a child"))
    with pytest.raises(SystemExit, match="2"):
        xi_sweep.main(argv)
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_each_row_runs_in_its_own_interpreter(monkeypatch, capsys):
    # 2 x 2 x 1 x 1 combinations: four children, one value on each axis,
    # under one header; the parent sets no default
    children = []
    monkeypatch.setattr(xi_sweep, "_child_row",
                        lambda argv: children.append(argv) or "| row |")
    monkeypatch.setattr(xi_sweep, "set_defaults",
                        lambda *a: pytest.fail("set a default"))
    assert xi_sweep.main(["--sigma", "0.5", "0.9", "--xi0", "0", "0.1"]) == 0
    assert children == [["--sigma", s, "--xi0", x, "--beta-kappa", "0.5",
                         "--afbas-theta", "0.5"]
                        for s in ("0.5", "0.9") for x in ("0.0", "0.1")]
    assert capsys.readouterr().out == xi_sweep.HEADER + "\n" + (
        "| row |\n" * 4)


def test_one_row_sets_the_defaults_its_runs_read(monkeypatch):
    # the row's xi0 and kappa hold for HpeConfig(), the class attribute and
    # the penalty rule, its afbas-pd theta for the scheme table's afbas-pd
    # build; monkeypatch puts the library's back
    monkeypatch.setattr(HpeConfig.__init__, "__defaults__",
                        HpeConfig.__init__.__defaults__)
    monkeypatch.setattr(HpeConfig, "xi0", HpeConfig.xi0)
    monkeypatch.setattr(padmm_ebb, "PENALTY_KAPPA", padmm_ebb.PENALTY_KAPPA)
    monkeypatch.setattr(splitters, "AFBAS_THETA", splitters.AFBAS_THETA)
    default = HpeConfig()
    inst = gen_qp(0)
    beta = padmm_ebb.rule_beta(inst.problem)
    xi_sweep.set_defaults(0.25, 0.25, 2.0)
    assert HpeConfig().xi0 == HpeConfig.xi0 == 0.25
    assert HpeConfig(xi0=default.xi0) == default
    assert padmm_ebb.rule_beta(inst.problem) == pytest.approx(beta / 2)
    assert splitters.SCHEMES["afbas-pd"].build(inst, 0.9)[0].theta == 2.0


def test_main_builds_one_parser_per_process(monkeypatch):
    # a parser costs about as much as the rest of a small solve's set-up
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    argv = ["solve", "--algorithm", "ppg", "--problem", "qp:seed=0",
            "--max-iters", "2"]
    assert cli.main(argv) == cli.main(argv) == 0
    assert len(built) == 1
