"""tools/xi_sweep.py: the drift bound it prints, its input checks, one
interpreter per row, the defaults xi0 and the ``--set`` constants that a
row sets for the rest of its process, and README's sweep command lines."""

import importlib.util
import math
import re
import shlex
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
    pytest.param(["--set", "padmm_ebb.PENALTY_KAPPA=0.5,inf"],
                 "--set padmm_ebb.PENALTY_KAPPA takes finite numbers, got "
                 "'0.5,inf'", id="set-kappa-inf"),
    pytest.param(["--set", "splitters.AFBAS_THETA=2,inf"],
                 "--set splitters.AFBAS_THETA takes finite numbers, got "
                 "'2,inf'", id="set-afbas-theta-inf"),
    pytest.param(["--set", "splitters.THETA_SHARE=0.1,x"],
                 "--set splitters.THETA_SHARE takes finite numbers, got "
                 "'0.1,x'", id="set-not-a-number"),
    pytest.param(["--set", "splitters.THETA_SHARE"],
                 "--set splitters.THETA_SHARE takes finite numbers, got ''",
                 id="set-no-values"),
    pytest.param(["--set", "splitters.NO_SUCH=1"],
                 "--set splitters.NO_SUCH: not a float constant of opsplit",
                 id="set-unknown-name"),
    pytest.param(["--set", "nowhere.THETA_SHARE=1"],
                 "--set nowhere.THETA_SHARE: not a float constant of opsplit",
                 id="set-unknown-module"),
    pytest.param(["--set", "cli.EXIT_CONFIG=1"],
                 "--set cli.EXIT_CONFIG: not a float constant of opsplit",
                 id="set-an-int"),
    pytest.param(["--set", "splitters.THETA_SHARE=0.1", "--set",
                  "splitters.THETA_SHARE=0.2"],
                 "--set names a constant twice", id="set-twice"),
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
    # 2 x 1 x 2 combinations: four children, one value on each axis,
    # under one header with a column for the --set name; the parent sets
    # no default
    children = []
    monkeypatch.setattr(xi_sweep, "_child_row",
                        lambda argv: children.append(argv) or "| row |")
    monkeypatch.setattr(xi_sweep, "set_defaults",
                        lambda *a: pytest.fail("set a default"))
    assert xi_sweep.main(["--sigma", "0.5", "0.9", "--set",
                          "splitters.THETA_SHARE=0.1,0.2"]) == 0
    assert children == [["--sigma", s, "--xi0", "1.0", "--set",
                         "splitters.THETA_SHARE=" + t]
                        for s in ("0.5", "0.9") for t in ("0.1", "0.2")]
    header = xi_sweep.header(["splitters.THETA_SHARE"])
    assert header.startswith("| sigma | xi0 | splitters.THETA_SHARE | Xi |")
    assert capsys.readouterr().out == header + "\n" + "| row |\n" * 4


def test_one_row_sets_the_defaults_its_runs_read(monkeypatch):
    # the row's xi0 holds for HpeConfig() and the class attribute, each
    # --set constant for the code that reads it: the penalty rule, afbas-pd's
    # build, fbhf's and ppg's step share and Condat-Vu's theta share;
    # monkeypatch puts the library's back
    monkeypatch.setattr(HpeConfig.__init__, "__defaults__",
                        HpeConfig.__init__.__defaults__)
    monkeypatch.setattr(HpeConfig, "xi0", HpeConfig.xi0)
    for module, name in ((padmm_ebb, "PENALTY_KAPPA"),
                         (splitters, "AFBAS_THETA"),
                         (splitters, "STEP_SHARE"),
                         (splitters, "THETA_SHARE")):
        monkeypatch.setattr(module, name, getattr(module, name))
    default = HpeConfig()
    inst = gen_qp(0)
    beta = padmm_ebb.rule_beta(inst.problem)
    xi_sweep.set_defaults(0.25, {"padmm_ebb.PENALTY_KAPPA": 0.25,
                                 "splitters.AFBAS_THETA": 2.0,
                                 "splitters.STEP_SHARE": 0.5,
                                 "splitters.THETA_SHARE": 0.25})
    assert HpeConfig().xi0 == HpeConfig.xi0 == 0.25
    assert HpeConfig(xi0=default.xi0) == default
    assert padmm_ebb.rule_beta(inst.problem) == pytest.approx(beta / 2)
    assert splitters.SCHEMES["afbas-pd"].build(inst, 0.9)[0].theta == 2.0
    fbhf = splitters.SCHEMES["fbhf"].build(inst, 0.8)[0]
    assert fbhf.gamma == pytest.approx(1.8 * fbhf.beta, rel=1e-12)
    cv = splitters.SCHEMES["condat-vu"].build(inst, 0.8)[0]
    assert 0.8 - cv.L / (2.0 * cv.curvature_margin) == pytest.approx(
        0.2, rel=1e-12)


def test_readme_sweep_lines_pass_the_checks(monkeypatch, capsys):
    # every sweep command line in README parses and passes the checks that
    # run before the first row
    monkeypatch.setattr(xi_sweep, "row", lambda *a: "| row |")
    monkeypatch.setattr(xi_sweep, "_child_row", lambda argv: "| row |")
    monkeypatch.setattr(xi_sweep, "set_defaults", lambda *a: None)
    text = (ROOT / "README.md").read_text()
    lines = re.findall(r"^python3 tools/xi_sweep\.py (.*)$", text, flags=re.M)
    assert len(lines) == 6
    assert ("--set splitters.THETA_SHARE=0.05,0.1,0.125,0.15,0.2 "
            "--set splitters.CV_DUAL_SCALE=1,1.5,2") in lines
    assert "--set splitters.STEP_SHARE=0.8,0.9,0.95" in lines
    for line in lines:
        assert xi_sweep.main(shlex.split(line)) == 0
    capsys.readouterr()


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




@pytest.mark.parametrize("constant,runs,label", [
    ((splitters, "THETA_SHARE", 1.0),
     lambda: xi_sweep._splitter_runs("condat-vu", 0.9),
     "ZeroDivisionError: float division by zero"),
    ((splitters, "STEP_SHARE", 0.0),
     lambda: xi_sweep._splitter_runs("fbhf", 0.9),
     "ValueError: gamma must be finite and positive, got 0.0"),
    ((splitters, "STEP_SHARE", 0.0),
     lambda: xi_sweep._splitter_runs("ppg", 0.9),
     "ValueError: alpha must be finite and positive, got 0.0"),
    ((padmm_ebb, "PENALTY_KAPPA", 0.0),
     lambda: xi_sweep.acceptance._padmm_qp_runs(None, 0.9)[0],
     "ValueError: inverse metric scalar 2 is 0.0, not positive")],
    ids=["condat-vu", "fbhf", "ppg", "padmm-ebb"])
def test_a_battery_that_cannot_run_is_a_labelled_cell(monkeypatch, constant,
                                                      runs, label):
    # THETA_SHARE = 1 leaves Condat-Vu no primal scale, STEP_SHARE = 0
    # leaves fbhf and ppg no step, and PENALTY_KAPPA = 0 gives padmm-ebb a
    # zero penalty: the cell names the failure instead of ending the row,
    # and with it the sweep
    monkeypatch.setattr(*constant)
    assert xi_sweep._battery(runs) == "abort (%s)" % label
