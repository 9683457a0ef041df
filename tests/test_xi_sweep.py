"""tools/xi_sweep.py: the drift bound it prints, and the defaults sigma and
xi0 and the penalty rule's kappa it sets for the CLI and the gates and then
restores."""

import importlib.util
import math
from pathlib import Path

import pytest

from opsplit import acceptance, cli, padmm_ebb
from opsplit.cli import build_parser
from opsplit.hpe_core import HpeConfig

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


def test_default_xi0_holds_inside_the_block_only():
    default = HpeConfig()
    with pytest.raises(ZeroDivisionError):
        with xi_sweep.kernel_defaults(xi0=0.25):
            assert HpeConfig().xi0 == HpeConfig.xi0 == 0.25
            assert HpeConfig(xi0=default.xi0) == default
            acceptance._padmm_qp_runs(None, 0.5)
            1 / 0
    assert acceptance._padmm_qp_runs.cache_info().currsize == 0
    assert HpeConfig() == default and HpeConfig.xi0 == default.xi0


def test_default_sigma_holds_inside_the_block_only():
    default = HpeConfig()
    with pytest.raises(ZeroDivisionError):
        with xi_sweep.kernel_defaults(sigma=0.25):
            assert HpeConfig().sigma == HpeConfig.sigma == 0.25
            assert HpeConfig(sigma=default.sigma) == default
            # the CLI reads its default when it parses
            args = build_parser().parse_args(["solve", "--algorithm", "ppg",
                                              "--problem", "qp:seed=0"])
            assert args.sigma == 0.25
            1 / 0
    assert HpeConfig() == default and HpeConfig.sigma == default.sigma
    with pytest.raises(TypeError, match="HpeConfig has no field beta"):
        with xi_sweep.kernel_defaults(beta=2.0):
            pass


def test_main_reuses_its_parser_until_a_default_changes(monkeypatch, capsys):
    # a parser costs about as much as the rest of a small solve's set-up;
    # main builds one again only for defaults it has not been built with
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    argv = ["solve", "--algorithm", "ppg", "--problem", "qp:seed=0",
            "--max-iters", "2"]
    assert cli.main(argv) == cli.main(argv) == 0
    assert len(built) == 1
    with xi_sweep.kernel_defaults(sigma=0.25):
        assert cli.main(["solve", "--help"]) == 0
        assert "(default 0.25)" in capsys.readouterr().out
        assert len(built) == 2
    assert cli.main(argv) == 0
    assert len(built) == 3


def test_penalty_kappa_holds_inside_the_block_only(capsys):
    from opsplit.prox_problems import gen_qp

    rule = padmm_ebb.PENALTY_RULE
    prob = gen_qp(0).problem
    beta = padmm_ebb.rule_beta(prob)
    with pytest.raises(ZeroDivisionError):
        with xi_sweep.penalty_kappa(0.25):
            assert padmm_ebb.PENALTY_RULE == (0.25, rule.fallback)
            assert padmm_ebb.rule_beta(prob) == pytest.approx(beta / 2)
            acceptance._padmm_qp_runs(None, 0.5)
            assert cli.main(["solve", "--help"]) == 0
            assert "(default 0.25 sum_i L_i" in capsys.readouterr().out
            1 / 0
    assert acceptance._padmm_qp_runs.cache_info().currsize == 0
    assert padmm_ebb.PENALTY_RULE is rule
    # a bad kappa fails before any run
    with pytest.raises(SystemExit, match="2"):
        xi_sweep.main(["--beta-kappa", "0.5", "0"])
    assert "each kappa must be finite and positive" in capsys.readouterr().err
