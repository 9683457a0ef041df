"""tools/xi_sweep.py: the drift bound it prints, and the defaults sigma and
xi0 it sets for the CLI and the gates and then restores."""

import importlib.util
import math
from pathlib import Path

import pytest

from opsplit import acceptance
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
