"""Sweep the kernel defaults sigma and xi0: iterations and the gates.

Run from a checkout:

    python3 tools/xi_sweep.py [--sigma S [S ...]] [--xi0 X [X ...]]

Each option defaults to ``HpeConfig``'s value.  For every pair (sigma, xi0)
it sets both as ``HpeConfig``'s defaults and prints one row of a markdown
table:

* Xi = prod_{k>=1} (1 + xi0 / (k + 1)^2), the largest factor by which
  padmm-ebb's Barzilai-Borwein metric can drift over a run of any length;
* for each of the five algorithms, the iterations on the QP seeds 0-9
  (``qp:seed=S,p=2,n=5,m=3``, tol 1e-8, at most 5000 iterations, every other
  setting at its default), as their sum and median: the ``qp-padmm`` and
  ``qp-splitters`` benchmark batteries;
* the iterations on the LRR 40x40 seeds 0-2 (``lrr:seed=S,d=40,n=40``, beta
  300, sigma 0.9, tol 1e-3, at most 3000 iterations), which read only xi0;
* the verdict of every acceptance gate, and the detail line of each gate
  that fails.  Only xi0 reaches the gates: each gate passes its own sigma
  (0.5, 0.9 or ``acceptance.EXACT_SIGMA``), so this column is the same for
  every sigma at a given xi0.

An LRR run that does not converge shows its iteration count with its
reason; a QP battery counts the runs that did not converge.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import pathlib
import statistics
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from opsplit import acceptance, hpe_core
from opsplit.cli import ALGORITHMS, SOLVER_FAULTS, build_problem, \
    parse_descriptor
from opsplit.hpe_core import HpeConfig
from opsplit.padmm_ebb import run_padmm
from opsplit.prox_problems import gen_qp
from opsplit.splitters import SCHEMES

LRR = "lrr:seed=%d,d=40,n=40"


def xi_bound(xi0: float) -> float:
    """prod_{k>=1} (1 + xi0 / (k + 1)^2) = sinh(pi r) / (pi r (1 + xi0)),
    r = sqrt(xi0), from the product formula of sinh."""
    if xi0 == 0.0:
        return 1.0
    r = np.pi * np.sqrt(xi0)
    return float(np.sinh(r) / (r * (1.0 + xi0)))


@contextlib.contextmanager
def kernel_defaults(**values):
    """Each ``HpeConfig`` field named in ``values`` has that default inside
    the block, both for ``HpeConfig()`` and for the class attribute that the
    CLI and the gates read.  The gates' cached batteries are emptied on entry
    and on exit, so no run made under other defaults is reused."""
    names = [f.name for f in dataclasses.fields(HpeConfig)]
    saved = HpeConfig.__init__.__defaults__
    if len(saved) != len(names):
        raise RuntimeError("every HpeConfig field must have a default")
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise TypeError("HpeConfig has no field %s" % ", ".join(unknown))
    caches = (acceptance._invariance_runs, acceptance._padmm_qp_runs)
    for cache in caches:
        cache.cache_clear()
    HpeConfig.__init__.__defaults__ = tuple(
        values.get(name, old) for name, old in zip(names, saved))
    for name, value in values.items():
        setattr(HpeConfig, name, value)
    try:
        yield
    finally:
        HpeConfig.__init__.__defaults__ = saved
        for name, old in zip(names, saved):
            setattr(HpeConfig, name, old)
        for cache in caches:
            cache.cache_clear()


def _qp_runs(algorithm: str):
    """(converged, iterations) of ``algorithm`` on the ten QP seeds at the
    current defaults."""
    cfg = HpeConfig(max_iters=5000, tol_residual=1e-8)
    for seed in range(10):
        inst = gen_qp(seed, p=2, n_i=5, m=3)
        if algorithm == "padmm-ebb":
            res = run_padmm(inst.problem, cfg)
        else:
            oracle, M0, x0, _ = SCHEMES[algorithm].setup(inst, cfg.sigma)
            res = hpe_core.run(oracle, x0, M0, cfg)
        yield res.converged, res.iterations


def _battery(runs) -> str:
    """Sum and median of a QP battery's iterations, and how many of its
    runs did not converge."""
    converged, counts = zip(*runs)
    missed = converged.count(False)
    return "{:,} ({:g})".format(sum(counts), statistics.median(counts)) + (
        ", %d not converged" % missed if missed else "")


def _lrr_iterations(seed: int):
    """The run's iteration count, or a label when it did not converge."""
    _, inst = build_problem(parse_descriptor(LRR % seed))
    cfg = HpeConfig(sigma=0.9, max_iters=3000, tol_residual=1e-3)
    try:
        res = run_padmm(inst.problem, cfg, beta=300.0)
    except SOLVER_FAULTS as exc:
        return "abort (%s)" % exc
    return res.iterations if res.converged else "%d (%s)" % (res.iterations,
                                                              res.reason)


def sweep_row(sigma: float, xi0: float) -> str:
    """One markdown table row for the defaults ``sigma`` and ``xi0``."""
    with kernel_defaults(sigma=sigma, xi0=xi0):
        qp = [_battery(_qp_runs(algorithm)) for algorithm in ALGORITHMS]
        lrr = ", ".join(str(_lrr_iterations(seed)) for seed in range(3))
        results = acceptance.run_all(verbose=False)
    failed = [r for r in results if not r.passed]
    gates = "%d/%d" % (len(results) - len(failed), len(results)) + "".join(
        "; FAIL %s: %s" % (r.name, r.detail) for r in failed)
    cells = ["%g" % sigma, "%g" % xi0, "%.4g" % xi_bound(xi0), *qp, lrr, gates]
    return "| " + " | ".join(cells) + " |"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sigma", type=float, nargs="+",
                        default=[HpeConfig.sigma],
                        help="the values to sweep (default %g)"
                             % HpeConfig.sigma)
    parser.add_argument("--xi0", type=float, nargs="+",
                        default=[HpeConfig.xi0],
                        help="the values to sweep (default %g)"
                             % HpeConfig.xi0)
    args = parser.parse_args(argv)
    pairs = list(itertools.product(args.sigma, args.xi0))
    for sigma, xi0 in pairs:
        HpeConfig(sigma=sigma, xi0=xi0)  # a bad value fails before any run
    print("| sigma | xi0 | Xi | " + " | ".join(
        "%s, QP seeds 0-9: sum (median)" % a for a in ALGORITHMS)
          + " | LRR 40x40 seeds 0-2 | gates |")
    print("|---" * (5 + len(ALGORITHMS)) + "|")
    for sigma, xi0 in pairs:
        print(sweep_row(sigma, xi0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
