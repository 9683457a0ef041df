"""Sweep padmm-ebb's xi0: iterations, the metric's drift bound and the gates.

Run from a checkout:

    python3 tools/xi_sweep.py [--xi0 X [X ...]]

For each xi0 (default 0, 0.01, 0.1, 1, 3 and 10) it prints one row of a
markdown table:

* Xi = prod_{k>=1} (1 + xi0 / (k + 1)^2), the largest factor by which the
  Barzilai-Borwein metric can drift over a run of any length;
* the iterations of ``run_padmm`` on the QP seeds 0-9
  (``qp:seed=S,p=2,n=5,m=3``, tol 1e-8, at most 5000 iterations) at sigma
  0.5 and at sigma 0.9, as their sum and median: the batteries that the
  padmm-qp-equivalence, theta-acceleration and bb-acceleration gates read;
* the iterations on the LRR 40x40 seeds 0-2 (``lrr:seed=S,d=40,n=40``, beta
  300, sigma 0.9, tol 1e-3, at most 3000 iterations);
* the verdict of every acceptance gate, run with ``HpeConfig``'s default xi0
  set to the value, and the detail line of each gate that fails.

An LRR run that does not converge shows its iteration count with its
reason; a QP battery counts the runs that did not converge.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import pathlib
import statistics
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from opsplit import acceptance
from opsplit.cli import SOLVER_FAULTS, build_problem, parse_descriptor
from opsplit.hpe_core import HpeConfig
from opsplit.padmm_ebb import run_padmm

XI0S = (0.0, 0.01, 0.1, 1.0, 3.0, 10.0)
LRR = "lrr:seed=%d,d=40,n=40"


def xi_bound(xi0: float) -> float:
    """prod_{k>=1} (1 + xi0 / (k + 1)^2) = sinh(pi r) / (pi r (1 + xi0)),
    r = sqrt(xi0), from the product formula of sinh."""
    if xi0 == 0.0:
        return 1.0
    r = np.pi * np.sqrt(xi0)
    return float(np.sinh(r) / (r * (1.0 + xi0)))


@contextlib.contextmanager
def default_xi0(xi0: float):
    """``HpeConfig``'s default xi0 is ``xi0`` inside the block, both for
    ``HpeConfig()`` and for ``HpeConfig.xi0``, which the gates read.  The
    gates' cached batteries are emptied on entry and on exit, so no run made
    under another default is reused."""
    names = [f.name for f in dataclasses.fields(HpeConfig)]
    saved = HpeConfig.__init__.__defaults__
    if len(saved) != len(names):
        raise RuntimeError("every HpeConfig field must have a default")
    i = names.index("xi0")
    caches = (acceptance._invariance_runs, acceptance._padmm_qp_runs)
    for cache in caches:
        cache.cache_clear()
    HpeConfig.__init__.__defaults__ = saved[:i] + (xi0,) + saved[i + 1:]
    HpeConfig.xi0 = xi0
    try:
        yield
    finally:
        HpeConfig.__init__.__defaults__ = saved
        HpeConfig.xi0 = saved[i]
        for cache in caches:
            cache.cache_clear()


def _lrr_iterations(seed: int, xi0: float):
    """The run's iteration count, or a label when it did not converge."""
    _, inst = build_problem(parse_descriptor(LRR % seed))
    cfg = HpeConfig(sigma=0.9, xi0=xi0, max_iters=3000, tol_residual=1e-3)
    try:
        res = run_padmm(inst.problem, cfg, beta=300.0)
    except SOLVER_FAULTS as exc:
        return "abort (%s)" % exc
    return res.iterations if res.converged else "%d (%s)" % (res.iterations,
                                                              res.reason)


def _battery(runs) -> str:
    """Sum and median of a QP battery's iterations, and how many of its
    runs did not converge."""
    counts = [iterations for _, iterations, *_ in runs]
    missed = sum(not converged for converged, *_ in runs)
    return "{:,} ({:g})".format(sum(counts), statistics.median(counts)) + (
        ", %d not converged" % missed if missed else "")


def sweep_row(xi0: float) -> str:
    """One markdown table row for ``xi0``."""
    lrr = ", ".join(str(_lrr_iterations(seed, xi0)) for seed in range(3))
    with default_xi0(xi0):
        # the QP batteries are the ones the gates read
        qp = [_battery(acceptance._padmm_qp_runs(None, sigma)[0])
              for sigma in (0.5, 0.9)]
        results = acceptance.run_all(verbose=False)
    failed = [r for r in results if not r.passed]
    gates = "%d/%d" % (len(results) - len(failed), len(results)) + "".join(
        "; FAIL %s: %s" % (r.name, r.detail) for r in failed)
    cells = ["%g" % xi0, "%.4g" % xi_bound(xi0), *qp, lrr, gates]
    return "| " + " | ".join(cells) + " |"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--xi0", type=float, nargs="+", default=XI0S,
                        help="the values to sweep (default %s)"
                             % " ".join("%g" % x for x in XI0S))
    args = parser.parse_args(argv)
    for xi0 in args.xi0:
        HpeConfig(xi0=xi0)  # a bad value fails here, before any run
    print("| xi0 | Xi | QP seeds 0-9, sigma 0.5: sum (median) "
          "| QP seeds 0-9, sigma 0.9: sum (median) | LRR 40x40 seeds 0-2 "
          "| gates |")
    print("|---|---|---|---|---|---|")
    for xi0 in args.xi0:
        print(sweep_row(xi0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
