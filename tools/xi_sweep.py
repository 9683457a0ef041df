"""Sweep the kernel defaults sigma and xi0 and padmm-ebb's penalty kappa:
iterations and the gates.

Run from a checkout:

    python3 tools/xi_sweep.py [--sigma S [S ...]] [--xi0 X [X ...]]
                              [--beta-kappa K [K ...]]

Each axis defaults to the library's value: ``HpeConfig``'s sigma and xi0,
``padmm_ebb.PENALTY_KAPPA``.  Every value is checked before the first row.
For every combination (sigma, xi0, kappa) it prints one row of a markdown
table:

* Xi = prod_{k>=1} (1 + xi0 / (k + 1)^2), the largest factor by which
  padmm-ebb's Barzilai-Borwein metric can drift over a run of any length;
* for each of the five algorithms, the iterations on the QP seeds 0-9
  (``qp:seed=S,p=2,n=5,m=3``, tol 1e-8, at most 5000 iterations, every other
  setting at its default), as their sum and median: the ``qp-padmm`` and
  ``qp-splitters`` benchmark batteries;
* the iterations on the LRR 40x40 seeds 0-2 (``lrr:seed=S,d=40,n=40``, sigma
  0.9, tol 1e-3, at most 3000 iterations), at beta 300 and at the penalty
  rule's beta; they read xi0, and the second also kappa;
* the verdict of every acceptance gate, and the detail line of each gate
  that fails.  sigma reaches no gate: each gate passes its own (0.5, 0.9 or
  ``acceptance.EXACT_SIGMA``), so this column is the same for every sigma
  at a given xi0 and kappa.

A row's xi0 and kappa are the library's defaults for every run in the row,
the gates' included.  So each row runs in a fresh interpreter, which sets
them once, before its first solve: with more than one combination the
sweep runs itself once per combination, with one value on each axis.

An LRR run that does not converge shows its iteration count with its
reason; a QP battery counts the runs that did not converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import pathlib
import statistics
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from opsplit import acceptance, hpe_core, padmm_ebb
from opsplit.cli import SOLVER_FAULTS, build_problem, parse_descriptor
from opsplit.hpe_core import HpeConfig
from opsplit.padmm_ebb import run_padmm
from opsplit.prox_problems import gen_qp
from opsplit.splitters import SCHEMES

LRR = "lrr:seed=%d,d=40,n=40"
HEADER = ("| sigma | xi0 | kappa | Xi | padmm-ebb"
          + "".join(" | " + name for name in SCHEMES)
          + " | LRR, beta 300 | LRR, rule's beta | gates |\n"
          + "|---" * (8 + len(SCHEMES)) + "|")


def xi_bound(xi0: float) -> float:
    """prod_{k>=1} (1 + xi0 / (k + 1)^2) = sinh(pi r) / (pi r (1 + xi0)),
    r = sqrt(xi0), from the product formula of sinh."""
    if xi0 == 0.0:
        return 1.0
    r = np.pi * np.sqrt(xi0)
    return float(np.sinh(r) / (r * (1.0 + xi0)))


def set_defaults(xi0: float, kappa: float) -> None:
    """Make ``xi0`` ``HpeConfig``'s default, for ``HpeConfig()`` and for the
    class attribute that the CLI and the gates read, and ``kappa`` the
    penalty rule's, for the rest of the process."""
    names = [f.name for f in dataclasses.fields(HpeConfig)]
    defaults = list(HpeConfig.__init__.__defaults__)
    defaults[names.index("xi0") - len(names)] = xi0
    HpeConfig.__init__.__defaults__ = tuple(defaults)
    HpeConfig.xi0 = xi0
    padmm_ebb.PENALTY_KAPPA = kappa


def _splitter_runs(algorithm: str, sigma: float):
    """(converged, iterations) of the splitter ``algorithm`` on the ten QP
    seeds."""
    cfg = HpeConfig(sigma=sigma, max_iters=5000, tol_residual=1e-8)
    runs = []
    for seed in range(10):
        oracle, M0, x0, _ = SCHEMES[algorithm].setup(
            gen_qp(seed, p=2, n_i=5, m=3), sigma)
        res = hpe_core.run(oracle, x0, M0, cfg)
        runs.append((res.converged, res.iterations))
    return runs


def _battery(runs) -> str:
    """Sum and median of a QP battery's iterations, and how many of its
    runs did not converge."""
    counts = [iterations for _, iterations, *_ in runs]
    missed = sum(not converged for converged, *_ in runs)
    return "{:,} ({:g})".format(sum(counts), statistics.median(counts)) + (
        ", %d not converged" % missed if missed else "")


def _lrr_iterations(seed: int, beta):
    """The run's iteration count, or a label when it did not converge."""
    _, inst = build_problem(parse_descriptor(LRR % seed))
    cfg = HpeConfig(sigma=0.9, max_iters=3000, tol_residual=1e-3)
    try:
        res = run_padmm(inst.problem, cfg, beta=beta)
    except SOLVER_FAULTS as exc:
        return "abort (%s)" % exc
    return res.iterations if res.converged else "%d (%s)" % (res.iterations,
                                                              res.reason)


def _gates() -> str:
    """How many gates pass, and the detail line of each that fails."""
    results = acceptance.run_all(verbose=False)
    failed = [r for r in results if not r.passed]
    return "%d/%d" % (len(results) - len(failed), len(results)) + "".join(
        "; FAIL %s: %s" % (r.name, r.detail) for r in failed)


def row(sigma: float, xi0: float, kappa: float) -> str:
    """One markdown table row.  ``xi0`` and ``kappa`` must be the process's
    defaults (:func:`set_defaults`)."""
    qp = [_battery(acceptance._padmm_qp_runs(None, sigma)[0])] + [
        _battery(_splitter_runs(algorithm, sigma)) for algorithm in SCHEMES]
    lrr = [", ".join(str(_lrr_iterations(seed, beta)) for seed in range(3))
           for beta in (300.0, None)]
    cells = ["%g" % sigma, "%g" % xi0, "%g" % kappa, "%.4g" % xi_bound(xi0),
             *qp, *lrr, _gates()]
    return "| " + " | ".join(cells) + " |"


def _child_row(argv) -> str:
    """The row that the sweep prints for ``argv`` in a fresh interpreter."""
    script = str(pathlib.Path(__file__).resolve())
    out = subprocess.run([sys.executable, script, *argv], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for option, default in (("--sigma", HpeConfig.sigma),
                            ("--xi0", HpeConfig.xi0),
                            ("--beta-kappa", padmm_ebb.PENALTY_KAPPA)):
        parser.add_argument(option, type=float, nargs="+", default=[default],
                            help="the values to sweep (default %g)" % default)
    args = parser.parse_args(argv)
    for sigma, xi0 in itertools.product(args.sigma, args.xi0):
        try:
            HpeConfig(sigma=sigma, xi0=xi0)
        except ValueError as exc:
            parser.error(str(exc))
    for kappa in args.beta_kappa:
        if not (math.isfinite(kappa) and kappa > 0):
            parser.error("kappa must be finite and positive, got %r" % kappa)
    combinations = list(itertools.product(args.sigma, args.xi0,
                                          args.beta_kappa))
    print(HEADER, flush=True)
    if len(combinations) == 1:
        sigma, xi0, kappa = combinations[0]
        set_defaults(xi0, kappa)
        print(row(sigma, xi0, kappa))
        return 0
    for sigma, xi0, kappa in combinations:
        print(_child_row(["--sigma", repr(sigma), "--xi0", repr(xi0),
                          "--beta-kappa", repr(kappa)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
