"""Sweep the kernel defaults sigma and xi0, padmm-ebb's penalty kappa and
afbas-pd's structural theta: iterations and the gates.

Run from a checkout:

    python3 tools/xi_sweep.py [--sigma S [S ...]] [--xi0 X [X ...]]
                              [--beta-kappa K [K ...]]
                              [--afbas-theta T [T ...]]

Each axis defaults to the library's value: ``HpeConfig``'s sigma and xi0,
``padmm_ebb.PENALTY_KAPPA`` and ``splitters.AFBAS_THETA``.  Every value is
checked before the first row.  For every combination (sigma, xi0, kappa,
afbas theta) it prints one row of a markdown table:

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
  at a given xi0 and kappa.  Of the gates, the afbas-pd theta reaches only
  criterion-invariance, which runs every scheme.

A row's xi0, kappa and afbas-pd theta are the library's defaults for every
run in the row, the gates' included.  So each row runs in a fresh
interpreter, which sets them once, before its first solve: with more than
one combination the sweep runs itself once per combination, with one value
on each axis.

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

from opsplit import acceptance, hpe_core, padmm_ebb, splitters
from opsplit.cli import SOLVER_FAULTS, build_problem, parse_descriptor
from opsplit.hpe_core import HpeConfig
from opsplit.padmm_ebb import run_padmm
from opsplit.prox_problems import gen_qp
from opsplit.splitters import SCHEMES

LRR = "lrr:seed=%d,d=40,n=40"
HEADER = ("| sigma | xi0 | kappa | afbas theta | Xi"
          + " | padmm-ebb" + "".join(" | " + name for name in SCHEMES)
          + " | LRR, beta 300 | LRR, rule's beta | gates |\n"
          + "|---" * (9 + len(SCHEMES)) + "|")
AXES = ("--sigma", "--xi0", "--beta-kappa", "--afbas-theta")


def xi_bound(xi0: float) -> float:
    """prod_{k>=1} (1 + xi0 / (k + 1)^2) = sinh(pi r) / (pi r (1 + xi0)),
    r = sqrt(xi0), from the product formula of sinh."""
    if xi0 == 0.0:
        return 1.0
    r = np.pi * np.sqrt(xi0)
    return float(np.sinh(r) / (r * (1.0 + xi0)))


def set_defaults(xi0: float, kappa: float, afbas_theta: float) -> None:
    """Make ``xi0`` ``HpeConfig``'s default, for ``HpeConfig()`` and for the
    class attribute that the CLI and the gates read, ``kappa`` the penalty
    rule's, and ``afbas_theta`` afbas-pd's QP coding's, for the rest of the
    process."""
    names = [f.name for f in dataclasses.fields(HpeConfig)]
    defaults = list(HpeConfig.__init__.__defaults__)
    defaults[names.index("xi0") - len(names)] = xi0
    HpeConfig.__init__.__defaults__ = tuple(defaults)
    HpeConfig.xi0 = xi0
    padmm_ebb.PENALTY_KAPPA = kappa
    splitters.AFBAS_THETA = afbas_theta


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


def row(sigma: float, xi0: float, kappa: float, afbas_theta: float) -> str:
    """One markdown table row.  Every value but ``sigma`` must be the
    process's default (:func:`set_defaults`)."""
    qp = [_battery(acceptance._padmm_qp_runs(None, sigma)[0])] + [
        _battery(_splitter_runs(algorithm, sigma)) for algorithm in SCHEMES]
    lrr = [", ".join(str(_lrr_iterations(seed, beta)) for seed in range(3))
           for beta in (300.0, None)]
    cells = ["%g" % sigma, "%g" % xi0, "%g" % kappa, "%g" % afbas_theta,
             "%.4g" % xi_bound(xi0), *qp, *lrr, _gates()]
    return "| " + " | ".join(cells) + " |"


def _child_row(argv) -> str:
    """The row that the sweep prints for ``argv`` in a fresh interpreter."""
    script = str(pathlib.Path(__file__).resolve())
    out = subprocess.run([sys.executable, script, *argv], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    defaults = (HpeConfig.sigma, HpeConfig.xi0, padmm_ebb.PENALTY_KAPPA,
                splitters.AFBAS_THETA)
    for option, default in zip(AXES, defaults):
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
    for theta in args.afbas_theta:
        if not (math.isfinite(theta) and theta >= 0):
            parser.error("afbas theta must be finite and nonnegative, got %r"
                         % theta)
    combinations = list(itertools.product(
        args.sigma, args.xi0, args.beta_kappa, args.afbas_theta))
    print(HEADER, flush=True)
    if len(combinations) == 1:
        set_defaults(*combinations[0][1:])
        print(row(*combinations[0]))
        return 0
    for values in combinations:
        print(_child_row([item for option, value in zip(AXES, values)
                          for item in (option, repr(value))]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
