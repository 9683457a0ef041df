"""Sweep the kernel defaults sigma and xi0 and any float constant of
``opsplit``: iterations and the gates.  From a checkout:

    python3 tools/xi_sweep.py [--sigma S [S ...]] [--xi0 X [X ...]]
                              [--set MODULE.NAME=V1,V2,... ...]

sigma and xi0 default to ``HpeConfig``'s; each ``--set`` (one per name)
sweeps a module-level float constant such as ``splitters.THETA_SHARE``.
Every name and value is checked before the first row.  Each combination
prints one markdown row: the drift bound Xi; each algorithm's iterations on
the benchmark's QP batteries (seeds 0-9) as sum (median); padmm-ebb's on
the LRR 40x40 seeds 0-2 at beta 300 and at the rule's beta; every gate's
verdict.  A row's xi0 and constants are the defaults of all its runs, the
gates' included, so each row runs in its own interpreter, which sets them
once before its first solve.
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

from opsplit import acceptance, hpe_core
from opsplit.cli import SOLVER_FAULTS, build_problem, parse_descriptor
from opsplit.hpe_core import HpeConfig
from opsplit.padmm_ebb import run_padmm
from opsplit.prox_problems import gen_qp
from opsplit.splitters import SCHEMES

LRR = "lrr:seed=%d,d=40,n=40"


def header(names) -> str:
    """The table's two header lines, one column per ``--set`` name."""
    cells = ["sigma", "xi0", *names, "Xi", "padmm-ebb", *SCHEMES,
             "LRR, beta 300", "LRR, rule's beta", "gates"]
    return "| " + " | ".join(cells) + " |\n" + "|---" * len(cells) + "|"


def xi_bound(xi0: float) -> float:
    """prod_{k>=1} (1 + xi0 / (k + 1)^2) = sinh(pi r) / (pi r (1 + xi0)),
    r = sqrt(xi0), from the product formula of sinh."""
    if xi0 == 0.0:
        return 1.0
    r = np.pi * np.sqrt(xi0)
    return float(np.sinh(r) / (r * (1.0 + xi0)))


def axis(spec: str):
    """(MODULE.NAME, [V1, V2, ...]) of ``spec`` = MODULE.NAME=V1,V2,...;
    ValueError unless MODULE.NAME is a module-level float constant of
    ``opsplit`` and every value is finite."""
    name, _, text = spec.partition("=")
    module, _, attr = name.partition(".")
    mod = sys.modules.get("opsplit." + module)  # the tool imports them all
    if not (attr.isupper() and type(getattr(mod, attr, None)) is float):
        raise ValueError("--set %s: not a float constant of opsplit" % name)
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise ValueError("--set %s takes finite numbers, got %r" % (name, text))
    return name, values


def set_defaults(xi0: float, constants: dict) -> None:
    """Make ``xi0`` ``HpeConfig``'s default, for ``HpeConfig()`` and for the
    class attribute that the CLI and the gates read, and each MODULE.NAME of
    ``constants`` its value, for the rest of the process."""
    names = [f.name for f in dataclasses.fields(HpeConfig)]
    defaults = list(HpeConfig.__init__.__defaults__)
    defaults[names.index("xi0") - len(names)] = xi0
    HpeConfig.__init__.__defaults__ = tuple(defaults)
    HpeConfig.xi0 = xi0
    for name, value in constants.items():
        module, _, attr = name.partition(".")
        setattr(sys.modules["opsplit." + module], attr, value)


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
    """Sum and median of the iterations of the QP battery that ``runs()``
    returns, and how many of its runs did not converge, or a label when a
    build or a run fails."""
    try:
        runs = runs()
    except SOLVER_FAULTS as exc:
        return "abort (%s: %s)" % (type(exc).__name__, exc)
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


def row(sigma: float, xi0: float, values) -> str:
    """One markdown table row.  ``xi0`` and ``values``, one per ``--set``
    name, must be the process's defaults (:func:`set_defaults`)."""
    qp = [_battery(lambda: acceptance._padmm_qp_runs(None, sigma)[0])] + [
        _battery(lambda a=algorithm: _splitter_runs(a, sigma))
        for algorithm in SCHEMES]
    lrr = [", ".join(str(_lrr_iterations(seed, beta)) for seed in range(3))
           for beta in (300.0, None)]
    cells = ["%g" % sigma, "%g" % xi0, *("%g" % v for v in values),
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
    for option, default in (("--sigma", HpeConfig.sigma),
                            ("--xi0", HpeConfig.xi0)):
        parser.add_argument(option, type=float, nargs="+", default=[default],
                            help="the values to sweep (default %g)" % default)
    parser.add_argument("--set", action="append", default=[],
                        metavar="MODULE.NAME=V1,V2,...",
                        help="a float constant of opsplit and its values")
    args = parser.parse_args(argv)
    try:
        for sigma, xi0 in itertools.product(args.sigma, args.xi0):
            HpeConfig(sigma=sigma, xi0=xi0)
        axes = dict(map(axis, args.set))
    except ValueError as exc:
        parser.error(str(exc))
    if len(axes) < len(args.set):
        parser.error("--set names a constant twice")
    combinations = list(itertools.product(args.sigma, args.xi0,
                                          *axes.values()))
    print(header(axes), flush=True)
    for sigma, xi0, *values in combinations:
        if len(combinations) == 1:
            set_defaults(xi0, dict(zip(axes, values)))
            print(row(sigma, xi0, values))
        else:
            print(_child_row(["--sigma", repr(sigma), "--xi0", repr(xi0)] + [
                item for name, value in zip(axes, values)
                for item in ("--set", "%s=%r" % (name, value))]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
