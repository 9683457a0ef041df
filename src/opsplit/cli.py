"""Command-line driver: solve problems, benchmark, query oracles, self-check.

Exit codes: 0 success, 2 configuration error (raised before a solve's first
iteration), 3 solver abort (raised with the kernel loop's record of the run).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from . import hpe_core, padmm_ebb
from .hpe_core import HpeConfig
from .padmm_ebb import run_padmm
from .prox_problems import build_lrr, gen_qp, load_lrr_instance
from .splitters import SCHEMES

ALGORITHMS = ("padmm-ebb",) + tuple(SCHEMES)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


# the library's failures: a solver abort when the kernel loop's run is attached
# as ``result`` (a LinAlgError mid-solve too), else a configuration error
SOLVER_FAULTS = (ArithmeticError, RuntimeError, ValueError)


# ---------------------------------------------------------------------------
# Problem descriptors
# ---------------------------------------------------------------------------


def parse_descriptor(text: str) -> dict:
    """Parse 'kind:key=val,key=val' into a dict of finite floats (the
    manifest path stays a string)."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in ("qp", "lrr"):
        raise ConfigError("unknown problem kind %r (expected qp or lrr)" % kind)
    params: dict = {"kind": kind}
    for item in filter(None, (s.strip() for s in rest.split(","))):
        if "=" not in item:
            raise ConfigError("malformed descriptor item %r" % item)
        key, _, val = item.partition("=")
        key = key.strip()
        val = val.strip()
        if key in params:
            raise ConfigError("repeated %s descriptor key %r" % (kind, key))
        if key == "manifest":
            params[key] = val
            continue
        try:
            num = float(val)
        except ValueError:
            raise ConfigError("non-numeric value %r for %r" % (val, key))
        if not math.isfinite(num):
            raise ConfigError("non-finite value %r for %r" % (val, key))
        params[key] = num
    return params


DESCRIPTOR_KEYS = {"qp": ("seed", "p", "n", "m"),
                   "lrr": ("seed", "d", "n", "lam", "mu", "gamma", "manifest")}


def build_problem(params: dict):
    """Return ('qp', QpInstance) or ('lrr', LrrInstance).  An unknown key,
    and whatever building raises, is a configuration error."""
    kind = params["kind"]
    for key in params:
        if key != "kind" and key not in DESCRIPTOR_KEYS[kind]:
            raise ConfigError("unknown %s descriptor key %r (expected %s)"
                              % (kind, key, ", ".join(DESCRIPTOR_KEYS[kind])))

    def integer(key, default=None):
        val = params.get(key, default)
        if val != int(val):
            raise ConfigError("%r must be an integer, got %r" % (key, val))
        return int(val)

    # only the keys the descriptor names reach the library, whose defaults
    # fill in the rest
    try:
        if params["kind"] == "qp":
            return "qp", gen_qp(integer("seed", 0), **{
                lib: integer(key) for key, lib in
                (("p", "p"), ("n", "n_i"), ("m", "m")) if key in params})
        if "manifest" in params:
            ignored = [k for k in params if k not in ("kind", "manifest")]
            if ignored:
                raise ConfigError("lrr:manifest takes no other key; the "
                                  "manifest fixes %s" % ", ".join(ignored))
            return "lrr", load_lrr_instance(params["manifest"])
        X = np.random.default_rng(integer("seed", 0)).standard_normal(
            (integer("d", 40), integer("n", 40)))
        return "lrr", build_lrr(X, **{key: params[key] for key in
                                      ("lam", "mu", "gamma") if key in params})
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError("cannot build the %s problem: %s: %s"
                          % (params["kind"], type(exc).__name__, exc)) from exc


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _theta_or_auto(text: str) -> Optional[float]:
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ConfigError("theta must be a number or 'auto'")


def _prepare_solve(args, algorithm: str, kind: str, inst,
                   theta_text: str = "auto", columns: Optional[tuple] = None):
    """Turn the options into one solve: return ``(start, echo)``.

    Everything raised here is a configuration error, and so is what
    ``start(accumulators)`` raises without a ``result``: padmm-ebb's first
    metric, say.  What it raises with one is a solver abort.  One kernel
    config, with sigma, xi0, iteration budget and tolerance, serves all five
    algorithms; padmm-ebb's beta (``--beta``, or :func:`padmm_ebb.rule_beta`)
    and xi0 are resolved here, once, and ``echo`` records them with the run's
    other settings.  A ``--beta`` that is not finite and positive is rejected
    whatever the algorithm, so ``bench`` checks it even without padmm-ebb
    among its algorithms, and ``--theta`` caps every algorithm's theta_k.
    ``columns`` None takes the algorithm's default trace columns, with
    padmm-ebb's opt-in ones under ``--full-trace``.
    """
    theta = _theta_or_auto(theta_text)
    xi0 = HpeConfig.xi0 if args.xi0 is None else args.xi0
    cfg = HpeConfig(sigma=args.sigma, xi0=xi0,
                    max_iters=args.max_iters, tol_residual=args.tol)
    echo = {"algorithm": algorithm, "problem": args.problem,
            "sigma": args.sigma, "theta": theta_text,
            "tol": args.tol, "max_iters": args.max_iters}
    beta = args.beta
    if beta is None and algorithm == "padmm-ebb":
        beta = padmm_ebb.rule_beta(inst.problem)
    if beta is not None and not (math.isfinite(beta) and beta > 0):
        raise ConfigError("beta must be finite and positive, got %r" % beta)
    if algorithm == "padmm-ebb":
        echo.update(beta=beta, xi0=xi0)
        if columns is None:
            columns = padmm_ebb.DEFAULT_COLUMNS + (
                padmm_ebb.OPT_IN_COLUMNS if args.full_trace else ())
        ref = inst.z_star if kind == "qp" else None
        return (lambda accs: run_padmm(
            inst.problem, cfg, beta=beta, theta_fixed=theta, ref_solution=ref,
            accumulators=accs, columns=columns)), echo
    if kind != "qp":
        raise ConfigError("algorithm %s only supports qp problems" % algorithm)
    oracle, M0, x0, ref = SCHEMES[algorithm].setup(inst, cfg.sigma)
    columns = hpe_core.DEFAULT_COLUMNS if columns is None else columns
    return (lambda accs: hpe_core.run(
        oracle, x0, M0, cfg, ref_solution=ref, accumulators=accs,
        columns=hpe_core.select(columns), theta_cap=theta)), echo


def _solver_abort(exc) -> int:
    print("solver abort: %s" % exc, file=sys.stderr)
    return EXIT_SOLVER


def _write_outputs(args, result, acc: hpe_core.ErgodicAccumulator,
                   config_echo: dict) -> None:
    """Try every output asked for; the writes that fail are one ConfigError."""
    writes = (("--trace", args.trace, result.trace.to_csv),
              ("--summary", args.summary, lambda path: hpe_core.write_summary(
                  path, result, config_echo, acc=acc)))
    failed = []
    for option, path, write in writes:
        if path:
            try:
                write(path)
            except OSError as exc:
                failed.append("%s %s cannot be written: %s"
                              % (option, path, exc))
    if failed:
        raise ConfigError("; ".join(failed))


def cmd_solve(args) -> int:
    # padmm-ebb alone reads these options; bench hands them to it only
    for dest in ("beta", "xi0", "full_trace"):
        if getattr(args, dest) is not None and args.algorithm != "padmm-ebb":
            raise ConfigError("--%s applies to padmm-ebb only"
                              % dest.replace("_", "-"))
    for option, path in (("--trace", args.trace), ("--summary", args.summary)):
        where = path and (path if os.path.exists(path)
                          else os.path.dirname(os.path.abspath(path)))
        if where and (os.path.isdir(path) or not os.access(where, os.W_OK)):
            raise ConfigError("%s %s cannot be written" % (option, path))
    params = parse_descriptor(args.problem)
    kind, inst = build_problem(params)
    start, config_echo = _prepare_solve(args, args.algorithm, kind, inst,
                                        args.theta)
    acc = hpe_core.ErgodicAccumulator()
    try:
        result = start([acc])
    except SOLVER_FAULTS as exc:
        if not hasattr(exc, "result"):
            raise  # no iteration ran: a configuration error
        code = _solver_abort(exc)
        try:
            _write_outputs(args, exc.result, acc, config_echo)
        except ConfigError as err:  # the abort still decides the exit code
            print("configuration error: %s" % err, file=sys.stderr)
        return code
    _write_outputs(args, result, acc, config_echo)
    v_norms = result.trace.column("v_norm")
    print("%s on %s: %s after %d iterations (final v_norm %s)"
          % (args.algorithm, args.problem,
             "converged" if result.converged else result.reason,
             result.iterations,
             ("%.3e" % v_norms[-1]) if v_norms else "n/a"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    params = parse_descriptor(args.problem)
    kind, inst = build_problem(params)
    algos = [a.strip() for a in args.algorithms.split(",")] if args.algorithms \
        else list(ALGORITHMS)
    for a in algos:
        if a not in ALGORITHMS:
            raise ConfigError("unknown algorithm %r" % a)
    if kind == "lrr":
        algos = [a for a in algos if a == "padmm-ebb"]
        if not algos:
            raise ConfigError("lrr problems are only supported by padmm-ebb")
    starts = [_prepare_solve(args, a, kind, inst, columns=("v_norm",))[0]
              for a in algos]
    for i, (a, start) in enumerate(zip(algos, starts)):
        t0 = time.perf_counter()
        try:
            result = start(())
        except SOLVER_FAULTS as exc:
            exc.args = ("%s: %s" % (a, exc),)
            if not hasattr(exc, "result"):
                raise  # no iteration ran: a configuration error
            return _solver_abort(exc)
        v_norms = result.trace.column("v_norm") or [float("nan")]
        if i == 0:  # with the first row: a failure before it writes nothing
            print("%-12s %9s %10s %12s %9s" % ("algorithm", "iters",
                                               "converged", "residual",
                                               "time_s"))
        print("%-12s %9d %10s %12.3e %9.2f"
              % (a, result.iterations, result.converged,
                 result.final.get("pkkt", v_norms[-1]),
                 time.perf_counter() - t0))
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    params = parse_descriptor(args.problem)
    kind, inst = build_problem(params)
    if kind != "qp":
        raise ConfigError("no closed-form reference oracle for %s problems"
                          % kind)
    res = inst.kkt_residual(inst.x_star, inst.y_star)
    np.set_printoptions(precision=10, suppress=False)
    print("x* =", inst.x_star)
    print("y* =", inst.y_star)
    print("kkt_residual = %.3e" % res)
    return EXIT_OK if res <= 1e-10 else EXIT_SOLVER


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    from . import acceptance
    results = acceptance.run_all(verbose=True)
    failed = [r for r in results if not r.passed]
    print("%d/%d acceptance criteria passed"
          % (len(results) - len(failed), len(results)))
    return EXIT_OK if not failed else EXIT_SOLVER


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsplit",
        description="Certified operator-splitting and multi-block ADMM solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", required=True,
                       help="descriptor, e.g. qp:seed=1,p=2,n=5,m=3 or "
                            "lrr:seed=0,d=40,n=40 or lrr:manifest=DIR")
        p.add_argument("--sigma", type=float, default=HpeConfig.sigma,
                       help="relative-error parameter in [0, 1) (default %g)"
                            % HpeConfig.sigma)
        p.add_argument("--xi0", type=float, default=None,
                       help="leading coefficient of padmm-ebb's summable xi "
                            "schedule (default %g)" % HpeConfig.xi0)
        p.add_argument("--tol", type=float, default=HpeConfig.tol_residual,
                       help="stop tolerance (default %g)"
                            % HpeConfig.tol_residual)
        p.add_argument("--max-iters", type=int, default=HpeConfig.max_iters,
                       help="iteration budget (default %d)"
                            % HpeConfig.max_iters)
        p.add_argument("--beta", type=float, default=None,
                       help="penalty parameter of padmm-ebb (default "
                            "%g sum_i L_i / sum_i ||A_i||^2, or %g when L_1 "
                            "or the second sum is 0)"
                            % (padmm_ebb.PENALTY_KAPPA,
                               padmm_ebb.FALLBACK_BETA))

    ps = sub.add_parser("solve", help="run one algorithm on one problem")
    ps.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    add_common(ps)
    ps.add_argument("--theta", default="auto",
                    help="cap on the over-relaxation theta_k that each step "
                         "takes from the criterion's root: a finite number "
                         "above -1, or 'auto' for %g" % hpe_core.THETA_CAP)
    ps.add_argument("--trace", default=None, help="write per-iteration CSV")
    ps.add_argument("--full-trace", action="store_true", default=None,
                    help="also write the opt-in trace columns "
                         "(padmm-ebb: pkkt, objective)")
    ps.add_argument("--summary", default=None, help="write JSON run summary")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="compare algorithms on one problem")
    add_common(pb)
    pb.add_argument("--algorithms", default=None,
                    help="comma-separated subset (default: all compatible)")
    pb.set_defaults(func=cmd_bench)

    po = sub.add_parser("oracle", help="print the reference solution")
    po.add_argument("--problem", required=True)
    po.set_defaults(func=cmd_oracle)

    pc = sub.add_parser("check", help="run the acceptance suite")
    pc.set_defaults(func=cmd_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built once per process: the
    defaults it prints hold for the life of the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except SOLVER_FAULTS as exc:  # a ConfigError is one
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
