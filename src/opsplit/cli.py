"""Command-line driver: solve problems, benchmark, query oracles, self-check.

Exit codes: 0 success, 2 configuration error (raised while parsing, building
or validating), 3 solver abort (raised once a solve has started).
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


# raised once a solve has started: solver aborts, whatever their class (a
# numpy LinAlgError is a ValueError, but mid-solve it is no configuration error)
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

    def integer(key, default):
        val = params.get(key, default)
        if val != int(val):
            raise ConfigError("%r must be an integer, got %r" % (key, val))
        return int(val)

    try:
        if params["kind"] == "qp":
            return "qp", gen_qp(integer("seed", 0), p=integer("p", 2),
                                n_i=integer("n", 5), m=integer("m", 3))
        if "manifest" in params:
            ignored = [k for k in params if k not in ("kind", "manifest")]
            if ignored:
                raise ConfigError("lrr:manifest takes no other key; the "
                                  "manifest fixes %s" % ", ".join(ignored))
            return "lrr", load_lrr_instance(params["manifest"])
        X = np.random.default_rng(integer("seed", 0)).standard_normal(
            (integer("d", 40), integer("n", 40)))
        return "lrr", build_lrr(X, lam=params.get("lam", 1e3),
                                mu=params.get("mu", 1e4),
                                gamma=params.get("gamma", 1e4))
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
        theta = float(text)
    except ValueError:
        raise ConfigError("theta must be a number or 'auto'")
    if not (math.isfinite(theta) and theta > -1.0):
        raise ConfigError("theta must be a finite number above -1, got %s"
                          % text)
    return theta


def _beta(args, inst) -> float:
    return padmm_ebb.rule_beta(inst.problem) if args.beta is None \
        else args.beta


def _xi0(args) -> float:
    return HpeConfig.xi0 if args.xi0 is None else args.xi0


def _prepare_solve(args, algorithm: str, kind: str, inst,
                   theta: Optional[float], columns: tuple):
    """Build and validate one solve and return ``start(accumulators)``.

    Everything raised here is a configuration error; everything raised by
    ``start`` happens once the solve has begun and is a solver fault.  One
    kernel config, with sigma, xi0, iteration budget and tolerance,
    serves all five algorithms.  The run's trace records the ``columns``
    named.
    """
    cfg = HpeConfig(sigma=args.sigma, xi0=_xi0(args),
                    max_iters=args.max_iters, tol_residual=args.tol)
    if algorithm == "padmm-ebb":
        beta = _beta(args, inst)
        if not (math.isfinite(beta) and beta > 0):
            raise ConfigError("beta must be finite and positive, got %r" % beta)
        ref = inst.z_star if kind == "qp" else None
        return lambda accs: run_padmm(inst.problem, cfg, beta=beta,
                                      theta_fixed=theta, ref_solution=ref,
                                      accumulators=accs, columns=columns)
    if kind != "qp":
        raise ConfigError("algorithm %s only supports qp problems" % algorithm)
    oracle, M0, x0, ref = SCHEMES[algorithm].setup(inst, cfg.sigma, theta, **(
        {"r": args.cv_r, "s": args.cv_s} if algorithm == "condat-vu" else {}))
    return lambda accs: hpe_core.run(oracle, x0, M0, cfg, ref_solution=ref,
                                     accumulators=accs,
                                     columns=hpe_core.select(columns))


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
    # an option is read by one algorithm: bench hands it to that one only
    for dest, owner in (("beta", "padmm-ebb"), ("xi0", "padmm-ebb"),
                        ("full_trace", "padmm-ebb"),
                        ("cv_r", "condat-vu"), ("cv_s", "condat-vu")):
        if getattr(args, dest) is not None and args.algorithm != owner:
            raise ConfigError("--%s applies to %s only"
                              % (dest.replace("_", "-"), owner))
    for option, path in (("--trace", args.trace), ("--summary", args.summary)):
        where = path and (path if os.path.exists(path)
                          else os.path.dirname(os.path.abspath(path)))
        if where and (os.path.isdir(path) or not os.access(where, os.W_OK)):
            raise ConfigError("%s %s cannot be written" % (option, path))
    params = parse_descriptor(args.problem)
    kind, inst = build_problem(params)
    theta = _theta_or_auto(args.theta)
    columns = hpe_core.DEFAULT_COLUMNS
    if args.algorithm == "padmm-ebb":
        columns = padmm_ebb.DEFAULT_COLUMNS + (
            padmm_ebb.OPT_IN_COLUMNS if args.full_trace else ())
    start = _prepare_solve(args, args.algorithm, kind, inst, theta, columns)
    config_echo = {"algorithm": args.algorithm, "problem": args.problem,
                   "sigma": args.sigma, "theta": args.theta,
                   "tol": args.tol, "max_iters": args.max_iters}
    if args.algorithm == "padmm-ebb":
        config_echo.update(beta=_beta(args, inst), xi0=_xi0(args))
    acc = hpe_core.ErgodicAccumulator()
    try:
        result = start([acc])
    except SOLVER_FAULTS as exc:
        code = _solver_abort(exc)
        result = getattr(exc, "result", None) or hpe_core.aborted(
            exc, hpe_core.IterTrace(columns), None)  # raised before the loop
        try:
            _write_outputs(args, result, acc, config_echo)
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
    starts = [_prepare_solve(args, a, kind, inst, None, ("v_norm",))
              for a in algos]
    print("%-12s %9s %10s %12s %9s" % ("algorithm", "iters", "converged",
                                       "residual", "time_s"))
    for a, start in zip(algos, starts):
        t0 = time.perf_counter()
        try:
            result = start(())
        except SOLVER_FAULTS as exc:
            return _solver_abort("%s: %s" % (a, exc))
        v_norms = result.trace.column("v_norm") or [float("nan")]
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
                            "or the second sum is 0)" % padmm_ebb.PENALTY_RULE)
        p.add_argument("--cv-r", type=float, default=None,
                       help="primal scale r of the condat-vu metric")
        p.add_argument("--cv-s", type=float, default=None,
                       help="dual scale s of the condat-vu metric")

    ps = sub.add_parser("solve", help="run one algorithm on one problem")
    ps.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    add_common(ps)
    ps.add_argument("--theta", default="auto",
                    help="over-relaxation: a number or 'auto'")
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


@functools.lru_cache(maxsize=1)
def _parser(defaults: tuple) -> argparse.ArgumentParser:
    """The parser of :func:`build_parser` for ``defaults``, the values it
    reads, built again only when one of them changes."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser((HpeConfig.sigma, HpeConfig.xi0, HpeConfig.tol_residual,
                      HpeConfig.max_iters, padmm_ebb.PENALTY_RULE))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print("solver abort: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
