"""End-to-end acceptance checks shared by the CLI and the test suite.

Each checker returns a :class:`CriterionResult` with a pass flag and a short
human-readable detail line; ``run_all`` executes the full battery.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from . import hpe_core
from .hpe_core import (CertificateRecorder, ErgodicAccumulator, HpeConfig,
                       ergodic_aggregate, linear_rate_factor)
from .linops import IdentityMetric, norm
from .padmm_ebb import run_padmm
from .prox_problems import gen_qp, build_lrr, prox_l1, prox_nuclear, proj_nonneg
from .splitters import SCHEMES, condat_vu_from_qp, condat_vu_step


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return "[%s] %s: %s" % ("PASS" if self.passed else "FAIL",
                                self.name, self.detail)


# ---------------------------------------------------------------------------
# Shared instrumented runs (criteria 1 and 2 evaluate the same battery)
# ---------------------------------------------------------------------------

N_SEEDS = 20
N_ITERS = 100
N_BOUND_ITERS = 10_000  # pointwise-bounds: the bounds hold at every k up to it
N_PROBES = 100  # prox-correctness
GATE_TRACE = ("theta", "criterion_slack") + hpe_core.GATE_COLUMNS


@functools.lru_cache(maxsize=None)
def _invariance_runs():
    """(algorithm, sigma, trace) triples for the 5x20 instrumented battery,
    run once, and the seconds they took."""
    runs: List[Tuple[str, float, object]] = []
    t0 = time.perf_counter()
    for seed in range(N_SEEDS):
        inst = gen_qp(seed, p=2 + seed % 2, n_i=4 + seed % 3, m=2 + seed % 2)
        sigma = 0.5
        cfg = HpeConfig(sigma=sigma, max_iters=N_ITERS, tol_residual=0.0)
        for name, scheme in SCHEMES.items():
            oracle, M0, x0, ref = scheme.setup(inst, sigma)
            res = hpe_core.run(oracle, x0, M0, cfg, ref_solution=ref,
                               columns=hpe_core.select(GATE_TRACE))
            runs.append((name, sigma, res.trace))
        pcfg = HpeConfig(sigma=0.9, max_iters=N_ITERS, tol_residual=0.0)
        pres = run_padmm(inst.problem, pcfg, ref_solution=inst.z_star,
                         columns=GATE_TRACE)
        runs.append(("padmm-ebb", pcfg.sigma, pres.trace))
    return runs, time.perf_counter() - t0


def check_criterion_invariance() -> CriterionResult:
    """Every certificate of every scheme satisfies the relative-error criterion."""
    runs, elapsed = _invariance_runs()
    slacks = [s for _, _, tr in runs for s in tr.column("criterion_slack")]
    worst, count = min(slacks, default=float("inf")), len(slacks)
    passed = worst >= -1e-9 and elapsed < 60.0
    return CriterionResult(
        "criterion-invariance", passed,
        "%d certificates, min relative slack %.3e, battery %.1fs"
        % (count, worst, elapsed))


def check_fejer_contraction() -> CriterionResult:
    """Metric-distance contraction to the known solution holds each step."""
    runs, _ = _invariance_runs()
    viols = []
    for _, sigma, trace in runs:
        dists = trace.column("dist_M_sq")
        for xi, dist, theta, step, dist1 in zip(
                trace.column("xi"), dists, trace.column("theta"),
                trace.column("step_M_sq"), dists[1:]):
            if math.isfinite(dist) and math.isfinite(dist1):
                rhs = (1.0 + xi) * (dist - (1.0 - sigma) * (1.0 + theta) * step)
                viols.append((dist1 - rhs) / (1.0 + abs(rhs)))
    worst, checked = max(viols, default=-math.inf), len(viols)
    passed = checked > 0 and worst <= 1e-9
    return CriterionResult(
        "fejer-contraction", passed,
        "%d steps, worst relative violation %.3e" % (checked, worst))


# ---------------------------------------------------------------------------
# Pointwise complexity bounds
# ---------------------------------------------------------------------------


EXACT_THETA, EXACT_SIGMA = 0.25, 0.5


def _exact_affine_run(n: int, seed: int, c: float, iters: int, columns):
    """(K, x*, result) of the exact resolvent oracle with step c,
    theta = EXACT_THETA and sigma = EXACT_SIGMA, run from the ones vector for
    ``iters`` iterations on the strongly monotone affine operator K x + q of
    size n that ``seed`` draws; x* solves K x + q = 0."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    W = rng.standard_normal((n, n))
    K = B @ B.T / n + np.eye(n) + 0.5 * (W - W.T)
    q = rng.standard_normal(n)
    x_star = np.linalg.solve(K, -q)
    oracle = hpe_core.make_affine_resolvent_oracle(K, q, c=c,
                                                   theta=EXACT_THETA)
    cfg = HpeConfig(sigma=EXACT_SIGMA, max_iters=iters, tol_residual=0.0)
    res = hpe_core.run(oracle, np.ones(n), IdentityMetric(), cfg,
                       ref_solution=x_star, columns=hpe_core.select(columns))
    return K, x_star, res


def check_pointwise_bounds() -> CriterionResult:
    """The best ||v|| and eps up to each k stay within
    ``hpe_core.pointwise_bound``'s bounds, taken with the run's own theta_min,
    omega_upper and xi series, at every k on an exact-resolvent run."""
    t0 = time.perf_counter()
    c = 1.0
    _, x_star, res = _exact_affine_run(
        10, 0, c, N_BOUND_ITERS, ("v_norm", "eps", "theta", "metric_max", "xi"))
    trace = res.trace
    d0 = float(np.linalg.norm(1.0 - x_star))  # from the ones vector, M_0 = I
    pb = hpe_core.pointwise_bound(d0, EXACT_SIGMA, min(trace.column("theta")),
                                  c, max(trace.column("metric_max")),
                                  trace.column("xi"))
    best_v = np.minimum.accumulate(trace.column("v_norm"))
    best_e = np.minimum.accumulate(trace.column("eps"))
    ok_v = bool(np.all(best_v <= pb.bound_v * (1 + 1e-12)))
    ok_e = bool(np.all(best_e <= pb.bound_eps * (1 + 1e-12)))
    elapsed = time.perf_counter() - t0
    passed = ok_v and ok_e and elapsed < 10.0
    margin = float(np.max(best_v / pb.bound_v))
    return CriterionResult(
        "pointwise-bounds", passed,
        "k<=%d, max best_v/bound_v %.3f, eps ok=%s, %.1fs"
        % (N_BOUND_ITERS, margin, ok_e, elapsed))


# ---------------------------------------------------------------------------
# Ergodic rate
# ---------------------------------------------------------------------------


def check_ergodic_rate() -> CriterionResult:
    """Log-log slope of the ergodic residual is at most -0.8 for both
    weightings, and the online pair at the last step matches a two-pass sum
    over the run's certificates to 1e-9 relative."""
    oracle, M0, x0, _ = SCHEMES["condat-vu"].setup(
        gen_qp(0, p=2, n_i=5, m=3), 0.5)
    cfg = HpeConfig(sigma=0.5, max_iters=1000, tol_residual=0.0)
    accs = {"alpha=1": ErgodicAccumulator(),
            "alpha=k": ErgodicAccumulator(alpha=float)}
    certs = CertificateRecorder()
    hpe_core.run(oracle, x0, M0, cfg, accumulators=[*accs.values(), certs])
    ks = np.arange(1, len(certs) + 1, dtype=float)
    details = []
    passed = True
    for label, acc in accs.items():
        slope = hpe_core.loglog_slope(ks[99:], np.array(acc.v_norms[99:]))
        eps_min = min(acc.eps_bars)
        _, v_bar, eps_bar = ergodic_aggregate(
            certs, [acc.alpha(k) if acc.alpha else 1.0 for k in ks])
        dev = max(abs(acc.v_norms[-1] / norm(v_bar) - 1.0),
                  abs(acc.eps_bars[-1] / eps_bar - 1.0))
        ok = (slope is not None and slope <= -0.8 and eps_min >= -1e-12
              and dev <= 1e-9)
        passed = passed and ok
        details.append("%s: slope %.2f, min eps_bar %.1e, two-pass "
                       "deviation %.1e"
                       % (label, slope if slope is not None else float("nan"),
                          eps_min, dev))
    return CriterionResult("ergodic-rate", passed, "; ".join(details))


# ---------------------------------------------------------------------------
# Multi-block solver vs dense KKT oracle
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _padmm_qp_runs(theta_fixed, sigma=0.9, xi0=None):
    """(converged, iterations, final pkkt, |z - z*|, recomputed KKT residual)
    of ``run_padmm`` on the ten QP seeds per ``theta_fixed``, ``sigma`` and
    ``xi0`` (None: ``HpeConfig``'s default), and the seconds."""
    runs, cfg = [], HpeConfig(sigma=sigma, max_iters=5000, tol_residual=1e-8,
                              xi0=HpeConfig.xi0 if xi0 is None else xi0)
    t0 = time.perf_counter()
    for seed in range(10):
        inst = gen_qp(seed, p=2, n_i=5, m=3)
        res = run_padmm(inst.problem, cfg, theta_fixed=theta_fixed)
        xs, y = inst.problem.split(res.solution)
        runs.append((res.converged, res.iterations, res.final["pkkt"],
                     norm(res.solution - inst.z_star),
                     inst.kkt_residual(np.concatenate(xs), y)))
    return runs, time.perf_counter() - t0


def check_padmm_qp_equivalence() -> CriterionResult:
    runs, elapsed = _padmm_qp_runs(None)
    worst_err = worst_kkt = 0.0
    worst_iters = 0
    for seed, (converged, iterations, pkkt, err, kkt) in enumerate(runs):
        if not converged:
            return CriterionResult(
                "padmm-qp-equivalence", False,
                "seed %d did not reach tol (final residual %.3e)"
                % (seed, pkkt))
        worst_err, worst_kkt = max(worst_err, err), max(worst_kkt, kkt)
        worst_iters = max(worst_iters, iterations)
    passed = (worst_err <= 1e-6 and worst_kkt <= 1e-8 * (1.0 + 1e-6)
              and elapsed < 30.0)
    return CriterionResult(
        "padmm-qp-equivalence", passed,
        "10 seeds, max |z - z*| %.2e, max KKT residual %.3e, max iters %d, "
        "%.1fs" % (worst_err, worst_kkt, worst_iters, elapsed))


# ---------------------------------------------------------------------------
# Direct vs kernel iterate equivalence
# ---------------------------------------------------------------------------


def check_direct_vs_kernel() -> CriterionResult:
    """Native Condat-Vu updates z + (1 + theta)(w - z), from the sweep point
    w alone, match the kernel's verified correction."""
    inst = gen_qp(0, p=2, n_i=5, m=3)
    prob, tmax, _ = condat_vu_from_qp(inst, sigma=0.5)
    theta = 0.5 * tmax
    z_direct = [np.zeros(prob.dim_x + prob.dim_y)]
    deviations = []

    def deviation(z_kernel):
        scale = 1.0 + float(np.max(np.abs(z_direct[0])))
        deviations.append(float(np.max(np.abs(z_direct[0] - z_kernel)))
                          / scale)

    def oracle(z_kernel, M, cfg):
        # the kernel's iterate after k - 1 corrections against as many
        # native updates; the kernel certifies and applies the correction
        deviation(z_kernel)
        z = z_direct[0]
        w = condat_vu_step(z, prob, theta).y
        z_direct[0] = z + (1.0 + theta) * (w - z)
        return condat_vu_step(z_kernel, prob, theta)

    res = hpe_core.run(oracle, np.zeros_like(z_direct[0]), prob.metric(),
                       HpeConfig(sigma=0.5, max_iters=200, tol_residual=0.0))
    deviation(res.solution)
    worst = max(deviations)
    passed = worst <= 1e-12
    return CriterionResult("direct-vs-kernel", passed,
                           "200 iterations, max relative deviation %.2e" % worst)


# ---------------------------------------------------------------------------
# Local linear rate
# ---------------------------------------------------------------------------


def check_local_linear_rate() -> CriterionResult:
    """On an exact-resolvent run, each of the last 50 steps shrinks the
    distance to the solution by a factor of at most 1 - rho / 2, rho from
    ``hpe_core.linear_rate_factor``."""
    # small c keeps the last 50 iterations well above the roundoff floor
    c = 0.1
    K, _, res = _exact_affine_run(8, 1, c, 150, ("dist_M_sq",))
    kappa = 1.0 / float(np.linalg.svd(K, compute_uv=False)[-1])
    rho = linear_rate_factor(kappa, EXACT_SIGMA, EXACT_THETA, c_min=c, Xi=1.0,
                             omega_upper=1.0, omega_lower=1.0)
    dists = np.array(res.trace.column("dist_M_sq"))
    ratios = np.sqrt(dists[1:] / dists[:-1])
    tail = ratios[-50:]
    bound = 1.0 - rho / 2.0
    worst = float(np.max(tail))
    passed = worst <= bound
    return CriterionResult(
        "local-linear-rate", passed,
        "max tail ratio %.4f vs bound %.4f (rho=%.4f, kappa=%.2f)"
        % (worst, bound, rho, kappa))


# ---------------------------------------------------------------------------
# Over-relaxation acceleration
# ---------------------------------------------------------------------------


def _median_iterations(runs) -> float:
    """Median iteration count of a QP battery; a run that did not converge
    took its whole budget."""
    return float(np.median([iterations for _, iterations, *_ in runs]))


def check_theta_acceleration() -> CriterionResult:
    med_a, med_0 = (_median_iterations(_padmm_qp_runs(theta_fixed)[0])
                    for theta_fixed in (None, 0.0))
    passed = med_a < med_0
    return CriterionResult(
        "theta-acceleration", passed,
        "median iterations adaptive %.0f vs theta=0 %.0f" % (med_a, med_0))


# ---------------------------------------------------------------------------
# Barzilai-Borwein acceleration
# ---------------------------------------------------------------------------


def check_bb_acceleration() -> CriterionResult:
    """The Barzilai-Borwein metric at the default xi0 takes fewer median
    iterations than the constant metric (xi0 = 0) on the sigma = 0.5 QP
    battery, where it is faster on all ten seeds.  The sigma = 0.9 battery
    cannot carry the claim: its medians differ by 4.5 iterations at xi0 = 1,
    and seed 6 takes one more with the metric."""
    med_bb, med_0 = (_median_iterations(_padmm_qp_runs(None, 0.5, xi0)[0])
                     for xi0 in (None, 0.0))
    passed = med_bb < med_0
    return CriterionResult(
        "bb-acceleration", passed,
        "median iterations xi0=%g %.1f vs xi0=0 %.1f"
        % (HpeConfig.xi0, med_bb, med_0))


# ---------------------------------------------------------------------------
# Desk-scale LRR
# ---------------------------------------------------------------------------


def _independent_pkkt(problem, z: np.ndarray) -> float:
    """The pKKT residual norm of ``z`` (``padmm_ebb.pkkt_residual``'s rows),
    with each nuclear row's prox taken from the spectral-ball projection
    through the Moreau identity, prox(U) = U - P(U) at unit step, not from
    the solve's own ``prox_nuclear``: a wrong prox converges to its own
    fixed point, where its own residual reads small."""
    xs, y = problem.split(z)
    grads = problem.grad_f(xs)
    rows = []
    for g, x, grad, a in zip(problem.gs, xs, grads, problem.A):
        u = x - grad - a.apply(y)
        if g.name == "nuclear":
            uu, ss, vvt = np.linalg.svd(u.reshape(g.shape, order="F"),
                                        full_matrices=False)
            prox = u - ((uu * np.minimum(ss, 1.0)) @ vvt).ravel(order="F")
        else:
            prox = g.evaluate(1.0, u)
        rows.append(x - prox)
    return float(np.linalg.norm(np.concatenate(rows
                                               + [problem.feasibility(xs)])))


def check_lrr_desk_scale() -> CriterionResult:
    """The 40 x 40 LRR solve converges, and its final residual, recomputed
    with an independent nuclear prox, is within the tolerance."""
    t0 = time.perf_counter()
    X = np.random.default_rng(0).standard_normal((40, 40))
    inst = build_lrr(X)
    cfg = HpeConfig(sigma=0.9, max_iters=3000, tol_residual=1e-3)
    res = run_padmm(inst.problem, cfg, beta=300.0)
    feas = inst.problem.feasibility(inst.problem.split(res.solution)[0])
    feas_primary = float(np.linalg.norm(feas[:X.size]))
    recomputed = _independent_pkkt(inst.problem, res.solution)
    elapsed = time.perf_counter() - t0
    passed = (res.converged and recomputed <= cfg.tol_residual
              and feas_primary <= 1e-4 and elapsed < 120.0)
    return CriterionResult(
        "lrr-desk-scale", passed,
        "residual %.2e (recomputed %.2e) after %d iters, |X-XZ-GX-E| %.2e, "
        "%.1fs" % (res.final["pkkt"], recomputed, res.iterations,
                   feas_primary, elapsed))


# ---------------------------------------------------------------------------
# Prox property suites
# ---------------------------------------------------------------------------


def check_prox_correctness() -> CriterionResult:
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(N_PROBES):
        # l1: subgradient optimality of the soft threshold
        n = rng.integers(2, 20)
        v = rng.standard_normal(n) * rng.uniform(0.1, 5)
        t = float(rng.uniform(0.05, 3))
        lam = float(rng.uniform(0.05, 3))
        u = prox_l1(t, lam, v)
        on = u != 0
        if on.any():
            worst = max(worst, float(np.max(np.abs(
                t * lam * np.sign(u[on]) + u[on] - v[on]))))
        if (~on).any():
            worst = max(worst, float(np.max(np.abs(v[~on])) - t * lam))

        # nuclear: Moreau identity against an independent spectral-ball projection
        V = rng.standard_normal((8, 6))
        t2 = float(rng.uniform(0.1, 3))
        P = prox_nuclear(t2, V)
        uu, ss, vvt = np.linalg.svd(V / t2, full_matrices=False)
        proj = (uu * np.minimum(ss, 1.0)) @ vvt
        worst = max(worst, float(np.max(np.abs(V - (P + t2 * proj)))))

        # nonneg: idempotence and complementarity
        w = rng.standard_normal(n)
        pw = proj_nonneg(w)
        worst = max(worst, float(np.max(np.abs(proj_nonneg(pw) - pw))))
        worst = max(worst, float(np.max(pw * (pw - w))))
        worst = max(worst, float(np.max(-pw)))
    passed = worst <= 1e-10
    return CriterionResult("prox-correctness", passed,
                           "%d probes, worst residual %.2e" % (N_PROBES, worst))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

ALL_CHECKS: List[Callable[[], CriterionResult]] = [
    check_criterion_invariance,
    check_fejer_contraction,
    check_pointwise_bounds,
    check_ergodic_rate,
    check_padmm_qp_equivalence,
    check_direct_vs_kernel,
    check_local_linear_rate,
    check_theta_acceleration,
    check_bb_acceleration,
    check_lrr_desk_scale,
    check_prox_correctness,
]


def run_all(verbose: bool = True) -> List[CriterionResult]:
    results = []
    for check in ALL_CHECKS:
        try:
            result = check()
        except Exception as exc:  # a crash counts as a failed criterion
            result = CriterionResult(check.__name__, False,
                                     "raised %s: %s" % (type(exc).__name__, exc))
        results.append(result)
        if verbose:
            print(result.line(), flush=True)
    return results
