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
from .hpe_core import ErgodicAccumulator, HpeConfig, linear_rate_factor
from .linops import BlockLayout, BlockPoint, IdentityMetric
from .padmm_ebb import PadmmConfig, run_padmm
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
        pcfg = PadmmConfig(max_iters=N_ITERS, tol=0.0, sigma_bar=0.9)
        pres = run_padmm(inst.problem, pcfg, ref_solution=inst.z_star,
                         columns=GATE_TRACE)
        runs.append(("padmm-ebb", pcfg.sigma_bar, pres.trace))
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


def _strongly_monotone_affine(n: int, seed: int, shift: float = 1.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    W = rng.standard_normal((n, n))
    K = B @ B.T / n + shift * np.eye(n) + 0.5 * (W - W.T)
    q = rng.standard_normal(n)
    x_star = np.linalg.solve(K, -q)
    return K, q, x_star


def check_pointwise_bounds(kmax: int = 10_000) -> CriterionResult:
    """Best-iterate residual bounds hold at every k on an exact-resolvent run."""
    t0 = time.perf_counter()
    K, q, x_star = _strongly_monotone_affine(10, seed=0)
    theta = 0.25
    cfg = HpeConfig(sigma=0.5, theta_min=theta, c_min=1.0, xi0=0.0,
                    max_iters=kmax, tol_residual=0.0)
    oracle = hpe_core.make_affine_resolvent_oracle(K, q, c=1.0, theta=theta)
    lay = BlockLayout((K.shape[0],))
    x0 = BlockPoint(np.ones(K.shape[0]), lay)
    d0 = float(np.linalg.norm(x0.data - x_star))
    res = hpe_core.run(oracle, x0, IdentityMetric(), cfg,
                       columns=hpe_core.select(("v_norm", "eps")))
    v_norms = np.array(res.trace.column("v_norm"))
    eps = np.array(res.trace.column("eps"))
    best_v = np.minimum.accumulate(v_norms)
    best_e = np.minimum.accumulate(eps)
    ks = np.arange(1, len(v_norms) + 1, dtype=float)
    # closed forms under the constant-metric schedule (xi = 0)
    denom_v = ks * (1.0 - cfg.sigma) * (1.0 + theta) ** 3
    bound_v = np.sqrt(4.0 / denom_v) * d0
    bound_e = d0 ** 2 / (ks * (1.0 - cfg.sigma) * (1.0 + theta) ** 2)
    # tie the vectorized formulas to the canonical calculator
    for k in (1, 7, 100, len(ks)):
        pb = hpe_core.pointwise_bound(int(k), cfg, d0)
        if abs(pb.bound_v - bound_v[k - 1]) > 1e-12 * (1 + pb.bound_v) or \
           abs(pb.bound_eps - bound_e[k - 1]) > 1e-12 * (1 + pb.bound_eps):
            return CriterionResult("pointwise-bounds", False,
                                   "bound calculators disagree at k=%d" % k)
    ok_v = bool(np.all(best_v <= bound_v * (1 + 1e-12)))
    ok_e = bool(np.all(best_e <= bound_e * (1 + 1e-12)))
    elapsed = time.perf_counter() - t0
    passed = ok_v and ok_e and elapsed < 10.0
    margin = float(np.max(best_v / bound_v))
    return CriterionResult(
        "pointwise-bounds", passed,
        "k<=%d, max best_v/bound_v %.3f, eps ok=%s, %.1fs"
        % (kmax, margin, ok_e, elapsed))


# ---------------------------------------------------------------------------
# Ergodic rate
# ---------------------------------------------------------------------------


def check_ergodic_rate() -> CriterionResult:
    """Log-log slope of the ergodic residual is at most -0.8 for both weightings."""
    oracle, M0, x0, _ = SCHEMES["condat-vu"].setup(
        gen_qp(0, p=2, n_i=5, m=3), 0.5)
    cfg = HpeConfig(sigma=0.5, max_iters=1000, tol_residual=0.0)
    accs = {"alpha=1": ErgodicAccumulator(),
            "alpha=k": ErgodicAccumulator(alpha=float)}
    res = hpe_core.run(oracle, x0, M0, cfg, accumulators=list(accs.values()))
    ks = np.arange(1, len(res.trace) + 1, dtype=float)
    details = []
    passed = True
    for label, acc in accs.items():
        slope = hpe_core.loglog_slope(ks[99:], np.array(acc.v_norms[99:]))
        eps_min = min(acc.eps_bars)
        ok = slope is not None and slope <= -0.8 and eps_min >= -1e-12
        passed = passed and ok
        details.append("%s: slope %.2f, min eps_bar %.1e"
                       % (label, slope if slope is not None else float("nan"),
                          eps_min))
    return CriterionResult("ergodic-rate", passed, "; ".join(details))


# ---------------------------------------------------------------------------
# Multi-block solver vs dense KKT oracle
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _padmm_qp_runs(theta_fixed):
    """(converged, iterations, final pkkt, |z - z*|, recomputed KKT residual)
    of ``run_padmm`` on the ten QP seeds per ``theta_fixed``, and the seconds."""
    runs = []
    t0 = time.perf_counter()
    for seed in range(10):
        inst = gen_qp(seed, p=2, n_i=5, m=3)
        res = run_padmm(inst.problem, PadmmConfig(max_iters=5000, tol=1e-8,
                                                  theta_fixed=theta_fixed))
        runs.append((res.converged, res.iterations, res.final_pkkt,
                     (res.z - inst.z_star).norm(),
                     inst.kkt_residual(np.concatenate(res.x_blocks), res.y)))
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
    """Native Condat-Vu updates match the kernel's verified correction."""
    inst = gen_qp(0, p=2, n_i=5, m=3)
    prob, tmax, _ = condat_vu_from_qp(inst, sigma=0.5)
    theta = 0.5 * tmax
    z_direct = [BlockPoint.zeros(prob.layout)]
    deviations = []

    def deviation(z_kernel):
        scale = 1.0 + float(np.max(np.abs(z_direct[0].data)))
        deviations.append(float(np.max(np.abs(z_direct[0].data
                                              - z_kernel.data))) / scale)

    def oracle(z_kernel, M, cfg):
        # the kernel's iterate after k - 1 corrections against as many
        # native updates; the kernel certifies and applies the correction
        deviation(z_kernel)
        z_direct[0] = condat_vu_step(z_direct[0], prob, theta)[1]
        return condat_vu_step(z_kernel, prob, theta)[0]

    res = hpe_core.run(oracle, BlockPoint.zeros(prob.layout), prob.metric(),
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
    K, q, x_star = _strongly_monotone_affine(8, seed=1)
    kappa = 1.0 / float(np.linalg.svd(K, compute_uv=False)[-1])
    theta = 0.25
    sigma = 0.5
    # small c keeps the last 50 iterations well above the roundoff floor
    c = 0.1
    rho = linear_rate_factor(kappa, sigma, theta, c_min=c, Xi=1.0,
                             omega_upper=1.0, omega_lower=1.0)
    cfg = HpeConfig(sigma=sigma, theta_min=theta, c_min=c, max_iters=150,
                    tol_residual=0.0, xi0=0.0)
    oracle = hpe_core.make_affine_resolvent_oracle(K, q, c=c, theta=theta)
    lay = BlockLayout((K.shape[0],))
    x0 = BlockPoint(np.ones(K.shape[0]), lay)
    ref = BlockPoint(x_star, lay)
    res = hpe_core.run(oracle, x0, IdentityMetric(), cfg, ref_solution=ref,
                       columns=hpe_core.select(("dist_M_sq",)))
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


def check_theta_acceleration() -> CriterionResult:
    medians = []
    for theta_fixed in (None, 0.0):
        runs, _ = _padmm_qp_runs(theta_fixed)
        medians.append(float(np.median(
            [iterations if converged else 5000
             for converged, iterations, *_ in runs])))
    med_a, med_0 = medians
    passed = med_a < med_0
    return CriterionResult(
        "theta-acceleration", passed,
        "median iterations adaptive %.0f vs theta=0 %.0f" % (med_a, med_0))


# ---------------------------------------------------------------------------
# Desk-scale LRR
# ---------------------------------------------------------------------------


def check_lrr_desk_scale() -> CriterionResult:
    t0 = time.perf_counter()
    X = np.random.default_rng(0).standard_normal((40, 40))
    inst = build_lrr(X)
    cfg = PadmmConfig(max_iters=3000, tol=1e-3, beta=300.0)
    res = run_padmm(inst.problem, cfg)
    feas = inst.problem.feasibility(res.x_blocks)
    feas_primary = float(np.linalg.norm(feas[:X.size]))
    elapsed = time.perf_counter() - t0
    passed = res.converged and feas_primary <= 1e-4 and elapsed < 120.0
    return CriterionResult(
        "lrr-desk-scale", passed,
        "residual %.2e after %d iters, |X-XZ-GX-E| %.2e, %.1fs"
        % (res.final_pkkt, res.iterations, feas_primary, elapsed))


# ---------------------------------------------------------------------------
# Prox property suites
# ---------------------------------------------------------------------------


def check_prox_correctness(probes: int = 100) -> CriterionResult:
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(probes):
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
                           "%d probes, worst residual %.2e" % (probes, worst))


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
