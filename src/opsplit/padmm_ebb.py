"""Multi-block proximal ADMM with extra-gradient correction and BB metrics.

Solves linearly constrained multi-block composite programs

    min f(x_1, ..., x_p) + sum_i g_i(x_i)   s.t.  sum_i A_i* x_i = b

through their primal-dual KKT operator.  One iteration performs:

1. a Gauss-Seidel sweep over the blocks of a majorized augmented Lagrangian,
   each subproblem reduced to a single prox of g_i by a scalar-majorant
   proximal term, followed by the half-updated multiplier step;
2. a step-size range computation: the largest over-relaxation compatible with
   the relative-error criterion, both globally (operator inequality) and along
   the current direction (ratio of two quadratic forms);
3. the extra-gradient correction z+ = z + (1 + theta) M^-1 U (w - z), which is
   exactly the kernel step of :mod:`opsplit.hpe_core` for the certificate
   v = U(z - w), eps = (1/4)||x - x~||_D^2, whose step M^-1 U(z - w) the
   step-size range has already computed;
4. a blockwise Barzilai-Borwein update of the inverse-metric scalars, clamped
   to the admissible metric schedule.

Progress is measured by the proximal KKT residual R(z).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
import scipy.linalg

from . import hpe_core
from .hpe_core import (ErgodicAccumulator, HpeCertificate, IterRecord,
                       IterTrace, MetricScheduleViolation, attach_partial_run,
                       certify, default_xi_schedule, extragradient_step,
                       validate_metric_update)
from .linops import (BlockDiagonalMetric, BlockLayout, BlockPoint, LinearMap,
                     spectral_upper_bound, weighted_norm_sq)

PADMM_TRACE_COLUMNS = ("pkkt", "feas_norm", "objective", "theta_adap",
                       "theta_bar", "beta")


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------


@dataclass
class MultiBlockProblem:
    """A p-block composite program with linear equality coupling.

    ``A[i].apply`` maps the dual space to block i (the operator hitting the
    multiplier in the KKT primal rows); ``A[i].adjoint_apply`` maps block i to
    the dual space, so feasibility reads b - sum_i A[i].adjoint_apply(x_i).
    ``grad_f`` takes and returns a list of flat block arrays; ``L[i]`` are the
    blockwise Lipschitz constants of grad_f.
    """

    gs: list
    grad_f: Callable[[List[np.ndarray]], List[np.ndarray]]
    L: List[float]
    A: List[LinearMap]
    b: np.ndarray
    primal_layout: BlockLayout
    f_value: Optional[Callable[[List[np.ndarray]], float]] = None
    name: str = ""

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if not (len(self.gs) == len(self.L) == len(self.A)
                == self.primal_layout.nblocks):
            raise ValueError("inconsistent block counts")
        for i, a in enumerate(self.A):
            if a.domain_dim != self.b.size or a.codomain_dim != self.primal_layout.sizes[i]:
                raise ValueError("constraint map %d has wrong dimensions" % i)
        if any(l < 0 for l in self.L):
            raise ValueError("Lipschitz constants must be nonnegative")

    @property
    def p(self) -> int:
        return self.primal_layout.nblocks

    @property
    def m(self) -> int:
        return self.b.size

    @property
    def full_layout(self) -> BlockLayout:
        return BlockLayout(self.primal_layout.sizes + (self.m,),
                           self.primal_layout.shapes + (None,))

    def split(self, z: BlockPoint):
        xs = [z.block(i).copy() for i in range(self.p)]
        return xs, z.block(self.p).copy()

    def join(self, xs: Sequence[np.ndarray], y: np.ndarray) -> BlockPoint:
        return BlockPoint(np.concatenate([np.asarray(x, dtype=float).ravel()
                                          for x in xs] + [np.asarray(y, dtype=float)]),
                          self.full_layout)

    def feasibility(self, xs: Sequence[np.ndarray]) -> np.ndarray:
        r = self.b.copy()
        for a, x in zip(self.A, xs):
            r -= a.adjoint_apply(x)
        return r

    def objective(self, xs: Sequence[np.ndarray]) -> float:
        val = self.f_value(list(xs)) if self.f_value is not None else 0.0
        for g, x in zip(self.gs, xs):
            val += g.value(x)
        return float(val)

    def constraint_norms(self, iters: int = 100, seed: int = 0) -> List[float]:
        return [spectral_upper_bound(a, iters=iters, seed=seed) for a in self.A]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class PadmmConfig:
    """Solver knobs; defaults follow the package-wide schedule conventions."""

    beta: float = 1.0
    beta_schedule: Optional[Callable[[int], float]] = None
    sigma_bar: float = 0.9
    theta_min: float = -0.5
    theta_cap: float = 5.0
    theta_fixed: Optional[float] = None  # e.g. 0.0 to disable over-relaxation
    xi0: float = 0.01
    xi_schedule: Optional[Callable[[int], float]] = None
    initial_inv_scalars: Optional[Sequence[float]] = None
    m_floor: float = 1e-8
    margin: float = 1.05
    max_iters: int = 1000
    tol: float = 1e-8
    theta_bar_dim_limit: int = 0  # assemble dense theta_bar when dim <= limit

    def __post_init__(self):
        if not 0.0 <= self.sigma_bar < 1.0:
            raise ValueError("sigma_bar must lie in [0, 1)")
        if not -1.0 < self.theta_min:
            raise ValueError("theta_min must exceed -1")
        if self.theta_fixed is not None and not (
                math.isfinite(self.theta_fixed) and self.theta_fixed > -1.0):
            raise ValueError("theta_fixed must be finite and exceed -1")
        if self.m_floor <= 0:
            raise ValueError("m_floor must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.xi_schedule is None:
            self.xi_schedule = default_xi_schedule(self.xi0)

    def beta_at(self, k: int) -> float:
        if self.beta_schedule is not None:
            return float(self.beta_schedule(k))
        return self.beta


def geometric_beta_schedule(beta0: float = 1e-4, rho: float = 1.1,
                            beta_max: float = 1e10) -> Callable[[int], float]:
    """Bounded geometric penalty warm-up beta_k = min(beta0 * rho^k, beta_max)."""

    def beta(k: int) -> float:
        return min(beta0 * rho ** k, beta_max)

    return beta


# ---------------------------------------------------------------------------
# Block sweep
# ---------------------------------------------------------------------------


def scalar_majorant_etas(problem: MultiBlockProblem, beta: float,
                         anorms: Sequence[float], margin: float = 1.05) -> List[float]:
    """Per-block prox curvatures eta_i = L_i + margin * beta ||A_i||^2 + 1e-8."""
    return [l + margin * beta * a * a + 1e-8 for l, a in zip(problem.L, anorms)]


def block_sweep(xs: Sequence[np.ndarray], y: np.ndarray,
                problem: MultiBlockProblem, beta: float,
                etas: Sequence[float], grads: Optional[List[np.ndarray]] = None):
    """One Gauss-Seidel pass over the primal blocks plus the multiplier step.

    With the scalar-majorant proximal term each block subproblem collapses to
    a single prox of g_i with step 1/eta_i at an explicitly computed point.
    Returns (x_tilde list, y_tilde).
    """
    if grads is None:
        grads = problem.grad_f(list(xs))
    if any(e <= 0 for e in etas):
        raise ValueError("nonpositive prox curvature eta")
    r = -problem.b.copy()
    for a, x in zip(problem.A, xs):
        r += a.adjoint_apply(x)
    x_tilde: List[np.ndarray] = []
    y_tilde = None
    for i in range(problem.p):
        a = problem.A[i]
        force = grads[i] + a.apply(y) + beta * a.apply(r)
        u = xs[i] - force / etas[i]
        xt = problem.gs[i].evaluate(1.0 / etas[i], u)
        x_tilde.append(xt)
        r = r + a.adjoint_apply(xt - xs[i])
        if i == 0:
            # multiplier step uses only the freshest first block
            y_tilde = y + beta * r
    return x_tilde, y_tilde


# ---------------------------------------------------------------------------
# The correction operator U
# ---------------------------------------------------------------------------


class UOperator:
    """Block lower-triangular operator tying the sweep to its certificate.

    Acting on d = (dx_1, ..., dx_p, dy):

    * block 1:    (eta_1 I - beta A_1 A_1*) dx_1
    * block i>=2: eta_i dx_i + beta A_i sum_{2<=j<i} A_j* dx_j
    * dual:       sum_{j>=2} A_j* dx_j + (1/beta) dy

    so that v = U(z - w) is an enlargement element of the KKT operator at w.
    """

    def __init__(self, problem: MultiBlockProblem, beta: float,
                 etas: Sequence[float]):
        self.problem = problem
        self.beta = float(beta)
        self.etas = [float(e) for e in etas]
        self.layout = problem.full_layout

    def apply(self, d: BlockPoint) -> BlockPoint:
        pr = self.problem
        out = BlockPoint.zeros(self.layout)
        dx0 = d.block(0)
        a0 = pr.A[0]
        out.set_block(0, self.etas[0] * dx0
                      - self.beta * a0.apply(a0.adjoint_apply(dx0)))
        acc = np.zeros(pr.m)
        for i in range(1, pr.p):
            dxi = d.block(i)
            out.set_block(i, self.etas[i] * dxi + self.beta * pr.A[i].apply(acc))
            acc = acc + pr.A[i].adjoint_apply(dxi)
        out.set_block(pr.p, acc + d.block(pr.p) / self.beta)
        return out

    def adjoint_apply(self, d: BlockPoint) -> BlockPoint:
        pr = self.problem
        out = BlockPoint.zeros(self.layout)
        dx0 = d.block(0)
        a0 = pr.A[0]
        out.set_block(0, self.etas[0] * dx0
                      - self.beta * a0.apply(a0.adjoint_apply(dx0)))
        dy = d.block(pr.p)
        acc = np.zeros(pr.m)  # sum over higher-indexed primal blocks
        for i in range(pr.p - 1, 0, -1):
            dxi = d.block(i)
            out.set_block(i, self.etas[i] * dxi
                          + self.beta * pr.A[i].apply(acc) + pr.A[i].apply(dy))
            acc = acc + pr.A[i].adjoint_apply(dxi)
        out.set_block(pr.p, dy / self.beta)
        return out

    def to_dense(self) -> np.ndarray:
        pr = self.problem
        sizes = self.layout.sizes
        off = self.layout.offsets
        n = self.layout.dim
        U = np.zeros((n, n))
        a_dense = [a.to_dense() for a in pr.A]          # n_i x m  (dual -> block)
        astar = [ad.T for ad in a_dense]                # m x n_i
        s0 = slice(off[0], off[1])
        U[s0, s0] = self.etas[0] * np.eye(sizes[0]) - self.beta * a_dense[0] @ astar[0]
        for i in range(1, pr.p):
            si = slice(off[i], off[i + 1])
            U[si, si] = self.etas[i] * np.eye(sizes[i])
            for j in range(1, i):
                sj = slice(off[j], off[j + 1])
                U[si, sj] = self.beta * a_dense[i] @ astar[j]
        sd = slice(off[pr.p], off[pr.p + 1])
        for j in range(1, pr.p):
            sj = slice(off[j], off[j + 1])
            U[sd, sj] = astar[j]
        U[sd, sd] = np.eye(pr.m) / self.beta
        return U


def build_U(problem: MultiBlockProblem, beta: float,
            etas: Sequence[float]) -> UOperator:
    """Assemble the sweep's correction operator for the scalar-majorant policy."""
    return UOperator(problem, beta, etas)


# ---------------------------------------------------------------------------
# Step-size range
# ---------------------------------------------------------------------------


@dataclass
class ThetaRange:
    theta_bar: float
    theta_adap: float
    gamma_form: float
    denom_form: float
    Ud: BlockPoint    # U d, the certificate's v
    step: BlockPoint  # M^-1 U d, the certificate's step


def _d_weights(problem: MultiBlockProblem) -> np.ndarray:
    sizes = problem.full_layout.sizes
    w = np.zeros(problem.full_layout.dim)
    off = problem.full_layout.offsets
    for i, l in enumerate(problem.L):
        w[off[i]:off[i + 1]] = l
    return w


def theta_range(d: BlockPoint, U: UOperator, M: BlockDiagonalMetric,
                sigma_bar: float, problem: MultiBlockProblem,
                compute_bar: bool = True, power_iters: int = 100,
                seed: int = 0) -> ThetaRange:
    """Admissible over-relaxation range along the current direction d = z - w.

    theta_adap solves the criterion with equality along d (ratio of the
    Gamma-form to the U* M^-1 U-form); theta_bar is the direction-independent
    bound from a power-iteration estimate of the top generalized eigenvalue,
    computed on a dense assembly (small problems only when compute_bar).
    """
    if d.norm() == 0.0:
        raise ValueError("zero direction: iterate equals its sweep point")
    Ud = U.apply(d)
    step = BlockPoint(M.solve(Ud.data), Ud.layout)
    dw = _d_weights(problem)
    gamma_form = (2.0 * d.inner(Ud)
                  + (sigma_bar - 1.0) * weighted_norm_sq(M, d)
                  - 0.5 * float(np.dot(d.data * dw, d.data)))
    denom_form = float(np.dot(Ud.data, step.data))
    if denom_form <= 0:
        raise ValueError("degenerate U*M^-1U form")
    theta_adap = -1.0 + gamma_form / denom_form
    theta_bar = float("nan")
    if compute_bar:
        Ud_dense = U.to_dense()
        Mdiag = np.repeat(np.asarray(M.scalars), M.layout.sizes)
        Gamma = Ud_dense + Ud_dense.T + (sigma_bar - 1.0) * np.diag(Mdiag) \
            - 0.5 * np.diag(dw)
        Amat = Ud_dense.T @ (Ud_dense / Mdiag[:, None])
        eig_min = scipy.linalg.eigvalsh(Gamma)[0]
        if eig_min <= 0:
            raise ValueError("Gamma indefinite (min eigenvalue %.3e)" % eig_min)
        lu = scipy.linalg.lu_factor(Gamma)
        rng = np.random.default_rng(seed)
        wvec = rng.standard_normal(Gamma.shape[0])
        lam = 0.0
        for _ in range(power_iters):
            wvec = scipy.linalg.lu_solve(lu, Amat @ wvec)
            nrm = np.linalg.norm(wvec)
            if nrm == 0:
                break
            wvec /= nrm
            lam = float(wvec @ Amat @ wvec) / float(wvec @ Gamma @ wvec)
        # direction-independent bound must not exceed the directional ratio
        lam_hat = max(lam, denom_form / gamma_form) * 1.01
        theta_bar = -1.0 + 1.0 / lam_hat
    return ThetaRange(theta_bar=theta_bar, theta_adap=theta_adap,
                      gamma_form=gamma_form, denom_form=denom_form,
                      Ud=Ud, step=step)


# ---------------------------------------------------------------------------
# Barzilai-Borwein inverse-metric update
# ---------------------------------------------------------------------------


def bb_metric_update(prev_scalars: Sequence[float],
                     numerators: Sequence[float],
                     denominators: Sequence[float],
                     xi_k: float, m_floor: float) -> List[float]:
    """Curvature-matching update of the inverse-metric scalars.

    Candidate = ||delta point|| / ||delta gradient-like quantity|| per block;
    degenerate denominators fall back to the relaxed previous scalar.  The
    result is clamped into [max(m_floor, prev/(1+xi)), (1+xi)*prev] so the
    induced metric obeys both sides of the admissible schedule.
    """
    out = []
    for prev, num, den in zip(prev_scalars, numerators, denominators):
        hi = (1.0 + xi_k) * prev
        lo = max(m_floor, prev / (1.0 + xi_k))
        if den <= 1e-14 * max(num, 1.0):
            cand = hi
        else:
            cand = num / den
        out.append(min(max(cand, lo), hi))
    return out


# ---------------------------------------------------------------------------
# Proximal KKT residual
# ---------------------------------------------------------------------------


def pkkt_residual(xs: Sequence[np.ndarray], y: np.ndarray,
                  problem: MultiBlockProblem,
                  grads: Optional[List[np.ndarray]] = None):
    """Stacked prox fixed-point residual plus the affine feasibility gap.

    Primal rows: x_i - prox_{g_i}(x_i - grad_i f(x) - A_i y) (unit prox step);
    dual row: b - sum_i A_i* x_i.  Returns (residual BlockPoint, its norm).
    """
    if grads is None:
        grads = problem.grad_f(list(xs))
    res = BlockPoint.zeros(problem.full_layout)
    for i in range(problem.p):
        u = xs[i] - grads[i] - problem.A[i].apply(y)
        res.set_block(i, xs[i] - problem.gs[i].evaluate(1.0, u))
    res.set_block(problem.p, problem.feasibility(xs))
    return res, res.norm()


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


@dataclass
class PadmmResult:
    z: BlockPoint
    x_blocks: List[np.ndarray]
    y: np.ndarray
    trace: IterTrace
    converged: bool
    reason: str
    iterations: int
    final_pkkt: float = float("nan")

    @property
    def solution(self) -> BlockPoint:
        return self.z


def run_padmm(problem: MultiBlockProblem, config: PadmmConfig,
              z0: Optional[BlockPoint] = None,
              ref_solution: Optional[BlockPoint] = None,
              accumulators: Sequence[ErgodicAccumulator] = ()) -> PadmmResult:
    """Run the solver until the proximal KKT residual meets the tolerance.

    Every iteration is certified against the relative-error criterion (with
    sigma = sigma_bar) and the metric schedule; a violation aborts with a
    diagnostic, since it indicates an inconsistent theta/proximal-term policy.
    The schedule's lower bound is the floor the BB clamp guarantees,
    min(M_0 scalars) / prod_{j<=k} (1 + xi_j).

    Each certified step, with its per-block eps, is handed to every
    :class:`~opsplit.hpe_core.ErgodicAccumulator` in ``accumulators``; no
    certificate is kept.  An exception raised in the loop carries the
    partial ``trace`` and the failing ``iteration``.
    """
    layout = problem.full_layout
    z = z0.copy() if z0 is not None else BlockPoint.zeros(layout)
    anorms = problem.constraint_norms()
    trace = IterTrace(extra_columns=PADMM_TRACE_COLUMNS)
    margin_mult = 1.0
    inv_scalars: Optional[List[float]] = (
        list(config.initial_inv_scalars) if config.initial_inv_scalars else None)
    prev_xt = prev_s = prev_yt = prev_r = None
    omega_floor = None
    t0 = time.perf_counter()
    converged = False
    reason = "max_iters"
    iterations = 0
    pnorm = float("nan")

    k = 0
    try:
        for k in range(config.max_iters):
            beta = config.beta_at(k)
            xs, y = problem.split(z)
            grads = problem.grad_f(list(xs))
            _, pnorm = pkkt_residual(xs, y, problem, grads=grads)
            if pnorm <= config.tol:
                converged, reason = True, "pkkt"
                break
            iterations = k + 1
            if inv_scalars is None:
                etas0 = scalar_majorant_etas(problem, beta, anorms,
                                             config.margin * margin_mult)
                inv_scalars = [1.0 / e for e in etas0] + [beta]
            M = BlockDiagonalMetric.from_inverse_scalars(inv_scalars, layout)
            if omega_floor is None:
                omega_floor = M.omega_lower

            # sweep, with margin escalation if the directional Gamma form fails
            for attempt in range(10):
                etas = scalar_majorant_etas(problem, beta, anorms,
                                            config.margin * margin_mult)
                x_tilde, y_tilde = block_sweep(xs, y, problem, beta, etas, grads=grads)
                w = problem.join(x_tilde, y_tilde)
                d = z - w
                if d.norm() == 0.0:
                    break
                U = build_U(problem, beta, etas)
                tr = None
                try:
                    tr = theta_range(d, U, M, config.sigma_bar, problem,
                                     compute_bar=(layout.dim <= config.theta_bar_dim_limit))
                except ValueError:
                    tr = None
                if tr is not None and tr.gamma_form > 1e-10 * tr.denom_form:
                    break
                margin_mult *= 2.0
            else:
                raise RuntimeError("could not find a positive Gamma form; "
                                   "proximal-term margins exhausted")

            if d.norm() == 0.0:
                # sweep fixed point: v = 0, we are at a KKT point
                converged, reason = True, "fixed_point"
                break

            theta_adap = tr.theta_adap
            # the adaptive endpoint meets the criterion with equality; back off by
            # a relative hair so roundoff cannot flip the inequality
            theta_safe = -1.0 + (1.0 + theta_adap) * (1.0 - 1e-9)
            theta = min(theta_safe, config.theta_cap)
            if config.theta_fixed is not None:
                theta = min(config.theta_fixed, theta_safe)
            v = tr.Ud
            eps_per_block = np.array(
                [0.25 * l * float(np.dot(d.block(i), d.block(i)))
                 for i, l in enumerate(problem.L)])
            eps = float(eps_per_block.sum())
            cert = HpeCertificate(y=w, v=v, eps=eps, c=1.0, theta=theta,
                                  step=tr.step)
            rep = certify(k + 1, z, cert, M, config.sigma_bar)

            z_next = extragradient_step(z, cert)

            # Barzilai-Borwein quantities from this sweep
            grads_t = problem.grad_f(list(x_tilde))
            s_now = [v.block(i) + grads_t[i] - grads[i] for i in range(problem.p)]
            r_now = v.block(problem.p).copy()
            xi_k = float(config.xi_schedule(k + 1))
            if prev_xt is not None:
                nums = [float(np.linalg.norm(x_tilde[i] - prev_xt[i]))
                        for i in range(problem.p)]
                dens = [float(np.linalg.norm(s_now[i] - prev_s[i]))
                        for i in range(problem.p)]
                nums.append(float(np.linalg.norm(y_tilde - prev_yt)))
                dens.append(float(np.linalg.norm(r_now - prev_r)))
                new_scalars = bb_metric_update(inv_scalars, nums, dens,
                                               xi_k, config.m_floor)
            else:
                new_scalars = list(inv_scalars)
            M_next = BlockDiagonalMetric.from_inverse_scalars(new_scalars, layout)
            omega_floor /= 1.0 + xi_k
            upd = validate_metric_update(M, M_next, xi_k, omega_lower=omega_floor)
            if not upd:
                raise MetricScheduleViolation("iteration %d: %s"
                                              % (k + 1, upd.message))

            rec = IterRecord(
                k=k + 1, time_s=time.perf_counter() - t0, v_norm=v.norm(),
                eps=eps, theta=theta, criterion_slack=rep.rel_slack,
                step_norm=math.sqrt(max(rep.diff_M_sq, 0.0)),
                metric_min=M.omega_lower, metric_max=M.omega_upper,
                c=1.0, xi=xi_k, step_M_sq=rep.diff_M_sq,
                extras={"pkkt": pnorm,
                        "feas_norm": float(np.linalg.norm(problem.feasibility(xs))),
                        "objective": problem.objective(xs),
                        "theta_adap": theta_adap,
                        "theta_bar": tr.theta_bar,
                        "beta": beta})
            if ref_solution is not None:
                rec.dist_to_ref = (z - ref_solution).norm()
                rec.dist_M_sq = weighted_norm_sq(M, z - ref_solution)
            trace.append(rec)
            for acc in accumulators:
                acc.add(cert, eps_per_block)

            prev_xt, prev_s, prev_yt, prev_r = x_tilde, s_now, y_tilde, r_now
            inv_scalars = new_scalars
            z = z_next
    except Exception as exc:
        attach_partial_run(exc, trace, k + 1)
        raise

    xs, y = problem.split(z)
    if not converged:
        _, pnorm = pkkt_residual(xs, y, problem)
        if pnorm <= config.tol:
            converged, reason = True, "pkkt"
    return PadmmResult(z=z, x_blocks=xs, y=y, trace=trace, converged=converged,
                       reason=reason, iterations=iterations, final_pkkt=pnorm)


# ---------------------------------------------------------------------------
# Ergodic KKT certificates
# ---------------------------------------------------------------------------


def ergodic_kkt_certificates(acc: ErgodicAccumulator):
    """Weighted primal-dual averages with per-block enlargement budgets.

    ``acc`` is an accumulator handed to :func:`run_padmm`, which feeds it
    each step's per-block eps; its weights are (1 + theta_i) alpha_i (c = 1
    here).  Returns (x_bar blocks, y_bar, eps_bar array of length p), where
    eps_bar[j] is block j's enlargement budget eps_j plus its correction
    <y_j - y_bar_j, v_j - v_bar_j>, both weighted and averaged.  The
    correction has no fixed sign, because v_j = (U d)_j couples block j to
    the others, so a single entry can be negative; the entries sum to the
    ergodic eps of the certificates restricted to the primal blocks.
    """
    y_bar, _, _ = acc.aggregate()
    eps_bar = acc.block_eps_bars()
    p = eps_bar.size
    return [y_bar.block(j).copy() for j in range(p)], y_bar.block(p).copy(), eps_bar
