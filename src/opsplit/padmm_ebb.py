"""Multi-block proximal ADMM with extra-gradient correction and BB metrics.

Solves linearly constrained multi-block composite programs

    min f(x_1, ..., x_p) + sum_i g_i(x_i)   s.t.  sum_i A_i* x_i = b

through their primal-dual KKT operator.  The solver is an instance of the
kernel loop :func:`opsplit.hpe_core.run`; one iteration performs:

0. the proximal KKT residual R(z) test, which ends the run at tolerance;
   its rows are evaluated feasibility row first and only until they decide
   the test, so the nuclear-norm rows of LRR rarely cost an SVD;
1. a Gauss-Seidel sweep over the blocks of a majorized augmented Lagrangian,
   each subproblem reduced to a single prox of g_i by a scalar-majorant
   proximal term, followed by the half-updated multiplier step;
2. the step-size range: the certificate v = U(z - w), eps = (1/4)||x -
   x~||_D^2 and its step M^-1 U(z - w), along which the kernel takes the
   largest over-relaxation the criterion admits (its root);
3. the kernel's extra-gradient correction z+ = z + (1 + theta) M^-1 U (w - z);
4. a blockwise Barzilai-Borwein update of the inverse-metric scalars, clamped
   to the admissible metric schedule.

Steps 1-2 are the kernel's oracle, step 0 its ``stop`` hook and step 4 its
``metric_update``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import hpe_core
from .hpe_core import (ErgodicAccumulator, HpeCertificate, HpeConfig,
                       NonFiniteValue, RunResult)
from .linops import (BlockDiagonalMetric, BlockLayout, LinearMap, norm,
                     spectral_upper_bound)

# The multi-block trace columns, in CSV order after the kernel's: (name,
# producer of the iteration's hooks, :class:`_Iteration`, and the kernel's
# step, whose root is theta_adap).  The opt-in ones
# cost work the solve does not need: pkkt every residual row, which the stop
# test does not, and objective every g_i value.  The objective is taken at the
# sweep point x~ (the certificate's y), which each prox keeps in the domain of
# its g_i; over-relaxation can push the iterate z out of it.
PADMM_COLUMNS = (
    ("pkkt", lambda it, s: it.pnorm),
    ("feas_norm", lambda it, s: norm(it.feas)),
    ("objective",
     lambda it, s: it.problem.objective(it.points[:it.problem.p])),
    ("theta_adap", lambda it, s: s.root),
    ("beta", lambda it, s: it.beta),
)
OPT_IN_COLUMNS = ("pkkt", "objective")
DEFAULT_COLUMNS = hpe_core.DEFAULT_COLUMNS + tuple(
    name for name, _ in PADMM_COLUMNS if name not in OPT_IN_COLUMNS)

MARGIN = 1.05     # safety factor of the proximal curvatures
M_FLOOR = 1e-8    # smallest inverse-metric scalar the BB update keeps
PENALTY_KAPPA = 0.5  # kappa of the penalty rule, :func:`rule_beta`
FALLBACK_BETA = 1.0  # the rule's beta where it has no scale


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
    blockwise Lipschitz constants of grad_f.  ``full_layout`` (block i has
    ``A[i].codomain_dim`` entries, then the multiplier's m) and ``d_weights``
    (L_i on block i's entries, 0 on the multiplier) are built once, at
    construction.
    """

    gs: list
    grad_f: Callable[[List[np.ndarray]], List[np.ndarray]]
    L: List[float]
    A: List[LinearMap]
    b: np.ndarray
    f_value: Optional[Callable[[List[np.ndarray]], float]] = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if not len(self.gs) == len(self.L) == len(self.A):
            raise ValueError("inconsistent block counts")
        for i, a in enumerate(self.A):
            if a.domain_dim != self.b.size:
                raise ValueError("constraint map %d has wrong dimensions" % i)
        for i, l in enumerate(self.L):
            if not (math.isfinite(l) and l >= 0):
                raise ValueError("Lipschitz constant %d must be finite and "
                                 "nonnegative, got %r" % (i, l))
        self.full_layout = BlockLayout(
            tuple(a.codomain_dim for a in self.A) + (self.m,))
        self.d_weights = np.repeat(np.asarray(list(self.L) + [0.0], dtype=float),
                                   self.full_layout.sizes)
        self._anorms = None

    @property
    def p(self) -> int:
        return len(self.A)

    @property
    def m(self) -> int:
        return self.b.size

    def split(self, z: np.ndarray):
        *xs, y = (block.copy() for block in self.full_layout.split(z))
        return xs, y

    def join(self, xs: Sequence[np.ndarray], y: np.ndarray) -> np.ndarray:
        return np.concatenate([*xs, y])

    def feasibility(self, xs: Sequence[np.ndarray]) -> np.ndarray:
        r = self.b.copy()
        for a, x in zip(self.A, xs):
            r -= a.adjoint_apply(x)
        return r

    def objective(self, xs: Sequence[np.ndarray]) -> float:
        """f(x) + sum_i g_i(x_i), term by term.  It stops at the first +inf
        term (an infeasible indicator block) without evaluating the rest:
        proper convex functions never take -inf, so the sum stays +inf."""
        val = self.f_value(list(xs)) if self.f_value is not None else 0.0
        for g, x in zip(self.gs, xs):
            if val == math.inf:
                break
            val += g.value(x)
        return float(val)

    def constraint_norms(self) -> Sequence[float]:
        """Upper estimates of the ||A_i||, computed on the first call only:
        the penalty rule and the prox curvatures share them."""
        if self._anorms is None:
            self._anorms = tuple(spectral_upper_bound(a) for a in self.A)
        return self._anorms


def rule_beta(problem: MultiBlockProblem) -> float:
    """The penalty beta of a run that is given none, set once at setup.

    beta = PENALTY_KAPPA sum_i L_i / sum_i ||A_i||^2 balances the two terms
    of the prox curvatures eta_i = L_i + MARGIN beta ||A_i||^2.  It is
    FALLBACK_BETA when sum_i ||A_i||^2 = 0 or L_1 = 0 (so also when
    sum_i L_i = 0): block 1, whose row of U holds eta_1 I - beta A_1 A_1*,
    then has no curvature of its own to balance, and the rule's beta, set
    by the other blocks, slowed or stalled every such LRR instance tried.
    kappa = 0.5 took the fewest iterations on the QP seeds 0-9 of the
    kappas swept with ``tools/xi_sweep.py --beta-kappa`` (README).  beta
    cannot change during the run: the BB metric could not follow it.
    """
    coupling = sum(a * a for a in problem.constraint_norms())
    if coupling == 0.0 or problem.L[0] == 0.0:
        return FALLBACK_BETA
    return PENALTY_KAPPA * sum(problem.L) / coupling


# ---------------------------------------------------------------------------
# Block sweep
# ---------------------------------------------------------------------------


def scalar_majorant_etas(problem: MultiBlockProblem,
                         beta: float) -> List[float]:
    """Per-block prox curvatures eta_i = L_i + MARGIN beta ||A_i||^2 + 1e-8."""
    return [l + MARGIN * beta * a * a + 1e-8
            for l, a in zip(problem.L, problem.constraint_norms())]


def block_sweep(xs: Sequence[np.ndarray], y: np.ndarray,
                problem: MultiBlockProblem, beta: float,
                etas: Sequence[float], grads: Optional[List[np.ndarray]] = None,
                feas: Optional[np.ndarray] = None,
                Ay: Optional[Sequence[np.ndarray]] = None):
    """One Gauss-Seidel pass over the primal blocks plus the multiplier step.

    With the scalar-majorant proximal term each block subproblem collapses to
    a single prox of g_i with step 1/eta_i at an explicitly computed point.
    ``feas``, the feasibility residual b - sum_i A_i* x_i at ``xs`` (the dual
    block of :func:`pkkt_residual`), and ``Ay``, the images A_i y, save
    recomputing them, bit for bit (same function, same input).  Block i takes
    r to r - A_i*(x_i - x~_i).  Returns (x_tilde list, y_tilde, images), the
    images being these adjoint images A_i*(x_i - x~_i), U's A_i* d_i.
    """
    if grads is None:
        grads = problem.grad_f(list(xs))
    r = -(problem.feasibility(xs) if feas is None else feas)
    x_tilde: List[np.ndarray] = []
    images: List[np.ndarray] = []
    y_tilde = None
    for i in range(problem.p):
        a = problem.A[i]
        force = grads[i] + (Ay[i] if Ay else a.apply(y)) + beta * a.apply(r)
        u = xs[i] - force / etas[i]
        xt = problem.gs[i].evaluate(1.0 / etas[i], u)
        x_tilde.append(xt)
        images.append(a.adjoint_apply(xs[i] - xt))
        r = r - images[-1]
        if i == 0:
            # multiplier step uses only the freshest first block
            y_tilde = y + beta * r
    return x_tilde, y_tilde, images


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

    def apply(self, d: np.ndarray,
              images: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
        """U d, given the images A_j* dx_j or not.  The sweep's A_j*(x_j -
        x~_j) are these bit for bit at d = z - w: dx_j = x_j - x~_j exactly."""
        pr = self.problem
        dxs = pr.full_layout.split(d)
        if images is None:
            images = [a.adjoint_apply(dx) for a, dx in zip(pr.A, dxs)]
        out = [self.etas[0] * dxs[0] - self.beta * pr.A[0].apply(images[0])]
        acc = np.zeros(pr.m)
        for i in range(1, pr.p):
            out.append(self.etas[i] * dxs[i] + self.beta * pr.A[i].apply(acc))
            acc = acc + images[i]
        out.append(acc + dxs[pr.p] / self.beta)
        return np.concatenate(out)


# ---------------------------------------------------------------------------
# Step-size range
# ---------------------------------------------------------------------------


def theta_range(d: np.ndarray, U: UOperator, M: BlockDiagonalMetric,
                images: Optional[Sequence[np.ndarray]] = None):
    """The certificate pair (U d, M^-1 U d) along d = z - w.  The kernel's
    root of v = U d with eps = (1/4) d^T D d is theta_adap = -1 + Gamma-form
    / (U* M^-1 U)-form, Gamma = U + U* - (1 - sigma) M - D/2; the tests
    assemble the direction-independent bound densely, offline."""
    Ud = U.apply(d, images)
    return Ud, M.solve(Ud)


# ---------------------------------------------------------------------------
# Barzilai-Borwein inverse-metric update
# ---------------------------------------------------------------------------


def bb_metric_update(prev_scalars: Sequence[float],
                     numerators: Sequence[float],
                     denominators: Sequence[float],
                     xi_k: float) -> List[float]:
    """Curvature-matching update of the inverse-metric scalars.

    Candidate = ||delta point|| / ||delta gradient-like quantity|| per block;
    degenerate denominators fall back to the relaxed previous scalar.  The
    result is clamped into [max(M_FLOOR, prev/(1+xi)), (1+xi)*prev] so the
    induced metric obeys both sides of the admissible schedule.
    """
    out = []
    for prev, num, den in zip(prev_scalars, numerators, denominators):
        hi = (1.0 + xi_k) * prev
        lo = max(M_FLOOR, prev / (1.0 + xi_k))
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
                  grads: Optional[List[np.ndarray]] = None,
                  tol: Optional[float] = None,
                  Ay: Optional[Sequence[np.ndarray]] = None):
    """Stacked prox fixed-point residual plus the affine feasibility gap.

    Primal rows: x_i - prox_{g_i}(x_i - grad_i f(x) - A_i y) (unit prox step);
    dual row: b - sum_i A_i* x_i, the ``feas`` of :func:`block_sweep`; ``Ay``
    holds the images A_i y.  Returns (dual row, residual norm).

    With ``tol``, the rows are evaluated only until they decide the test
    norm <= tol: the dual row first, then the primal rows in block order,
    until the partial sum of squares exceeds tol^2 (1 + 1e-10), and then
    returns (dual row, +inf) without assembling the residual.  The margin
    is far above the rounding of both sums (gamma_n ~ 1.4e-12 at n = 12,800),
    so the decision is always the full norm's; below tol = 1e-150, where
    tol^2 nears the subnormal range, every row is evaluated.  Once every row
    is evaluated, the norm is the full one, bit for bit.
    """
    if grads is None:
        grads = problem.grad_f(list(xs))
    feas = row = problem.feasibility(xs)
    cutoff = (math.inf if tol is None or 0.0 < abs(tol) < 1e-150
              else tol * tol * (1.0 + 1e-10))
    rows, sumsq = [], 0.0
    for i in range(problem.p):
        sumsq += float(np.dot(row, row))
        if sumsq > cutoff:
            return feas, math.inf
        u = xs[i] - grads[i] - (Ay[i] if Ay else problem.A[i].apply(y))
        row = xs[i] - problem.gs[i].evaluate(1.0, u)
        rows.append(row)
    return feas, norm(np.concatenate(rows + [feas]))


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


class _Iteration:
    """Steps 0-4 of one iteration (module docstring) as the hooks of
    :func:`hpe_core.run`; ``stop`` keeps the pKKT residual's gradients, dual
    block and images A_i y for the sweep, which drops the images and whose
    adjoint images U (built once) reuses; the kernel keeps Xi and takes the
    over-relaxation.  The oracle's eps = (1/4) d^T D d is one dot.  Each
    iteration sweeps once: a directional Gamma form that is not positive,
    or a degenerate step range, aborts the run with
    :class:`CriterionViolation` instead of changing it.  Unless ``columns``
    names ``pkkt``, the stop test cuts the residual short."""

    def __init__(self, problem: MultiBlockProblem, cfg: HpeConfig, beta: float,
                 columns: Sequence[str]):
        self.problem, self.cfg, self.beta = problem, cfg, beta
        self.etas = scalar_majorant_etas(problem, beta)
        self.inv_scalars = [1.0 / e for e in self.etas] + [beta]
        self.U = UOperator(problem, beta, self.etas)
        self.prev, self.pnorm = None, float("nan")
        self.stop_tol = None if "pkkt" in columns else cfg.tol_residual

    def metric(self) -> BlockDiagonalMetric:
        return BlockDiagonalMetric.from_inverse_scalars(
            self.inv_scalars, self.problem.full_layout)

    def stop(self, k: int, z: np.ndarray) -> Optional[str]:
        pr = self.problem
        # views: the loop only reads the iterate, and never writes z
        *self.xs, self.y = pr.full_layout.split(z)
        self.grads = pr.grad_f(self.xs)
        self.Ay = [a.apply(self.y) for a in pr.A]
        self.feas, self.pnorm = pkkt_residual(self.xs, self.y, pr,
                                              grads=self.grads,
                                              tol=self.stop_tol, Ay=self.Ay)
        return "pkkt" if self.pnorm <= self.cfg.tol_residual else None

    def oracle(self, z: np.ndarray, M: BlockDiagonalMetric,
               cfg: HpeConfig) -> Optional[HpeCertificate]:
        pr = self.problem
        x_tilde, y_tilde, images = block_sweep(self.xs, self.y, pr, self.beta,
                                               self.etas, grads=self.grads,
                                               feas=self.feas, Ay=self.Ay)
        self.Ay = None
        w = pr.join(x_tilde, y_tilde)
        d = z - w
        d_norm = norm(d)
        if d_norm == 0.0:
            return None  # sweep fixed point: v = 0, a KKT point
        if not math.isfinite(d_norm):
            raise NonFiniteValue("non-finite sweep point")
        eps = 0.25 * float(np.dot(d * pr.d_weights, d))
        Ud, step = theta_range(d, self.U, M, images)
        self.points = x_tilde + [y_tilde]
        return HpeCertificate(y=w, v=Ud, eps=eps, c=1.0, theta=None,
                              step=step)

    def metric_update(self, k: int, z: np.ndarray, cert: HpeCertificate,
                      M: BlockDiagonalMetric) -> BlockDiagonalMetric:
        # per block, the change of the sweep point against the change of its
        # gradient-corrected certificate block; the multiplier is block p
        pr = self.problem
        *vxs, vy = pr.full_layout.split(cert.v)
        grads_t = pr.grad_f(self.points[:pr.p])
        slopes = [vx + gt - g for vx, gt, g in zip(vxs, grads_t, self.grads)]
        slopes.append(vy.copy())
        if self.prev is not None:
            nums = [norm(a - b) for a, b in zip(self.points, self.prev[0])]
            dens = [norm(a - b) for a, b in zip(slopes, self.prev[1])]
            self.inv_scalars = bb_metric_update(self.inv_scalars, nums, dens,
                                                self.cfg.xi(k))
        self.prev = (self.points, slopes)
        return self.metric()


def run_padmm(problem: MultiBlockProblem, cfg: HpeConfig,
              beta: Optional[float] = None,
              theta_fixed: Optional[float] = None,
              ref_solution: Optional[np.ndarray] = None,
              accumulators: Sequence[ErgodicAccumulator] = (),
              columns: Sequence[str] = DEFAULT_COLUMNS) -> RunResult:
    """Run the solver from z = 0 until the proximal KKT residual meets the
    tolerance.

    The iterations run in :func:`opsplit.hpe_core.run` under ``cfg``: its
    sigma, xi0 and ``max_iters``, with ``cfg.tol_residual`` the pKKT
    tolerance of the stop hook, which replaces the kernel's residual test.
    They are certified, accumulated and aborted as there; the metric
    schedule's floor is the one the BB clamp keeps, min(M_0 scalars) /
    prod_{j<=k} (1 + xi_j), and the kernel records that product as
    ``final["Xi"]``, also on an aborted run's result.  ``beta`` is the
    penalty (:func:`rule_beta` when omitted) and ``theta_fixed`` the
    kernel's cap on the over-relaxation (None: ``hpe_core.THETA_CAP``; 0.0
    disables it).  A run that reaches
    ``max_iters`` still ends converged if its final iterate meets the
    tolerance.  The trace records the ``columns`` named, of
    :data:`hpe_core.TRACE_COLUMNS` and :data:`PADMM_COLUMNS`.  The result's
    ``solution`` is z and ``final["pkkt"]`` its full residual norm.  What
    the set-up raises, the first metric included, carries no ``result``;
    what that final residual raises carries the finished run as its
    ``result``, without an abort record.
    """
    if beta is not None and not (math.isfinite(beta) and beta > 0):
        raise ValueError("beta must be finite and positive, got %r" % beta)
    if theta_fixed is not None and not (math.isfinite(theta_fixed)
                                        and theta_fixed > -1.0):
        raise ValueError("theta_fixed must be finite and exceed -1, got %r"
                         % theta_fixed)
    it = _Iteration(problem, cfg, rule_beta(problem) if beta is None else beta,
                    columns)
    bound = tuple((name, lambda step, produce=produce: produce(it, step))
                  for name, produce in PADMM_COLUMNS)
    res = hpe_core.run(
        it.oracle, np.zeros(problem.full_layout.dim), it.metric(), cfg,
        metric_update=it.metric_update, ref_solution=ref_solution,
        accumulators=accumulators, stop=it.stop,
        columns=hpe_core.select(columns, hpe_core.TRACE_COLUMNS + bound),
        theta_cap=theta_fixed)
    pnorm = it.pnorm
    if res.reason != "pkkt":
        # only a met stop test leaves a complete residual of the final iterate
        try:
            _, pnorm = pkkt_residual(*problem.split(res.solution), problem)
        except Exception as exc:  # the solve has run: a solver abort
            exc.result = res
            raise
        if not res.converged and pnorm <= cfg.tol_residual:
            res.converged, res.reason = True, "pkkt"
    res.final["pkkt"] = pnorm
    return res
