"""Inexact proximal extra-gradient kernel with a relative-error criterion.

The kernel iterates: an oracle returns an inexact proximal triple
``(y, v, eps)`` certifying ``v`` as an eps-enlargement element at ``y``,
together with the step ``c M^-1 v`` it computed on the way.  The kernel
verifies that step with one metric apply, ``M step = c v`` to 1e-12 on every
call and for every scheme, then checks the relative-error inequality

    theta * ||c M^-1 v||_M^2 + ||c M^-1 v + (y - x)||_M^2 + 2 c eps
        <= sigma * ||y - x||_M^2

and takes the over-relaxed correction ``x+ = x - (1 + theta) c M^-1 v``.  No
metric solve happens in the kernel.
The metric M may change between iterations inside the schedule
``omega_k * I <= M_next <= (1 + xi_k) M_k`` with summable xi, where the
floor omega_k = min(M_0) / prod_{j<=k} (1 + xi_j) stays above
min(M_0) exp(-sum xi) > 0.
:func:`run` is the one solver loop: the splitters enter it as oracles, the
multi-block solver as an oracle plus ``stop``, ``extras`` and
``metric_update`` hooks.

Also in this module: the complexity-bound calculators (pointwise bounds, the
online ergodic accumulator, local linear-rate factor) used by the
instrumentation and tests.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .linops import (BlockDiagonalMetric, BlockLayout, BlockPoint, Metric,
                     weighted_norm_sq)


class CriterionViolation(RuntimeError):
    """An oracle certificate failed the relative-error inequality, carried a
    step inconsistent with its v, or held non-finite values.

    ``report`` is the failing :class:`CriterionReport` when the inequality
    itself failed, None otherwise.
    """

    def __init__(self, message: str, report: "Optional[CriterionReport]" = None):
        super().__init__(message)
        self.report = report


class NonFiniteValue(CriterionViolation):
    """A certificate, iterate or sweep point held a NaN or an infinity."""


class MetricScheduleViolation(RuntimeError):
    """A metric update left the admissible schedule."""


# ---------------------------------------------------------------------------
# Configuration and certificates
# ---------------------------------------------------------------------------


def default_xi_schedule(xi0: float) -> Callable[[int], float]:
    """Summable schedule xi_k = xi0 / (k + 1)^2 for k >= 1."""

    def xi(k: int) -> float:
        return xi0 / float(k + 1) ** 2

    return xi


@dataclass
class HpeConfig:
    """Parameters of the extra-gradient kernel.

    ``xi_schedule`` maps the iteration index k >= 1 to xi_k >= 0 and must have
    a finite sum; the default xi0/(k+1)^2 does, for a finite xi0 >= 0.
    """

    sigma: float = 0.5
    theta_min: float = -0.5
    c_min: float = 1.0
    xi0: float = 0.01
    xi_schedule: Optional[Callable[[int], float]] = None
    omega_upper: float = 1.0
    max_iters: int = 1000
    tol_residual: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError("sigma must lie in [0, 1)")
        if self.theta_min <= -1.0:
            raise ValueError("theta_min must exceed -1")
        if self.c_min <= 0.0:
            raise ValueError("c_min must be positive")
        if not self.omega_upper > 0.0:
            raise ValueError("omega_upper must be positive")
        if not self.max_iters >= 0:
            raise ValueError("max_iters must be nonnegative, got %r"
                             % self.max_iters)
        if math.isnan(self.tol_residual):
            raise ValueError("tol_residual must not be NaN")
        if not (math.isfinite(self.xi0) and self.xi0 >= 0.0):
            raise ValueError("xi0 must be finite and nonnegative, got %r"
                             % self.xi0)
        if self.xi_schedule is None:
            self.xi_schedule = default_xi_schedule(self.xi0)

    def xi(self, k: int) -> float:
        val = float(self.xi_schedule(k))
        if not val >= 0:  # a NaN would disable the schedule check
            raise ValueError("xi_%d must be nonnegative, got %r" % (k, val))
        return val

    def xi_partial_sum(self, k: int) -> float:
        return float(sum(self.xi(i) for i in range(1, k + 1)))

    def xi_capital(self, k: int) -> float:
        """Xi = prod_{i<=k} (1 + xi_i); always <= exp(sum xi_i)."""
        out = 1.0
        for i in range(1, k + 1):
            out *= 1.0 + self.xi(i)
        return out


@dataclass
class HpeCertificate:
    """Inexact proximal triple plus the step parameters that produced it.

    ``step`` is c M^-1 v as the scheme computed it.  The kernel verifies it
    against ``v`` and never solves for it.  ``eps_blocks``, when the scheme
    splits eps by block, is read by the accumulators.
    No certificate outlives its iteration: ergodic aggregates are accumulated
    online (:class:`ErgodicAccumulator`).
    """

    y: BlockPoint
    v: BlockPoint
    eps: float
    c: float = 1.0
    theta: float = 0.0
    step: Optional[BlockPoint] = None
    eps_blocks: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.c <= 0:
            raise ValueError("c must be positive")


@dataclass
class CriterionReport:
    lhs: float
    rhs: float
    slack: float
    rel_slack: float
    ok: bool
    diff_M_sq: float  # ||y - x||_M^2


STEP_TOL = 1e-12       # relative deviation allowed in M step = c v
CRITERION_TOL = 1e-10  # relative tolerance of the criterion inequality


def _step_of(cert: HpeCertificate) -> np.ndarray:
    if cert.step is None:
        raise CriterionViolation("certificate carries no step c M^-1 v")
    return cert.step.data


def _raise_if_non_finite(x: BlockPoint, cert: HpeCertificate) -> None:
    for name, val in (("iterate x", x.data), ("y", cert.y.data),
                      ("v", cert.v.data), ("step", cert.step.data),
                      ("eps", cert.eps)):
        if not np.all(np.isfinite(val)):
            raise NonFiniteValue("non-finite %s" % name)


def check_criterion(x: BlockPoint, cert: HpeCertificate, M: Metric,
                    sigma: float) -> CriterionReport:
    """Evaluate the relative-error inequality for one certificate.

    The certificate's step is verified first, with one metric apply:
    ||M step - c v||_inf <= 1e-12 (1 + ||c v||_inf).  A missing or deviating
    step raises :class:`CriterionViolation`; a non-finite entry raises its
    subclass :class:`NonFiniteValue`, naming the entry.  With
    diff = y - x the inequality then follows by linearity from
    M (step + diff) = c v + M diff, with one more apply:

        lhs = theta <step, c v> + <step + diff, c v + M diff> + 2 c eps
        rhs = sigma <diff, M diff>

    Returns lhs, rhs, slack = rhs - lhs, ok iff lhs <= rhs + CRITERION_TOL
    (1 + rhs), and ||diff||_M^2.
    """
    if cert.eps < 0:
        raise ValueError("eps must be nonnegative")
    step = _step_of(cert)
    cv = cert.c * cert.v.data
    dev = float(abs(M.apply(step) - cv).max())
    if not dev <= STEP_TOL * (1.0 + float(abs(cv).max())):
        _raise_if_non_finite(x, cert)
        raise CriterionViolation("certificate step deviates from c M^-1 v "
                                 "(||M step - c v||_inf = %.3e)" % dev)
    diff = cert.y.data - x.data
    Mdiff = M.apply(diff)
    diff_M_sq = float(np.dot(diff, Mdiff))
    lhs = (cert.theta * float(np.dot(step, cv))
           + float(np.dot(step + diff, cv + Mdiff))
           + 2.0 * cert.c * cert.eps)
    rhs = sigma * diff_M_sq
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        _raise_if_non_finite(x, cert)
    slack = rhs - lhs
    rel_slack = slack / (1.0 + rhs)
    return CriterionReport(lhs=lhs, rhs=rhs, slack=slack,
                           rel_slack=rel_slack,
                           ok=lhs <= rhs + CRITERION_TOL * (1.0 + rhs),
                           diff_M_sq=diff_M_sq)


def certify(k: int, x: BlockPoint, cert: HpeCertificate, M: Metric,
            sigma: float) -> CriterionReport:
    """:func:`check_criterion` for iteration k of a solver loop; any failure
    raises :class:`CriterionViolation` naming the iteration."""
    try:
        rep = check_criterion(x, cert, M, sigma)
    except CriterionViolation as exc:
        raise type(exc)("iteration %d: %s" % (k, exc)) from None
    if not rep.ok:
        raise CriterionViolation(
            "iteration %d: criterion failed (lhs=%.6e > rhs=%.6e, "
            "rel slack %.3e)" % (k, rep.lhs, rep.rhs, rep.rel_slack),
            report=rep)
    return rep


def extragradient_step(x: BlockPoint, cert: HpeCertificate) -> BlockPoint:
    """Over-relaxed correction x - (1 + theta) c M^-1 v, along the
    certificate's step."""
    return BlockPoint(x.data - (1.0 + cert.theta) * _step_of(cert), x.layout)


@dataclass
class MetricUpdateReport:
    ok: bool
    message: str = ""

    def __bool__(self):
        return self.ok


SCHEDULE_TOL = 1e-12


def _dense_form(M: Metric, dim: int) -> np.ndarray:
    """The matrix of M, assembled column by column from ``dim`` applies."""
    A = np.column_stack([M.apply(e) for e in np.eye(dim)])
    return 0.5 * (A + A.T)


def validate_metric_update(M_k: Metric, M_next: Metric, xi_k: float,
                           omega_lower: float) -> MetricUpdateReport:
    """Check omega_lower*I <= M_next <= (1 + xi_k) M_k, exactly.

    Blockwise scalar comparison when both metrics are block diagonal;
    otherwise the smallest eigenvalue of M_next and the largest generalized
    eigenvalue of (M_next, M_k), from their dense forms.
    """
    if isinstance(M_k, BlockDiagonalMetric) and isinstance(M_next, BlockDiagonalMetric):
        for i, (d_old, d_new) in enumerate(zip(M_k.scalars, M_next.scalars)):
            if d_new < omega_lower * (1.0 - SCHEDULE_TOL):
                return MetricUpdateReport(
                    False, "block %d scalar %.3e below omega_lower %.3e"
                    % (i, d_new, omega_lower))
            if d_new > (1.0 + xi_k) * d_old * (1.0 + SCHEDULE_TOL):
                return MetricUpdateReport(
                    False, "block %d scalar grew %.3e -> %.3e past factor 1+xi=%.3e"
                    % (i, d_old, d_new, 1.0 + xi_k))
        return MetricUpdateReport(True)
    dim = M_k.dim if M_k.dim is not None else M_next.dim
    if dim is None:
        dim = 1  # both are scalar multiples of the identity
    # imported on use, as in make_affine_resolvent_oracle: at module level
    # it made ``import opsplit.cli`` ~30 ms slower (2-core Xeon, scipy 1.17)
    import scipy.linalg

    A_next = _dense_form(M_next, dim)
    low = float(scipy.linalg.eigvalsh(A_next)[0])
    if low < omega_lower * (1.0 - SCHEDULE_TOL):
        return MetricUpdateReport(False, "smallest eigenvalue %.3e below "
                                  "omega_lower %.3e" % (low, omega_lower))
    growth = float(scipy.linalg.eigvalsh(A_next, _dense_form(M_k, dim))[-1])
    if growth > (1.0 + xi_k) * (1.0 + SCHEDULE_TOL):
        return MetricUpdateReport(False, "largest generalized eigenvalue "
                                  "%.3e past factor 1+xi=%.3e"
                                  % (growth, 1.0 + xi_k))
    return MetricUpdateReport(True)


# ---------------------------------------------------------------------------
# Iteration trace
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("iter", "time_s", "v_norm", "eps", "theta", "criterion_slack",
                 "step_norm", "metric_min", "metric_max", "dist_to_ref")


@dataclass
class IterRecord:
    k: int
    time_s: float
    v_norm: float
    eps: float
    theta: float
    criterion_slack: float
    step_norm: float
    metric_min: float
    metric_max: float
    dist_to_ref: float = float("nan")
    # instrumentation beyond the CSV schema
    xi: float = 0.0
    dist_M_sq: float = float("nan")
    step_M_sq: float = float("nan")
    extras: dict = field(default_factory=dict)

    def row(self, extra_columns: Sequence[str] = ()) -> list:
        base = [self.k, self.time_s, self.v_norm, self.eps, self.theta,
                self.criterion_slack, self.step_norm, self.metric_min,
                self.metric_max, self.dist_to_ref]
        return base + [self.extras.get(name, float("nan")) for name in extra_columns]


class IterTrace(list):
    """The :class:`IterRecord` of each iteration, in order, with CSV export
    of the base columns and ``extra_columns``."""

    def __init__(self, extra_columns: Sequence[str] = ()):
        super().__init__()
        self.extra_columns = tuple(extra_columns)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(TRACE_COLUMNS) + list(self.extra_columns))
            for rec in self:
                writer.writerow(rec.row(self.extra_columns))


@dataclass
class RunResult:
    solution: BlockPoint
    trace: IterTrace
    converged: bool
    reason: str
    iterations: int


# ---------------------------------------------------------------------------
# The kernel loop
# ---------------------------------------------------------------------------


def run(oracle, x0: BlockPoint, M0: Metric, cfg: HpeConfig,
        metric_update=None, ref_solution: Optional[BlockPoint] = None,
        accumulators: Sequence["ErgodicAccumulator"] = (), stop=None,
        extras=None, extra_columns: Sequence[str] = ()) -> RunResult:
    """Drive the extra-gradient loop with a step oracle.

    ``oracle(x, M, cfg) -> HpeCertificate``, with ``step`` set, or None when
    x is a fixed point of the scheme (the run ends converged, reason
    ``"fixed_point"``); ``metric_update(k, x, cert, M)`` optionally returns
    the next metric (constant metric when omitted).  ``stop(k, x)``, called
    before the oracle, may end the run converged with the reason it returns;
    ``extras(k, x, cert)`` fills the trace row's ``extra_columns``.

    Every certificate must pass the criterion and every metric change the
    schedule omega_k I <= M_next <= (1 + xi_k) M_k, with the floor omega_k =
    min(M_0) / prod_{j<=k} (1 + xi_j) that an update clamped below by
    M_k / (1 + xi_k) keeps; violations abort with a diagnostic exception.
    Each certified step is handed to every :class:`ErgodicAccumulator` in
    ``accumulators``; no certificate is kept.
    An exception raised in the loop carries the partial ``trace`` and the
    failing ``iteration``.
    """
    x = x0.copy()
    M = M0
    floor = M0.omega_lower
    trace = IterTrace(extra_columns)
    t0 = time.perf_counter()
    k = 0
    try:
        for k in range(1, cfg.max_iters + 1):
            reason = stop(k, x) if stop is not None else None
            if reason:
                return RunResult(solution=x, trace=trace, converged=True,
                                 reason=reason, iterations=k - 1)
            cert = oracle(x, M, cfg)
            if cert is None:
                return RunResult(solution=x, trace=trace, converged=True,
                                 reason="fixed_point", iterations=k)
            rep = certify(k, x, cert, M, cfg.sigma)
            xi_k = cfg.xi(k)
            v_norm = cert.v.norm()
            rec = IterRecord(
                k=k, time_s=time.perf_counter() - t0, v_norm=v_norm,
                eps=cert.eps, theta=cert.theta, criterion_slack=rep.rel_slack,
                step_norm=math.sqrt(max(rep.diff_M_sq, 0.0)),
                metric_min=M.omega_lower, metric_max=M.omega_upper,
                xi=xi_k, step_M_sq=rep.diff_M_sq,
                extras=extras(k, x, cert) if extras is not None else {})
            if ref_solution is not None:
                err = x - ref_solution
                rec.dist_to_ref = err.norm()
                rec.dist_M_sq = weighted_norm_sq(M, err)
            trace.append(rec)
            for acc in accumulators:
                acc.add(cert)
            if max(v_norm, cert.eps) <= cfg.tol_residual:
                return RunResult(solution=cert.y.copy(), trace=trace,
                                 converged=True, reason="residual",
                                 iterations=k)
            x = extragradient_step(x, cert)
            if metric_update is not None:
                M_next = metric_update(k, x, cert, M)
                floor /= 1.0 + xi_k
                upd = validate_metric_update(M, M_next, xi_k, floor)
                if not upd:
                    raise MetricScheduleViolation(
                        "iteration %d: %s" % (k, upd.message))
                M = M_next
    except Exception as exc:
        exc.trace, exc.iteration = trace, k  # callers still report the run
        raise
    return RunResult(solution=x, trace=trace, converged=False,
                     reason="max_iters", iterations=cfg.max_iters)


# ---------------------------------------------------------------------------
# Complexity instrumentation
# ---------------------------------------------------------------------------


@dataclass
class PointwiseBound:
    bound_v: float
    bound_eps: float


def pointwise_bound(k: int, cfg: HpeConfig, d0: float) -> PointwiseBound:
    """Best-iterate bounds on ||v|| and eps after k iterations.

    d0 is the M_0-distance from the start point to a solution.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s = cfg.xi_partial_sum(k)
    cap = cfg.xi_capital(k)
    denom_v = k * (1.0 - cfg.sigma) * (1.0 + cfg.theta_min) ** 3 * cfg.c_min ** 2
    bound_v = math.sqrt(4.0 * (1.0 + s) * cap ** 2 * cfg.omega_upper / denom_v) * d0
    denom_e = k * (1.0 - cfg.sigma) * (1.0 + cfg.theta_min) ** 2 * cfg.c_min
    bound_eps = (1.0 + s) * cap / denom_e * d0 ** 2
    return PointwiseBound(bound_v=bound_v, bound_eps=bound_eps)


class ErgodicAccumulator:
    """Online ergodic aggregates of the certified steps of one run.

    The n-th certificate (y, v, eps) added gets the weight
    w = (1 + theta) c alpha(n), with alpha = 1 when omitted.  Running sums of
    w, w y, w v, w eps and w <y, v> give y_bar, v_bar and eps_bar =
    sum w (eps + <y - y_bar, v - v_bar>) / W, by the identity
    sum w <y - y_bar, v - v_bar> = sum w <y, v> - W <y_bar, v_bar>.  Each
    certificate appends ||v_bar|| and eps_bar to ``v_norms`` and ``eps_bars``;
    nothing else grows with the iteration count.  When a certificate carries
    a per-block eps, the accumulator also sums w eps_j and the entrywise
    products w y * v, from which :meth:`block_eps_bars` forms w <y_j, v_j>
    over the leading blocks the per-block eps covers.
    """

    def __init__(self, alpha: Optional[Callable[[int], float]] = None):
        self.alpha = alpha
        self.layout: Optional[BlockLayout] = None
        self.sum_w = self.sum_weps = self.sum_wyv = 0.0
        self.sum_wy = self.sum_wv = 0.0  # vectors from the first add on
        self.block_weps = self.sum_wyv_entries = 0.0
        self.v_norms: List[float] = []
        self.eps_bars: List[float] = []

    def __len__(self):
        return len(self.v_norms)

    def add(self, cert: HpeCertificate) -> None:
        a = 1.0 if self.alpha is None else float(self.alpha(len(self) + 1))
        w = (1.0 + cert.theta) * cert.c * a
        if not w > 0:
            raise ValueError("ergodic weight (1 + theta) c alpha must be "
                             "positive, got %r" % w)
        y, v = cert.y.data, cert.v.data
        self.layout = cert.y.layout
        self.sum_w += w
        self.sum_wy += w * y
        self.sum_wv += w * v
        self.sum_weps += w * cert.eps
        self.sum_wyv += w * float(np.dot(y, v))
        if cert.eps_blocks is not None:
            self.block_weps += w * np.asarray(cert.eps_blocks, dtype=float)
            self.sum_wyv_entries += w * (y * v)
        y_bar = self.sum_wy / self.sum_w
        v_bar = self.sum_wv / self.sum_w
        self.v_norms.append(float(np.linalg.norm(v_bar)))
        self.eps_bars.append((self.sum_weps + self.sum_wyv
                              - self.sum_w * float(np.dot(y_bar, v_bar)))
                             / self.sum_w)

    def aggregate(self):
        """(y_bar, v_bar, eps_bar) over every certificate added so far."""
        if not self.v_norms:
            raise ValueError("no certificates accumulated")
        return (BlockPoint(self.sum_wy / self.sum_w, self.layout),
                BlockPoint(self.sum_wv / self.sum_w, self.layout),
                self.eps_bars[-1])

    def block_eps_bars(self) -> np.ndarray:
        """eps_bar_j of each block j that received a per-block eps; they sum
        to the ergodic eps of the certificates restricted to those blocks."""
        y_bar, v_bar, _ = self.aggregate()
        if np.ndim(self.block_weps) == 0:
            raise ValueError("no per-block eps accumulated")
        slices = [self.layout.block_slice(j)
                  for j in range(self.block_weps.size)]
        wyv = np.array([self.sum_wyv_entries[sl].sum() for sl in slices])
        cross = np.array([float(np.dot(y_bar.data[sl], v_bar.data[sl]))
                          for sl in slices])
        return (self.block_weps + wyv - self.sum_w * cross) / self.sum_w


def linear_rate_factor(kappa: float, sigma: float, theta_k: float, c_min: float,
                       Xi: float, omega_upper: float, omega_lower: float) -> float:
    """Per-iteration contraction factor rho under metric subregularity."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    if theta_k <= -1.0:
        raise ValueError("theta_k must exceed -1")
    if c_min <= 0 or Xi < 1.0 or omega_lower <= 0 or omega_upper < omega_lower:
        raise ValueError("invalid schedule constants")
    a = 1.0 + (kappa / c_min) * math.sqrt(Xi * omega_upper / omega_lower)
    b = 1.0 + math.sqrt(sigma + 4.0 * max(-theta_k, 0.0) / (1.0 + theta_k) ** 2)
    rho = (1.0 - sigma) * (1.0 + theta_k) / (a ** 2 * b ** 2)
    if not 0.0 < rho < 1.0:
        raise ValueError("rho outside (0, 1): %r" % rho)
    return rho


# ---------------------------------------------------------------------------
# Exact-resolvent oracle for affine operators (testing/diagnostics)
# ---------------------------------------------------------------------------


def make_affine_resolvent_oracle(Q: np.ndarray, q: Optional[np.ndarray] = None,
                                 M: Optional[Metric] = None, c: float = 1.0,
                                 theta: float = 0.0):
    """Exact proximal-point oracle for the affine operator T(x) = Qx + q.

    Solves (c Q + M) y = M x - c q each step, so eps = 0, the step
    c M^-1 v is exactly x - y, and the criterion holds with
    lhs = theta ||c M^-1 v||_M^2 (zero when theta = 0).  The metric is treated
    as fixed; pass the same M to the kernel.
    """
    import scipy.linalg

    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    q = np.zeros(n) if q is None else np.asarray(q, dtype=float)
    if M is None:
        M_dense = np.eye(n)
        M_apply = lambda u: u
    else:
        M_dense = _dense_form(M, n)
        M_apply = M.apply
    lu = scipy.linalg.lu_factor(c * Q + M_dense)

    def oracle(x: BlockPoint, metric, cfg) -> HpeCertificate:
        y = scipy.linalg.lu_solve(lu, M_apply(x.data) - c * q)
        v = Q @ y + q
        return HpeCertificate(y=BlockPoint(y, x.layout),
                              v=BlockPoint(v, x.layout),
                              eps=0.0, c=c, theta=theta,
                              step=BlockPoint(x.data - y, x.layout))

    return oracle


def write_summary(path, result: RunResult, config_echo: dict,
                  slopes: Optional[dict] = None, final_extra: Optional[dict] = None,
                  abort: Optional[dict] = None):
    """JSON run summary: config echo, termination, final residuals, slopes,
    and for an aborted run the ``abort`` record (failing iteration,
    exception, criterion terms)."""
    recs = result.trace
    final = recs[-1] if recs else None
    summary = {
        "schema": 1,
        "config": config_echo,
        "iterations": result.iterations,
        "converged": result.converged,
        "termination": result.reason,
        "wall_time_s": final.time_s if final else 0.0,
        "final": {
            "v_norm": final.v_norm if final else None,
            "eps": final.eps if final else None,
        },
        "min_over_k": {
            "v_norm": min((r.v_norm for r in recs), default=None),
            "eps": min((r.eps for r in recs), default=None),
        },
        "slopes": slopes if slopes else {"pointwise": None, "ergodic": None},
    }
    if final_extra:
        summary["final"].update(final_extra)
    if abort is not None:
        summary["abort"] = abort
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def loglog_slope(ks: np.ndarray, values: np.ndarray) -> Optional[float]:
    """Least-squares slope of log(values) against log(ks); None if degenerate."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (ks > 0) & (values > 0) & np.isfinite(values)
    if mask.sum() < 2:
        return None
    lx = np.log(ks[mask])
    ly = np.log(values[mask])
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)
