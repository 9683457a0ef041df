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
``omega_lower * I <= M_next <= (1 + xi_k) M_k`` with summable xi.

Also in this module: the complexity-bound calculators (pointwise and ergodic
aggregates, local linear-rate factor) used by the instrumentation and tests.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .linops import (BlockDiagonalMetric, BlockPoint, Metric, weighted_norm_sq)


class CriterionViolation(RuntimeError):
    """An oracle certificate failed the relative-error inequality, carried a
    step inconsistent with its v, or held non-finite values."""


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
    a finite sum; the default xi0/(k+1)^2 does.
    """

    sigma: float = 0.5
    theta_min: float = -0.5
    c_min: float = 1.0
    xi0: float = 0.01
    xi_schedule: Optional[Callable[[int], float]] = None
    omega_lower: float = 1.0
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
        if self.omega_lower <= 0.0 or self.omega_upper < self.omega_lower:
            raise ValueError("need 0 < omega_lower <= omega_upper")
        if self.xi_schedule is None:
            self.xi_schedule = default_xi_schedule(self.xi0)

    def xi(self, k: int) -> float:
        val = float(self.xi_schedule(k))
        if val < 0:
            raise ValueError("xi_k must be nonnegative")
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
    against ``v`` and never solves for it; certificates kept after their
    iteration drop it (:meth:`without_step`).
    """

    y: BlockPoint
    v: BlockPoint
    eps: float
    c: float = 1.0
    theta: float = 0.0
    step: Optional[BlockPoint] = None

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.c <= 0:
            raise ValueError("c must be positive")

    def without_step(self) -> "HpeCertificate":
        return replace(self, step=None)


@dataclass
class CriterionReport:
    lhs: float
    rhs: float
    slack: float
    rel_slack: float
    ok: bool
    diff_M_sq: float  # ||y - x||_M^2


STEP_TOL = 1e-12


def _step_of(cert: HpeCertificate) -> np.ndarray:
    if cert.step is None:
        raise CriterionViolation("certificate carries no step c M^-1 v")
    return cert.step.data


def _raise_if_non_finite(x: BlockPoint, cert: HpeCertificate) -> None:
    for name, val in (("iterate x", x.data), ("y", cert.y.data),
                      ("v", cert.v.data), ("step", cert.step.data),
                      ("eps", cert.eps)):
        if not np.all(np.isfinite(val)):
            raise CriterionViolation("non-finite %s" % name)


def check_criterion(x: BlockPoint, cert: HpeCertificate, M: Metric,
                    sigma: float, tol: float = 1e-10) -> CriterionReport:
    """Evaluate the relative-error inequality for one certificate.

    The certificate's step is verified first, with one metric apply:
    ||M step - c v||_inf <= 1e-12 (1 + ||c v||_inf).  A missing or deviating
    step, or a non-finite entry, raises :class:`CriterionViolation`.  With
    diff = y - x the inequality then follows by linearity from
    M (step + diff) = c v + M diff, with one more apply:

        lhs = theta <step, c v> + <step + diff, c v + M diff> + 2 c eps
        rhs = sigma <diff, M diff>

    Returns lhs, rhs, slack = rhs - lhs, ok iff lhs <= rhs + tol*(1 + rhs),
    and ||diff||_M^2.
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
                           ok=lhs <= rhs + tol * (1.0 + rhs),
                           diff_M_sq=diff_M_sq)


def certify(k: int, x: BlockPoint, cert: HpeCertificate, M: Metric,
            sigma: float) -> CriterionReport:
    """:func:`check_criterion` for iteration k of a solver loop; any failure
    raises :class:`CriterionViolation` naming the iteration."""
    try:
        rep = check_criterion(x, cert, M, sigma)
    except CriterionViolation as exc:
        raise CriterionViolation("iteration %d: %s" % (k, exc)) from None
    if not rep.ok:
        raise CriterionViolation(
            "iteration %d: criterion failed (lhs=%.6e > rhs=%.6e, "
            "rel slack %.3e)" % (k, rep.lhs, rep.rhs, rep.rel_slack))
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


def validate_metric_update(M_k: Metric, M_next: Metric, xi_k: float,
                           omega_lower: float, probes: int = 20,
                           seed: int = 0) -> MetricUpdateReport:
    """Check omega_lower*I <= M_next <= (1 + xi_k) M_k.

    Exact blockwise scalar comparison when both metrics are block diagonal,
    randomized Rayleigh quotients otherwise.
    """
    tol = 1e-12
    if isinstance(M_k, BlockDiagonalMetric) and isinstance(M_next, BlockDiagonalMetric):
        for i, (d_old, d_new) in enumerate(zip(M_k.scalars, M_next.scalars)):
            if d_new < omega_lower * (1.0 - tol):
                return MetricUpdateReport(
                    False, "block %d scalar %.3e below omega_lower %.3e"
                    % (i, d_new, omega_lower))
            if d_new > (1.0 + xi_k) * d_old * (1.0 + tol):
                return MetricUpdateReport(
                    False, "block %d scalar grew %.3e -> %.3e past factor 1+xi=%.3e"
                    % (i, d_old, d_new, 1.0 + xi_k))
        return MetricUpdateReport(True)
    rng = np.random.default_rng(seed)
    dim = M_k.dim if M_k.dim is not None else M_next.dim
    if dim is None:
        dim = 1  # both are scalar multiples of the identity
    for _ in range(probes):
        u = rng.standard_normal(dim)
        q_next = float(np.dot(u, M_next.apply(u)))
        q_old = float(np.dot(u, M_k.apply(u)))
        uu = float(np.dot(u, u))
        if q_next < omega_lower * uu * (1.0 - 1e-9):
            return MetricUpdateReport(False, "Rayleigh quotient below omega_lower")
        if q_next > (1.0 + xi_k) * q_old * (1.0 + 1e-9):
            return MetricUpdateReport(False, "Rayleigh quotient grew past 1+xi")
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
    c: float = 1.0
    xi: float = 0.0
    dist_M_sq: float = float("nan")
    step_M_sq: float = float("nan")
    cert: Optional[HpeCertificate] = None
    extras: dict = field(default_factory=dict)

    def row(self, extra_columns: Sequence[str] = ()) -> list:
        base = [self.k, self.time_s, self.v_norm, self.eps, self.theta,
                self.criterion_slack, self.step_norm, self.metric_min,
                self.metric_max, self.dist_to_ref]
        return base + [self.extras.get(name, float("nan")) for name in extra_columns]


class IterTrace:
    """Append-only per-iteration record list with CSV export."""

    def __init__(self, extra_columns: Sequence[str] = ()):
        self.records: List[IterRecord] = []
        self.extra_columns = tuple(extra_columns)

    def append(self, rec: IterRecord) -> None:
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(TRACE_COLUMNS) + list(self.extra_columns))
            for rec in self.records:
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
        record_certificates: bool = True) -> RunResult:
    """Drive the extra-gradient loop with a step oracle.

    ``oracle(x, M, cfg) -> HpeCertificate``, with ``step`` set;
    ``metric_update(k, x, cert, M)`` optionally returns the next metric
    (constant metric when omitted).  Every certificate must pass the
    criterion and every metric change the schedule; violations abort with a
    diagnostic exception.  Recorded certificates do not keep their step.
    """
    x = x0.copy()
    M = M0
    trace = IterTrace()
    t0 = time.perf_counter()
    for k in range(1, cfg.max_iters + 1):
        cert = oracle(x, M, cfg)
        rep = certify(k, x, cert, M, cfg.sigma)
        xi_k = cfg.xi(k)
        v_norm = cert.v.norm()
        rec = IterRecord(
            k=k, time_s=time.perf_counter() - t0, v_norm=v_norm,
            eps=cert.eps, theta=cert.theta, criterion_slack=rep.rel_slack,
            step_norm=math.sqrt(max(rep.diff_M_sq, 0.0)),
            metric_min=M.omega_lower, metric_max=M.omega_upper,
            c=cert.c, xi=xi_k, step_M_sq=rep.diff_M_sq,
            cert=cert.without_step() if record_certificates else None)
        if ref_solution is not None:
            rec.dist_to_ref = (x - ref_solution).norm()
            rec.dist_M_sq = weighted_norm_sq(M, x - ref_solution)
        trace.append(rec)
        if max(v_norm, cert.eps) <= cfg.tol_residual:
            return RunResult(solution=cert.y.copy(), trace=trace, converged=True,
                             reason="residual", iterations=k)
        x = extragradient_step(x, cert)
        if metric_update is not None:
            M_next = metric_update(k, x, cert, M)
            upd = validate_metric_update(M, M_next, xi_k, cfg.omega_lower)
            if not upd:
                raise MetricScheduleViolation(
                    "iteration %d: %s" % (k, upd.message))
            M = M_next
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


def ergodic_aggregate(certs: Sequence[HpeCertificate], alpha: Sequence[float]):
    """Weighted aggregates (y_bar, v_bar, eps_bar) with weights (1+theta_i) c_i alpha_i.

    eps_bar adds the inner-product correction sum_i w_i <y_i - y_bar, v_i - v_bar>
    and is nonnegative in exact arithmetic.
    """
    if len(certs) == 0:
        raise ValueError("empty trace")
    weights = [(1.0 + c.theta) * c.c * float(a) for c, a in zip(certs, alpha)]
    total = sum(weights)
    if total <= 0:
        raise ValueError("total weight must be positive")
    layout = certs[0].y.layout
    y_bar = np.zeros(layout.dim)
    v_bar = np.zeros(layout.dim)
    for w, cert in zip(weights, certs):
        y_bar += w * cert.y.data
        v_bar += w * cert.v.data
    y_bar /= total
    v_bar /= total
    eps_bar = 0.0
    for w, cert in zip(weights, certs):
        eps_bar += w * (cert.eps + float(np.dot(cert.y.data - y_bar,
                                                cert.v.data - v_bar)))
    eps_bar /= total
    return (BlockPoint(y_bar, layout), BlockPoint(v_bar, layout), eps_bar)


def ergodic_series(certs: Sequence[HpeCertificate], alpha: Sequence[float]):
    """||v_bar^k|| and eps_bar_k for every prefix k, via running sums.

    Uses the identity sum_i w_i <y_i - y_bar, v_i - v_bar> =
    sum_i w_i <y_i, v_i> - W <y_bar, v_bar>.
    """
    n = len(certs)
    if n == 0:
        return np.zeros(0), np.zeros(0)
    layout = certs[0].y.layout
    sum_wy = np.zeros(layout.dim)
    sum_wv = np.zeros(layout.dim)
    sum_w = 0.0
    sum_weps = 0.0
    sum_wyv = 0.0
    v_norms = np.empty(n)
    eps_bars = np.empty(n)
    for i, (cert, a) in enumerate(zip(certs, alpha)):
        w = (1.0 + cert.theta) * cert.c * float(a)
        sum_w += w
        sum_wy += w * cert.y.data
        sum_wv += w * cert.v.data
        sum_weps += w * cert.eps
        sum_wyv += w * float(np.dot(cert.y.data, cert.v.data))
        y_bar = sum_wy / sum_w
        v_bar = sum_wv / sum_w
        v_norms[i] = np.linalg.norm(v_bar)
        eps_bars[i] = (sum_weps + sum_wyv - sum_w * float(np.dot(y_bar, v_bar))) / sum_w
    return v_norms, eps_bars


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
        M_dense = np.column_stack([M.apply(e) for e in np.eye(n)])
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
                  slopes: Optional[dict] = None, final_extra: Optional[dict] = None):
    """JSON run summary: config echo, termination, final residuals, slopes."""
    recs = result.trace.records
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
