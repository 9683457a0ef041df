"""Inexact proximal extra-gradient kernel with a relative-error criterion.

The kernel iterates: an oracle returns an inexact proximal triple
``(y, v, eps)`` certifying ``v`` as an eps-enlargement element at ``y``,
together with the step ``c M^-1 v`` it computed on the way.  The kernel
verifies that step with one metric apply, ``M step = c v`` to 1e-12 on every
call and for every scheme, then checks the relative-error inequality

    theta * ||c M^-1 v||_M^2 + ||c M^-1 v + (y - x)||_M^2 + 2 c eps
        <= sigma * ||y - x||_M^2

and takes the over-relaxed correction ``x+ = x - (1 + theta) c M^-1 v``.  No
metric solve happens in the kernel, which takes theta from the certificate
or, left unset, from the inequality's root (:func:`criterion_root`).
The metric M may change between iterations inside the schedule
``omega_k * I <= M_next <= (1 + xi_k) M_k`` with summable xi, where the
floor omega_k = min(M_0) / prod_{j<=k} (1 + xi_j) stays above
min(M_0) exp(-sum xi) > 0.
:func:`run` is the one solver loop: the splitters enter it as oracles, the
multi-block solver as an oracle plus ``stop`` and ``metric_update`` hooks.
Each trace column is one (name, producer) pair of a table
(:data:`TRACE_COLUMNS` here); a run records the columns its caller selects.

Also in this module: the complexity-bound calculators (pointwise bounds, the
online accumulator of the ergodic pair ||v_bar|| and eps_bar and its two-pass
reference, local linear-rate factor) used by the instrumentation and tests,
and the exact affine resolvent oracle of the theorem gates.  The bound
calculators take the constants of a run as arguments; the pointwise one takes
its whole xi series and returns the bounds at every k.
"""

from __future__ import annotations

import json
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .linops import (BlockDiagonalMetric, IdentityMetric, Metric, norm,
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


@dataclass
class HpeConfig:
    """Parameters of the extra-gradient kernel loop, and the one owner of
    their defaults.

    ``sigma`` in [0, 1) is the relative-error parameter; every scheme takes
    its step or over-relaxation from it.  The default 0.9 keeps about nine
    tenths of the iterations that 0.99 saves against 0.5 on the QP
    batteries, while the bounds' factor 1/(1 - sigma) stays 10, and at the
    start metric and beta = 1 padmm-ebb's Gamma form is positive definite
    on the QP and single-column LRR instances where it is not at 0.5.  The metric schedule
    is the summable xi_k = xi0 / (k + 1)^2 for k >= 1, with ``xi0`` finite
    and nonnegative.  The default 1 lets padmm-ebb's Barzilai-Borwein
    metric drift by a factor of up to prod_k (1 + xi_k) ~ 1.84 over a run.
    ``tools/xi_sweep.py`` shows how other values of either fare on
    iterations, and of xi0 on the acceptance gates.  ``tol_residual`` is the
    run's nonnegative stop tolerance: on max(||v||, eps) in :func:`run`, on
    the proximal KKT residual in :func:`opsplit.padmm_ebb.run_padmm`.
    """

    sigma: float = 0.9
    xi0: float = 1.0
    max_iters: int = 1000
    tol_residual: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError("sigma must lie in [0, 1)")
        if not (isinstance(self.max_iters, (int, np.integer))
                and self.max_iters >= 0):
            raise ValueError("max_iters must be a nonnegative integer, got %r"
                             % self.max_iters)
        if not self.tol_residual >= 0.0:
            raise ValueError("tol_residual must be nonnegative, got %r"
                             % self.tol_residual)
        if not (math.isfinite(self.xi0) and self.xi0 >= 0.0):
            raise ValueError("xi0 must be finite and nonnegative, got %r"
                             % self.xi0)

    def xi(self, k: int) -> float:
        return self.xi0 / float(k + 1) ** 2


@dataclass
class HpeCertificate:
    """Inexact proximal triple plus the step parameters that produced it.

    ``step`` is c M^-1 v as the scheme computed it.  The kernel verifies it
    against ``v``, never solves for it, and writes theta_k over a None
    ``theta``.  :func:`check_criterion` is the one check of every field.
    """

    y: np.ndarray
    v: np.ndarray
    eps: float
    c: float = 1.0
    theta: Optional[float] = 0.0
    step: Optional[np.ndarray] = None


@dataclass
class CriterionReport:
    """The criterion's terms for one certificate: slack = rhs - lhs and
    rel_slack = slack / (1 + rhs)."""
    lhs: float
    rhs: float
    slack: float
    rel_slack: float
    diff_M_sq: float  # ||y - x||_M^2


STEP_TOL = 1e-12       # relative deviation allowed in M step = c v
CRITERION_TOL = 1e-10  # relative tolerance of the criterion inequality
THETA_CAP = 5.0        # largest over-relaxation the kernel takes from a root
ROOT_BACKOFF = 1e-9    # relative back-off of 1 + theta from the root


def _step_of(cert: HpeCertificate) -> np.ndarray:
    if cert.step is None:
        raise CriterionViolation("certificate carries no step c M^-1 v")
    return cert.step


def _raise_if_non_finite(x: np.ndarray, cert: HpeCertificate) -> None:
    for name, val in (("iterate x", x), ("y", cert.y), ("v", cert.v),
                      ("step", cert.step), ("eps", cert.eps),
                      ("c", cert.c), ("theta", cert.theta)):
        if not np.all(np.isfinite(val)):
            raise NonFiniteValue("non-finite %s" % name)


def check_criterion(x: np.ndarray, cert: HpeCertificate, M: Metric,
                    sigma: float) -> CriterionReport:
    """Check one certificate against the relative-error inequality, raising
    on every failure: this is the one check of a certificate.

    An eps < 0 or a c <= 0 raises ValueError.  The certificate's step is
    verified next, with one metric apply:
    ||M step - c v||_inf <= 1e-12 (1 + ||c v||_inf).  A missing or deviating
    step, a y, v or step whose shape is not the iterate's, or a theta <= -1
    raises :class:`CriterionViolation`; a non-finite entry raises its
    subclass :class:`NonFiniteValue`, naming the entry.
    With diff = y - x the inequality then follows by linearity from
    M (step + diff) = c v + M diff, with one more apply:

        lhs = theta <step, c v> + <step + diff, c v + M diff> + 2 c eps
        rhs = sigma <diff, M diff>

    It holds iff lhs <= rhs + CRITERION_TOL (1 + rhs).  Then the report, with
    lhs, rhs, slack = rhs - lhs and ||diff||_M^2, is returned; otherwise it
    is the ``report`` of the :class:`CriterionViolation` raised.
    """
    if cert.eps < 0:
        raise ValueError("eps must be nonnegative")
    if cert.c <= 0:
        raise ValueError("c must be positive")
    step = _step_of(cert)
    if not x.shape == cert.y.shape == cert.v.shape == step.shape:
        raise CriterionViolation(
            "certificate shapes y %s, v %s, step %s do not match the iterate's "
            "%s" % (cert.y.shape, cert.v.shape, step.shape, x.shape))
    if not cert.theta > -1.0:
        _raise_if_non_finite(x, cert)
        raise CriterionViolation("theta = %r is not above -1" % cert.theta)
    cv = cert.c * cert.v
    dev = float(abs(M.apply(step) - cv).max())
    if not dev <= STEP_TOL * (1.0 + float(abs(cv).max())):
        _raise_if_non_finite(x, cert)
        raise CriterionViolation("certificate step deviates from c M^-1 v "
                                 "(||M step - c v||_inf = %.3e)" % dev)
    diff = cert.y - x
    Mdiff = M.apply(diff)
    diff_M_sq = float(np.dot(diff, Mdiff))
    lhs = (cert.theta * float(np.dot(step, cv))
           + float(np.dot(step + diff, cv + Mdiff))
           + 2.0 * cert.c * cert.eps)
    rhs = sigma * diff_M_sq
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        _raise_if_non_finite(x, cert)
    slack = rhs - lhs
    rep = CriterionReport(lhs=lhs, rhs=rhs, slack=slack,
                          rel_slack=slack / (1.0 + rhs), diff_M_sq=diff_M_sq)
    if not lhs <= rhs + CRITERION_TOL * (1.0 + rhs):
        raise CriterionViolation(
            "criterion failed (lhs=%.6e > rhs=%.6e, rel slack %.3e)"
            % (lhs, rhs, rep.rel_slack), report=rep)
    return rep


def criterion_root(x: np.ndarray, cert: HpeCertificate, M: Metric,
                   sigma: float) -> float:
    """The largest theta at which ``cert`` meets the criterion at x, which
    is affine in theta: with diff = y - x, cv = c v and M step = c v, one
    apply and three dots give -1 + Gamma / <step, cv>, Gamma = (sigma - 1)
    ||diff||_M^2 - 2 <diff, cv> - 2 c eps.  A zero step meets a criterion
    free of theta at every theta (+inf) or at none.  A <step, cv> <= 0 (a
    "degenerate U*M^-1U form") or a Gamma not above 1e-10 <step, cv> raises
    :class:`CriterionViolation`; a NaN root is returned, for
    :func:`check_criterion` to name the non-finite entry behind it."""
    cv = cert.c * cert.v
    diff = cert.y - x
    gamma = ((sigma - 1.0) * float(np.dot(diff, M.apply(diff)))
             - 2.0 * float(np.dot(diff, cv)) - 2.0 * cert.c * cert.eps)
    den = float(np.dot(_step_of(cert), cv))
    if den == 0.0 and gamma >= 0.0:
        return math.inf
    if den <= 0 or gamma <= 1e-10 * den:
        raise CriterionViolation("%s (gamma_form=%.6e, denom_form=%.6e)" % (
            "degenerate U*M^-1U form" if den <= 0 else
            "directional Gamma form is not positive", gamma, den))
    return -1.0 + gamma / den


def admissible_theta(root: float, cap: float) -> float:
    """min(cap, -1 + (1 + root)(1 - ROOT_BACKOFF)), NaN if either is: the
    hair keeps rounding from flipping the root's equality."""
    theta = -1.0 + (1.0 + root) * (1.0 - ROOT_BACKOFF)
    return cap if theta > cap or math.isnan(cap) else theta


def extragradient_step(x: np.ndarray, cert: HpeCertificate) -> np.ndarray:
    """Over-relaxed correction x - (1 + theta) c M^-1 v, along the
    certificate's step."""
    return x - (1.0 + cert.theta) * _step_of(cert)


SCHEDULE_TOL = 1e-12


def _dense_form(M: Metric, dim: int) -> np.ndarray:
    """The matrix of M, assembled column by column from ``dim`` applies."""
    A = np.column_stack([M.apply(e) for e in np.eye(dim)])
    return 0.5 * (A + A.T)


def validate_metric_update(M_k: Metric, M_next: Metric, xi_k: float,
                           omega_lower: float) -> None:
    """Check omega_lower*I <= M_next <= (1 + xi_k) M_k, exactly, raising
    :class:`MetricScheduleViolation` when it fails.

    Blockwise scalar comparison when both metrics are block diagonal;
    otherwise the smallest eigenvalue of M_next and the largest generalized
    eigenvalue of (M_next, M_k), from their dense forms.
    """
    if isinstance(M_k, BlockDiagonalMetric) and isinstance(M_next, BlockDiagonalMetric):
        for i, (d_old, d_new) in enumerate(zip(M_k.scalars, M_next.scalars)):
            if d_new < omega_lower * (1.0 - SCHEDULE_TOL):
                raise MetricScheduleViolation(
                    "block %d scalar %.3e below omega_lower %.3e"
                    % (i, d_new, omega_lower))
            if d_new > (1.0 + xi_k) * d_old * (1.0 + SCHEDULE_TOL):
                raise MetricScheduleViolation(
                    "block %d scalar grew %.3e -> %.3e past factor 1+xi=%.3e"
                    % (i, d_old, d_new, 1.0 + xi_k))
        return
    dim = M_k.dim if M_k.dim is not None else M_next.dim
    if dim is None:
        dim = 1  # both are scalar multiples of the identity
    # every module imports scipy in the function that needs it: importing
    # opsplit loads none of it, and a solve only the parts it calls
    import scipy.linalg

    A_next = _dense_form(M_next, dim)
    low = float(scipy.linalg.eigvalsh(A_next)[0])
    if low < omega_lower * (1.0 - SCHEDULE_TOL):
        raise MetricScheduleViolation("smallest eigenvalue %.3e below "
                                      "omega_lower %.3e" % (low, omega_lower))
    growth = float(scipy.linalg.eigvalsh(A_next, _dense_form(M_k, dim))[-1])
    if growth > (1.0 + xi_k) * (1.0 + SCHEDULE_TOL):
        raise MetricScheduleViolation("largest generalized eigenvalue "
                                      "%.3e past factor 1+xi=%.3e"
                                      % (growth, 1.0 + xi_k))


# ---------------------------------------------------------------------------
# Iteration trace
# ---------------------------------------------------------------------------


# Iteration k as the trace producers see it once its certificate passed: x is
# the iterate before the correction, M its metric, ref the reference solution,
# root the criterion root the kernel took theta from (NaN if it took none).
_Step = namedtuple("_Step", "k t0 x cert rep M xi v_norm ref root")

# The kernel's trace columns, in CSV order: (name, producer of a _Step).  The
# last three are the Fejer gate's; no CSV carries them, and dist_M_sq costs a
# metric apply.
TRACE_COLUMNS = (
    ("iter", lambda s: s.k),
    ("time_s", lambda s: time.perf_counter() - s.t0),
    ("v_norm", lambda s: s.v_norm),
    ("eps", lambda s: s.cert.eps),
    ("theta", lambda s: s.cert.theta),
    ("criterion_slack", lambda s: s.rep.rel_slack),
    ("step_norm", lambda s: math.sqrt(max(s.rep.diff_M_sq, 0.0))),
    ("metric_min", lambda s: s.M.omega_lower),
    ("metric_max", lambda s: s.M.omega_upper),
    ("dist_to_ref", lambda s: math.nan if s.ref is None
     else norm(s.x - s.ref)),
    ("xi", lambda s: s.xi),
    ("dist_M_sq", lambda s: math.nan if s.ref is None
     else weighted_norm_sq(s.M, s.x - s.ref)),
    ("step_M_sq", lambda s: s.rep.diff_M_sq),
)
GATE_COLUMNS = ("xi", "dist_M_sq", "step_M_sq")
DEFAULT_COLUMNS = tuple(name for name, _ in TRACE_COLUMNS
                        if name not in GATE_COLUMNS)


def select(names: Sequence[str], table=TRACE_COLUMNS) -> tuple:
    """The (name, producer) pairs of ``table`` that ``names`` selects, in
    table order; an unknown name is a ValueError."""
    unknown = set(names) - {name for name, _ in table}
    if unknown:
        raise ValueError("unknown trace columns %s" % sorted(unknown))
    return tuple((name, produce) for name, produce in table if name in names)


class IterTrace(list):
    """One row tuple per iteration, in order, of the named ``columns``."""

    def __init__(self, columns: Sequence[str]):
        super().__init__()
        self.columns = tuple(columns)

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self]

    def to_csv(self, path) -> None:
        """``csv.writer``'s bytes for names and numbers, without its per-cell
        dispatch: ``str`` of each cell (numpy 2's ``repr`` is not), CRLF."""
        with open(path, "w", newline="") as fh:
            fh.writelines(",".join(map(str, row)) + "\r\n"
                          for row in [self.columns] + self)


@dataclass
class RunResult:
    """The outcome of every solve, kernel or multi-block.  ``final`` holds the
    solver's own values of the final iterate for the summary (for a kernel
    run only its ``Xi``, and only when it updates its metric); ``abort`` the
    record :func:`run` builds when an exception ends its loop."""
    solution: np.ndarray
    trace: IterTrace
    converged: bool
    reason: str
    iterations: int
    final: dict = field(default_factory=dict)
    abort: Optional[dict] = None


# ---------------------------------------------------------------------------
# The kernel loop
# ---------------------------------------------------------------------------


def run(oracle, x0: np.ndarray, M0: Metric, cfg: HpeConfig,
        metric_update=None, ref_solution: Optional[np.ndarray] = None,
        accumulators: Sequence["ErgodicAccumulator"] = (), stop=None,
        columns: Sequence[tuple] = select(DEFAULT_COLUMNS),
        theta_cap: Optional[float] = None) -> RunResult:
    """Drive the extra-gradient loop with a step oracle.

    ``oracle(x, M, cfg) -> HpeCertificate``, with ``step`` set, or None when
    x is a fixed point of the scheme (the run ends converged, reason
    ``"fixed_point"``); ``metric_update(k, x, cert, M)`` optionally returns
    the next metric (constant metric when omitted, and then xi_k = 0: no
    update can use the schedule's slack).  ``stop(k, x)``, called
    before the oracle, may end the run converged with the reason it returns;
    it replaces the residual test max(||v||, eps) <= ``cfg.tol_residual``,
    which a run without ``stop`` ends on (reason ``"residual"``).
    Each certified iteration appends one trace row: the value of each
    ``columns`` producer, a (name, producer) pair as :func:`select` returns.
    A None theta becomes :func:`admissible_theta` of the certificate's root
    under ``theta_cap``, finite and above -1 (None reads THETA_CAP).

    Every certificate must pass the criterion and every metric change the
    schedule omega_k I <= M_next <= (1 + xi_k) M_k, with the floor omega_k =
    min(M_0) / Xi_k that an update clamped below by M_k / (1 + xi_k) keeps;
    violations abort with a diagnostic exception.  Xi_k = prod_{j<=k}
    (1 + xi_j), the factor the metric may have drifted by, taken before
    each update, is the result's ``final["Xi"]`` when ``metric_update`` is
    given, aborts included.
    Each certified step is handed to every :class:`ErgodicAccumulator` in
    ``accumulators``; no certificate is kept.
    An exception raised in the loop keeps its class, its message gains the
    prefix ``"iteration k: "``, and its ``result`` is the aborted run, with
    the partial trace and the ``abort`` record of k, class and message (and
    the criterion's lhs, rhs and slack when it failed).
    """
    cap = THETA_CAP if theta_cap is None else theta_cap
    if not (math.isfinite(cap) and cap > -1.0):
        raise ValueError("theta cap must be finite and exceed -1, got %r"
                         % cap)
    x, M = np.array(x0, dtype=float), M0
    final = {"Xi": 1.0} if metric_update is not None else {}
    trace = IterTrace(name for name, _ in columns)
    producers = [produce for _, produce in columns]
    t0 = time.perf_counter()
    k = 0
    try:
        for k in range(1, cfg.max_iters + 1):
            reason = stop(k, x) if stop is not None else None
            if reason:
                k -= 1  # iteration k never started
                break
            cert = oracle(x, M, cfg)
            if cert is None:
                reason = "fixed_point"
                break
            root = math.nan
            if cert.theta is None:
                root = criterion_root(x, cert, M, cfg.sigma)
                cert.theta = admissible_theta(root, cap)
            rep = check_criterion(x, cert, M, cfg.sigma)
            xi_k = cfg.xi(k) if metric_update is not None else 0.0
            v_norm = norm(cert.v)
            step = _Step(k, t0, x, cert, rep, M, xi_k, v_norm, ref_solution,
                         root)
            trace.append(tuple([produce(step) for produce in producers]))
            del step  # else the old x and M stay alive into the next iteration
            for acc in accumulators:
                acc.add(cert)
            if stop is None and max(v_norm, cert.eps) <= cfg.tol_residual:
                x, reason = cert.y.copy(), "residual"
                break
            x = extragradient_step(x, cert)
            if metric_update is not None:
                final["Xi"] *= 1.0 + xi_k
                M_next = metric_update(k, x, cert, M)
                validate_metric_update(M, M_next, xi_k,
                                       M0.omega_lower / final["Xi"])
                M = M_next
        else:
            reason = "max_iters"
    except Exception as exc:  # the class stays: it decides the exit code
        exc.args = ("iteration %d: %s" % (k, exc),)
        abort = {"iteration": k, "exception": type(exc).__name__,
                 "message": str(exc)}
        report = getattr(exc, "report", None)
        if report is not None:
            abort.update(lhs=report.lhs, rhs=report.rhs, slack=report.slack)
        reason = "non_finite" if isinstance(exc, NonFiniteValue) else "abort"
        exc.result = RunResult(solution=None, trace=trace, converged=False,
                               reason=reason, iterations=len(trace),
                               final=final, abort=abort)
        raise
    return RunResult(solution=x, trace=trace, converged=reason != "max_iters",
                     reason=reason, iterations=k, final=final)


# ---------------------------------------------------------------------------
# Complexity instrumentation
# ---------------------------------------------------------------------------


@dataclass
class PointwiseBound:
    """Best-iterate bounds of one run, entry k - 1 for k = 1..len(xis)."""
    bound_v: np.ndarray
    bound_eps: np.ndarray


def pointwise_bound(d0: float, sigma: float, theta_min: float, c_min: float,
                    omega_upper: float, xis: Sequence[float]) -> PointwiseBound:
    """Best-iterate bounds on ||v|| and eps after every k = 1..len(xis).

    The constants are the run's: d0 is the M_0-distance from the start point
    to a solution, theta_j >= theta_min, c_j >= c_min and M_j <= omega_upper I
    at every step, and ``xis`` holds its xi_1, xi_2, ... (a run's ``xi``
    trace column).  Bound k takes sum_{j<=k} xi_j and Xi_k = prod_{j<=k}
    (1 + xi_j), both accumulated left to right.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    # a NaN or an infinity here turns the bounds to NaN, 0 or inf
    for name, val, low in (("theta_min", theta_min, -1), ("c_min", c_min, 0),
                           ("omega_upper", omega_upper, 0)):
        if not (math.isfinite(val) and val > low):
            raise ValueError("%s must be finite and exceed %d, got %r"
                             % (name, low, val))
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 1 or not xis.size or not np.all(xis >= 0):
        raise ValueError("xis must hold xi_1..xi_k, k >= 1, each nonnegative")
    k = np.arange(1, xis.size + 1, dtype=float)
    s = np.cumsum(xis)
    cap = np.cumprod(1.0 + xis)  # <= exp(s)
    denom_v = k * (1.0 - sigma) * (1.0 + theta_min) ** 3 * c_min ** 2
    bound_v = np.sqrt(4.0 * (1.0 + s) * cap ** 2 * omega_upper / denom_v) * d0
    denom_e = k * (1.0 - sigma) * (1.0 + theta_min) ** 2 * c_min
    bound_eps = (1.0 + s) * cap / denom_e * d0 ** 2
    return PointwiseBound(bound_v=bound_v, bound_eps=bound_eps)


class ErgodicAccumulator:
    """Online ergodic residual pair of the certified steps of one run.

    The n-th certificate (y, v, eps) added gets the weight
    w = (1 + theta) c alpha(n), with alpha = 1 when omitted.  Running sums of
    w, w y, w v, w eps and w <y, v> give y_bar, v_bar and eps_bar =
    sum w (eps + <y - y_bar, v - v_bar>) / W, by the identity
    sum w <y - y_bar, v - v_bar> = sum w <y, v> - W <y_bar, v_bar>.  Each
    certificate appends ||v_bar|| and eps_bar, the pair the ergodic
    complexity bound is stated for, to ``v_norms`` and ``eps_bars``; nothing
    else grows with the iteration count.
    """

    def __init__(self, alpha: Optional[Callable[[int], float]] = None):
        self.alpha = alpha
        self.sum_w = self.sum_weps = self.sum_wyv = 0.0
        self.sum_wy = self.sum_wv = 0.0  # vectors from the first add on
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
        y, v = cert.y, cert.v
        self.sum_w += w
        self.sum_wy += w * y
        self.sum_wv += w * v
        self.sum_weps += w * cert.eps
        self.sum_wyv += w * float(np.dot(y, v))
        y_bar = self.sum_wy / self.sum_w
        v_bar = self.sum_wv / self.sum_w
        self.v_norms.append(norm(v_bar))
        self.eps_bars.append((self.sum_weps + self.sum_wyv
                              - self.sum_w * float(np.dot(y_bar, v_bar)))
                             / self.sum_w)


class CertificateRecorder(list):
    """Stands in for an accumulator and keeps every certificate it is handed."""

    add = list.append


def ergodic_aggregate(certs: Sequence[HpeCertificate], alpha) -> tuple:
    """(y_bar, v_bar, eps_bar) of stored certificates in two passes, the
    reference for :class:`ErgodicAccumulator`: weights w = (1 + theta) c alpha,
    the weighted means first, then eps_bar = sum w (eps + <y - y_bar,
    v - v_bar>) / W."""
    w = np.array([(1.0 + c.theta) * c.c * a for c, a in zip(certs, alpha)])
    if not w.sum() > 0:
        raise ValueError("ergodic weights must have a positive sum")
    ys, vs = (np.array([getattr(c, f) for c in certs]) for f in "yv")
    y_bar, v_bar = w @ ys / w.sum(), w @ vs / w.sum()
    inner = np.einsum("ij,ij->i", ys - y_bar, vs - v_bar)
    eps_bar = float(w @ (np.array([c.eps for c in certs]) + inner)) / w.sum()
    return y_bar, v_bar, eps_bar


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


def make_affine_resolvent_oracle(Q: np.ndarray, q: np.ndarray,
                                 M: Metric = IdentityMetric(), c: float = 1.0,
                                 theta: float = 0.0):
    """Exact proximal-point oracle for the affine operator T(x) = Qx + q.

    Solves (c Q + M) y = M x - c q each step, with M assembled once from its
    applies, so eps = 0, the step c M^-1 v is exactly x - y, and the
    criterion holds with lhs = theta ||c M^-1 v||_M^2 (zero when theta = 0).
    The metric is treated as fixed; pass the same M to the kernel.
    """
    import scipy.linalg

    Q, q = np.asarray(Q, dtype=float), np.asarray(q, dtype=float)
    lu = scipy.linalg.lu_factor(c * Q + _dense_form(M, Q.shape[0]))

    def oracle(x: np.ndarray, metric, cfg) -> HpeCertificate:
        y = scipy.linalg.lu_solve(lu, M.apply(x) - c * q)
        return HpeCertificate(y=y, v=Q @ y + q, eps=0.0, c=c, theta=theta,
                              step=x - y)

    return oracle


def write_summary(path, result: RunResult, config_echo: dict,
                  acc: Optional[ErgodicAccumulator] = None):
    """JSON run summary of ``result`` alone: config echo, termination, final
    residuals with ``result.final``, log-log slopes of ||v|| and ||v_bar||
    (each over its own iterations: an abort can fall between a trace row and
    its accumulation), the ergodic pair ||v_bar||, eps_bar at ``acc``'s last
    step (null when it holds none), and ``result.abort`` when it is set."""
    trace = result.trace
    v_norms, eps = trace.column("v_norm"), trace.column("eps")
    slopes = {
        "pointwise": loglog_slope(np.array(trace.column("iter"), dtype=float),
                                  np.array(v_norms)),
        "ergodic": loglog_slope(np.arange(1.0, len(acc) + 1.0),
                                np.array(acc.v_norms)) if acc else None,
    }
    summary = {
        "schema": 1,
        "config": config_echo,
        "iterations": result.iterations,
        "converged": result.converged,
        "termination": result.reason,
        "wall_time_s": trace.column("time_s")[-1] if trace else 0.0,
        "final": {
            "v_norm": v_norms[-1] if trace else None,
            "eps": eps[-1] if trace else None,
        },
        "min_over_k": {
            "v_norm": min(v_norms, default=None),
            "eps": min(eps, default=None),
        },
        "slopes": slopes,
        "ergodic": {
            "v_norm": acc.v_norms[-1] if acc else None,
            "eps": acc.eps_bars[-1] if acc else None,
        },
    }
    summary["final"].update(result.final)
    if result.abort is not None:
        summary["abort"] = result.abort
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def loglog_slope(ks: np.ndarray, values: np.ndarray) -> Optional[float]:
    """Least-squares slope of log(values) against log(ks); None if degenerate."""
    ks, values = np.asarray(ks, dtype=float), np.asarray(values, dtype=float)
    mask = (ks > 0) & (values > 0) & np.isfinite(values)
    if mask.sum() < 2:
        return None
    return float(np.polyfit(np.log(ks[mask]), np.log(values[mask]), 1)[0])
