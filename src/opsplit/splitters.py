"""Step oracles for classical splitting schemes, certified for the kernel.

Each step performs the proximal part of one iteration of a known splitting
method (forward-backward-half-forward, projective proximal-gradient
consensus splitting, and Condat-Vu and an adaptive-step variant, two
members of one primal-dual problem) and returns only its
:class:`~opsplit.hpe_core.HpeCertificate`.
The certificate carries the scheme's own step c M^-1 v (no metric solve)
under the metric ``problem.metric()``; the scheme's native update is the
kernel's over-relaxed extra-gradient correction along that step, at the
criterion's root unless the step sets theta, so no step builds a next
iterate.  The kernel checks the step against v to 1e-12 on every call.
:data:`SCHEMES` codes a QP onto each scheme and turns it into a kernel
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import hpe_core
from .hpe_core import HpeCertificate, HpeConfig
from .linops import DenseMetric, IdentityMetric, Metric
from .prox_problems import ProxFn


def _check_constant(name: str, value, sign: str = "positive") -> None:
    """ValueError naming a constant that is not finite and ``sign``."""
    if value is None or not (math.isfinite(value) and value >= 0
                             and (value > 0 or sign == "nonnegative")):
        raise ValueError("%s must be finite and %s, got %r"
                         % (name, sign, value))


def _check_hessian(Q: Optional[np.ndarray], dim: int) -> None:
    if Q is not None and np.shape(Q) != (dim, dim):
        raise ValueError("Q must be a (%d, %d) Hessian, got shape %s"
                         % (dim, dim, np.shape(Q)))


def _curvature_eps(d: np.ndarray, Q: Optional[np.ndarray], L: float) -> float:
    """(1/4) d^T Q d, the enlargement error of a quadratic's gradient taken
    d away (Burachik, Iusem and Svaiter, 1997), or (L/4)||d||^2 for any
    L-smooth one when Q is None; d is the certificate's own vector."""
    if Q is None:
        return 0.25 * L * float(np.dot(d, d))
    return 0.25 * float(np.dot(d, Q @ d))


# ---------------------------------------------------------------------------
# Forward-backward-half-forward
# ---------------------------------------------------------------------------


@dataclass
class FbhfProblem:
    """Monotone inclusion 0 in (A + B1 + B2)(x), split at step size gamma.

    ``resolvent(gamma, u)`` evaluates J_{gamma A}(u); B1 is beta-cocoercive
    (beta = None means B1 = 0); B2 is monotone and L-Lipschitz.  ``Q`` is
    the Hessian of a quadratic whose gradient B1 is, if given.
    """

    dim: int
    resolvent: Callable[[float, np.ndarray], np.ndarray]
    gamma: float
    B1: Optional[Callable[[np.ndarray], np.ndarray]] = None
    beta: Optional[float] = None
    B2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    L: float = 0.0
    Q: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        _check_constant("gamma", self.gamma)
        if self.B1 is not None:
            _check_constant("beta", self.beta)
        _check_constant("L", self.L, "nonnegative")
        _check_hessian(self.Q, self.dim)

    def metric(self) -> Metric:
        return IdentityMetric()


def fbhf_step(x: np.ndarray, p: FbhfProblem,
              theta: Optional[float] = None) -> HpeCertificate:
    """One certified forward-backward-half-forward step (metric I, c = gamma),
    eps B1's enlargement error along delta = x - y."""
    gamma = p.gamma
    b1 = p.B1(x) if p.B1 is not None else np.zeros_like(x)
    b2x = p.B2(x) if p.B2 is not None else np.zeros_like(x)
    y = np.asarray(p.resolvent(gamma, x - gamma * (b1 + b2x)), dtype=float)
    b2y = p.B2(y) if p.B2 is not None else np.zeros_like(x)
    delta = x - y
    v = delta / gamma - b2x + b2y
    eps = 0.0 if p.B1 is None else _curvature_eps(delta, p.Q, 1.0 / p.beta)
    return HpeCertificate(y=y, v=v, eps=eps, c=gamma, theta=theta,
                          step=gamma * v)


# ---------------------------------------------------------------------------
# Projective proximal-gradient consensus splitting
# ---------------------------------------------------------------------------


@dataclass
class PpgProblem:
    """min r(x) + (1/n) sum_i f_i(x) + (1/n) sum_i g_i(x).

    Iterates live in the n-fold product space; each copy carries one summand.
    L is the common Lipschitz constant of the gradients, ``Q`` the common
    Hessian of quadratic f_i, if given.
    """

    n: int
    dim: int
    prox_r: ProxFn
    prox_g: List[ProxFn]
    grad_f: List[Callable[[np.ndarray], np.ndarray]]
    L: float
    alpha: float
    Q: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        _check_constant("n", self.n)
        _check_constant("alpha", self.alpha)
        _check_constant("L", self.L, "nonnegative")
        if len(self.prox_g) != self.n or len(self.grad_f) != self.n:
            raise ValueError("one prox_g and grad_f per summand required")
        _check_hessian(self.Q, self.dim)

    def metric(self) -> Metric:
        return IdentityMetric()


def ppg_step(z: np.ndarray, p: PpgProblem,
             theta: Optional[float] = None) -> HpeCertificate:
    """One certified consensus splitting step (metric I, c = 1).

    Consensus point x_c = prox_{alpha r}(mean z_i); per-copy proxes x_n,i at
    the gradient-corrected reflections; y_i = z_i + x_n,i - x_c.  The step
    is v = z - y (x_c - x_n,i in exact arithmetic, and step + (y - z) = 0
    in floating point); eps is alpha times the f_i's enlargement errors.
    """
    zs = z.reshape(p.n, p.dim)
    xc = p.prox_r.evaluate(p.alpha, sum(zs) / p.n)
    x_next = [prox.evaluate(p.alpha, 2.0 * xc - zi - p.alpha * grad(xc))
              for zi, grad, prox in zip(zs, p.grad_f, p.prox_g)]
    y = np.concatenate([zi + xn - xc for zi, xn in zip(zs, x_next)])
    v = z - y
    eps = p.alpha * sum(_curvature_eps(vi, p.Q, p.L)
                        for vi in v.reshape(p.n, p.dim))
    return HpeCertificate(y=y, v=v, eps=eps, c=1.0, theta=theta, step=v)


# ---------------------------------------------------------------------------
# Primal-dual splitting: Condat-Vu and the adaptive-step variant
# ---------------------------------------------------------------------------


def _spectral_norm(B: np.ndarray) -> float:
    """Largest singular value of a dense matrix, 0 for an empty one."""
    return float(np.linalg.svd(B, compute_uv=False)[0]) if min(B.shape) else 0.0


def _prox_conjugate(prox_h: ProxFn, t: float, u: np.ndarray) -> np.ndarray:
    """prox_{t h*}(u) = u - t prox_{h/t}(u/t) (Moreau identity).

    prox_{h/t} is the prox of h with step 1/t in the argmin convention of
    :class:`~opsplit.prox_problems.ProxFn`.
    """
    return u - t * prox_h.evaluate(1.0 / t, u / t)


@dataclass
class PrimalDualProblem:
    """min_x f(x) + g(x) + h(Bx) with smooth f (Lipschitz-L gradient).

    The dense matrix ``B`` maps primal to dual; ``prox_h`` is the prox of h
    itself (the conjugate prox comes from the Moreau identity).  The metric
    scales r and s are the inverse primal and dual step sizes.  The
    preconditioner R = [[r I, -B*], [(1-theta)B, s I]] and the step shaper
    S = [[I, -c1 B*], [c2 B, I]] with c1 = mu (2-theta)/r and
    c2 = (1-mu)(2-theta)/s give the certified metric M = R S^{-1}.  M is
    symmetric by construction: c1 r + c2 s = 2 - theta makes S* R = R* S for
    every parameter set, so :class:`DenseMetric` symmetrizes only rounding.
    The curvature margin r - theta^2 ||B||^2/(4 s) > L/4 also gives
    r s + (1-theta) B*B > 0, as theta^2/4 >= theta - 1.  theta here is the
    scheme's structural parameter, not the over-relaxation.  At theta = 2,
    S = I and M = R = [[r I, -B*], [-B, s I]] is Condat-Vu's saddle metric,
    and the margin is its r - ||B||^2/s.  R, S and M are assembled once, so
    each apply of any of them is one matrix-vector product.  ``bnorm`` is
    ||B||, when the caller already took it from the same matrix; None takes
    it from B.  ``Q`` is f's Hessian, if given.
    """

    dim_x: int
    dim_y: int
    prox_g: ProxFn
    prox_h: ProxFn
    B: np.ndarray
    r: float
    s: float
    theta: float
    mu: float
    lam: float = math.inf
    grad_f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    L: float = 0.0
    bnorm: Optional[float] = field(default=None, repr=False)
    Q: Optional[np.ndarray] = field(default=None, repr=False)
    _metric: Metric = field(init=False, repr=False, default=None)
    _R: np.ndarray = field(init=False, repr=False, default=None)
    _S: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if not (0.0 < self.r < math.inf and 0.0 < self.s < math.inf):
            raise ValueError("need finite r, s > 0, got r=%r, s=%r"
                             % (self.r, self.s))
        if not (self.theta >= 0 and 0.0 <= self.mu <= 1.0 and self.L >= 0):
            raise ValueError("need theta >= 0, mu in [0,1], L >= 0")
        Bd = self.B
        if Bd.shape != (self.dim_y, self.dim_x):
            raise ValueError("B dimensions inconsistent with dim_x/dim_y")
        _check_hessian(self.Q, self.dim_x)
        if self.bnorm is None:
            self.bnorm = _spectral_norm(Bd)
        if self.curvature_margin <= self.L / 4.0:
            raise ValueError("need r - theta^2 ||B||^2 / (4 s) > L/4 for a "
                             "positive metric")
        c1 = self.mu * (2.0 - self.theta) / self.r
        c2 = (1.0 - self.mu) * (2.0 - self.theta) / self.s
        eye_x, eye_y = np.eye(self.dim_x), np.eye(self.dim_y)
        self._R = np.block([[self.r * eye_x, -Bd.T],
                            [(1.0 - self.theta) * Bd, self.s * eye_y]])
        self._S = np.block([[eye_x, -c1 * Bd.T], [c2 * Bd, eye_y]])
        self._metric = DenseMetric(self._R @ np.linalg.inv(self._S))

    @property
    def curvature_margin(self) -> float:
        """r - theta^2 ||B||^2 / (4 s): the coefficient bounding ||d||_M^2
        below by ||dx||^2, which bounds the criterion's root below because
        the enlargement error lives on the primal block."""
        return self.r - self.theta ** 2 * self.bnorm ** 2 / (4.0 * self.s)

    def metric(self) -> Metric:
        return self._metric


def _primal_dual_sweep(z: np.ndarray, p: PrimalDualProblem):
    """(w, d, eps) of the primal-dual sweep from z = (x, y): the sweep point
    w = (x~, y~) with x~ = prox_{g/r}(x - (grad f(x) + B* y)/r) and
    y~ = prox_{h*/s}(y + B((1-theta) x + theta x~)/s), the displacement
    d = z - w and the enlargement error of grad f along its primal block
    dx = x - x~: (1/4) dx^T Q dx with a Hessian, (L/4)||dx||^2 without."""
    x, y = z[:p.dim_x], z[p.dim_x:]
    gf = p.grad_f(x) if p.grad_f is not None else np.zeros_like(x)
    xt = p.prox_g.evaluate(1.0 / p.r, x - (gf + p.B.T @ y) / p.r)
    u = y + p.B @ ((1.0 - p.theta) * x + p.theta * xt) / p.s
    w = np.concatenate([xt, _prox_conjugate(p.prox_h, 1.0 / p.s, u)])
    d = z - w
    return w, d, _curvature_eps(d[:p.dim_x], p.Q, p.L)


def condat_vu_step(z: np.ndarray, p: PrimalDualProblem,
                   theta: Optional[float] = None) -> HpeCertificate:
    """One certified primal-dual step under the metric M (c = 1).

    The certificate's step is the sweep's d = z - w, with v = M d, so the
    kernel's correction z - (1 + theta) d is the native over-relaxed update
    z + (1 + theta)(w - z).  Condat-Vu is the problem's theta = 2 member,
    where M = R.
    """
    w, d, eps = _primal_dual_sweep(z, p)
    return HpeCertificate(y=w, v=p.metric().apply(d), eps=eps, c=1.0,
                          theta=theta, step=d)


def afbas_pd_step(z: np.ndarray, p: PrimalDualProblem,
                  sigma: float) -> Optional[HpeCertificate]:
    """One certified adaptive primal-dual step (c = 1, metric R S^{-1}).

    With d the sweep's z - w the certificate is v = R d with step
    M^-1 v = S d, so the kernel's correction is the native update
    z - alpha_k S d, alpha_k = 1 + theta_k, at the criterion's root.  An
    explicit ``lam`` also caps alpha_k at lam <d, R d> / <S d, R d>: the
    step then sets theta_k from the same root, at the given sigma.  At
    d = 0, z is a fixed point and the step returns None.
    """
    w, d, eps = _primal_dual_sweep(z, p)
    if np.linalg.norm(d) == 0.0:
        return None
    Rd = p._R @ d
    Sd = p._S @ d
    cert = HpeCertificate(y=w, v=Rd, eps=eps, c=1.0, theta=None, step=Sd)
    if p.lam != math.inf:
        alpha = p.lam * float(np.dot(d, Rd)) / float(np.dot(Sd, Rd))
        cert.theta = hpe_core.admissible_theta(
            hpe_core.criterion_root(z, cert, p.metric(), sigma), alpha - 1.0)
    return cert


# ---------------------------------------------------------------------------
# Builders mapping a QP instance onto each scheme
# ---------------------------------------------------------------------------


def affine_projector(G: np.ndarray, b: np.ndarray):
    """Euclidean projector onto {x : G x = b} (resolvent of its normal cone),
    built once as the affine map u -> P u + t with P = I - G*(G G*)^-1 G and
    t = G*(G G*)^-1 b; each call is one matvec, NaN passed through.  A
    non-finite G G* raises ValueError, a singular one LinAlgError."""
    G = np.asarray(G, dtype=float)
    gram = G @ G.T
    if not np.all(np.isfinite(gram)):
        raise ValueError("G G* of the affine constraint is not finite")
    chol = np.linalg.cholesky(gram)
    W = np.linalg.solve(chol, G)  # W* W = G*(G G*)^-1 G
    P = np.eye(G.shape[1]) - W.T @ W
    t = W.T @ np.linalg.solve(chol, np.asarray(b, dtype=float))
    return lambda u: P @ u + t


def _qp_data(inst):
    """(Q, c, G, b, ||Q||) of a QP instance."""
    return (inst.Q, inst.c, inst.G, inst.b,
            float(np.linalg.eigvalsh(inst.Q)[-1]))


# fbhf's and ppg's step c is STEP_SHARE of the limit 2 (1 + sigma) / L.  With
# M = I and step + (y - x) = 0 their root is sigma - (c/2) delta^T Q delta /
# ||delta||^2 >= sigma - STEP_SHARE (1 + sigma) > -1 along every step delta,
# at every sigma.  Condat-Vu's root stays above THETA_SHARE sigma, the rest of
# sigma going to its scales, and CV_DUAL_SCALE sets its dual scale.  Each
# took the fewest iterations on the QP seeds 0-9 of those swept (README).
STEP_SHARE = 0.95
THETA_SHARE = 0.125
CV_DUAL_SCALE = 1.5


def fbhf_from_qp(inst, sigma: Optional[float] = None):
    """FBHF coding: A = normal cone of {Gx=b}, B1 = grad of the quadratic,
    with its Hessian, at gamma = 2 STEP_SHARE (1 + sigma) / ||Q||.  Returns
    (problem, x_ref)."""
    sigma = HpeConfig.sigma if sigma is None else sigma
    Q, c, G, b, Lq = _qp_data(inst)
    proj = affine_projector(G, b)
    prob = FbhfProblem(dim=Q.shape[0], resolvent=lambda gamma, u: proj(u),
                       gamma=2.0 * STEP_SHARE * (1.0 + sigma) / Lq,
                       B1=lambda u: Q @ u + c, beta=1.0 / Lq, Q=Q)
    return prob, inst.x_star


def ppg_from_qp(inst, sigma: Optional[float] = None):
    """Consensus coding: r = affine indicator, f_i = the full quadratic,
    with its Hessian, at alpha = 2 STEP_SHARE (1 + sigma) / ||Q||.  Returns
    (problem, z_ref), z_i* = x* - alpha grad f_i(x*) the known fixed point.
    """
    sigma = HpeConfig.sigma if sigma is None else sigma
    Q, c, G, b, Lq = _qp_data(inst)
    proj = affine_projector(G, b)
    alpha = 2.0 * STEP_SHARE * (1.0 + sigma) / Lq
    prox_r = ProxFn(lambda t, u: proj(u), lambda u: 0.0, name="affine")
    n = 3  # copies of the quadratic
    prob = PpgProblem(n=n, dim=Q.shape[0], prox_r=prox_r,
                      prox_g=[ProxFn.zero() for _ in range(n)],
                      grad_f=[(lambda u, Q=Q, c=c: Q @ u + c)] * n,
                      L=Lq, alpha=alpha, Q=Q)
    return prob, np.tile(inst.x_star - alpha * (Q @ inst.x_star + c), n)


def condat_vu_from_qp(inst, sigma: Optional[float] = None):
    """Primal-dual coding: f = quadratic, with its Hessian, g = 0,
    h = indicator of {b}, B = G.

    Returns (problem, z_ref = (x*, y*)).  Condat-Vu is the problem's
    theta = 2 member, where mu has no effect.  For sigma > 0 the scales
    s = CV_DUAL_SCALE (||B|| + L/sigma + 1) and r = ||B||^2/s +
    L/(2 sigma (1 - THETA_SHARE)) keep the criterion's root above
    THETA_SHARE sigma, with r s > ||B||^2.
    """
    sigma = HpeConfig.sigma if sigma is None else sigma
    if not sigma > 0:
        raise ValueError("sigma must be positive for a scheme whose step "
                         "scales with it, got %r" % sigma)
    Q, c, G, b, Lq = _qp_data(inst)
    bnorm = _spectral_norm(G)
    s = CV_DUAL_SCALE * (bnorm + Lq / sigma + 1.0)
    r = bnorm ** 2 / s + Lq / (2.0 * sigma * (1.0 - THETA_SHARE))
    prob = PrimalDualProblem(dim_x=Q.shape[0], dim_y=b.size,
                             prox_g=ProxFn.zero(), prox_h=ProxFn.constant(b),
                             B=G, r=r, s=s, theta=2.0, mu=0.5,
                             grad_f=lambda u: Q @ u + c, L=Lq, bnorm=bnorm,
                             Q=Q)
    return prob, inst.z_star


AFBAS_THETA = 0.5


def afbas_pd_from_qp(inst, theta: Optional[float] = None, mu: float = 0.5,
                     lam: float = math.inf):
    """Adaptive primal-dual coding of the same saddle problem, with the
    Lipschitz eps.  Returns (problem, z_ref = (x*, y*)).  The structural
    ``theta`` defaults to AFBAS_THETA = 0.5, which took the fewest
    iterations on the QP seeds 0-9 of those swept (README)."""
    theta = AFBAS_THETA if theta is None else theta
    Q, c, G, b, Lq = _qp_data(inst)
    bnorm = _spectral_norm(G)
    s = bnorm + 1.0
    # r > L/4 + theta^2 ||B||^2 / (4 s) with a factor-2 margin
    r = 2.0 * (Lq / 4.0 + theta ** 2 * bnorm ** 2 / (4.0 * s) + 0.5)
    prob = PrimalDualProblem(dim_x=Q.shape[0], dim_y=b.size,
                             prox_g=ProxFn.zero(), prox_h=ProxFn.constant(b),
                             B=G, r=r, s=s, theta=theta, mu=mu, lam=lam,
                             grad_f=lambda u: Q @ u + c, L=Lq, bnorm=bnorm)
    return prob, inst.z_star


# ---------------------------------------------------------------------------
# The scheme table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """One splitter coded onto a QP: ``build(inst, sigma)`` returns
    (problem, reference), every scale derived from the QP, and ``step(x,
    problem, sigma)`` one certificate under ``problem.metric()``."""

    build: Callable[..., tuple]
    step: Callable[..., HpeCertificate]

    def setup(self, inst, sigma: float):
        """(oracle, M_0, x_0, reference) of a kernel run on ``inst``."""
        prob, ref = self.build(inst, sigma)
        return (lambda x, M, cfg: self.step(x, prob, cfg.sigma),
                prob.metric(), np.zeros(ref.size), ref)


# Steps and builders are looked up by module name when called, so that
# wrapping or patching a module function reaches every scheme.  The order is
# the CLI's algorithm order.
SCHEMES = {
    "condat-vu": Scheme(lambda inst, sigma: condat_vu_from_qp(inst, sigma),
                        lambda z, p, sigma: condat_vu_step(z, p)),
    "ppg": Scheme(lambda inst, sigma: ppg_from_qp(inst, sigma),
                  lambda z, p, sigma: ppg_step(z, p)),
    "fbhf": Scheme(lambda inst, sigma: fbhf_from_qp(inst, sigma),
                   lambda x, p, sigma: fbhf_step(x, p)),
    "afbas-pd": Scheme(lambda inst, sigma: afbas_pd_from_qp(inst),
                       lambda z, p, sigma: afbas_pd_step(z, p, sigma)),
}
