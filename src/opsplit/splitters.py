"""Step oracles for classical splitting schemes, certified for the kernel.

Each step performs the proximal part of one iteration of a known splitting
method (forward-backward-half-forward, projective proximal-gradient
consensus splitting, Condat-Vu primal-dual, and an adaptive-step primal-dual
variant) and returns only its :class:`~opsplit.hpe_core.HpeCertificate`.
The certificate carries the scheme's own step c M^-1 v (no metric solve) and
satisfies the relative-error criterion under the metric ``problem.metric()``;
the scheme's native update is the kernel's over-relaxed extra-gradient
correction along that step, so no step builds a next iterate.  The kernel
checks the step against v to 1e-12 on every call, for every scheme.
:data:`SCHEMES` codes a QP onto each scheme and turns it into a kernel
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .hpe_core import CriterionViolation, HpeCertificate, HpeConfig
from .linops import DenseMetric, IdentityMetric, Metric
from .prox_problems import ProxFn


# ---------------------------------------------------------------------------
# Forward-backward-half-forward
# ---------------------------------------------------------------------------


@dataclass
class FbhfProblem:
    """Monotone inclusion 0 in (A + B1 + B2)(x), split at step size gamma.

    ``resolvent(gamma, u)`` evaluates J_{gamma A}(u); B1 is beta-cocoercive
    (beta = None means B1 = 0); B2 is monotone and L-Lipschitz.
    """

    dim: int
    resolvent: Callable[[float, np.ndarray], np.ndarray]
    gamma: float
    B1: Optional[Callable[[np.ndarray], np.ndarray]] = None
    beta: Optional[float] = None
    B2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    L: float = 0.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.B1 is not None and (self.beta is None or self.beta <= 0):
            raise ValueError("B1 requires a positive cocoercivity constant beta")
        if self.L < 0:
            raise ValueError("L must be nonnegative")

    def metric(self) -> Metric:
        return IdentityMetric()


def fbhf_max_theta(p: FbhfProblem, sigma: float) -> float:
    """Largest over-relaxation admissible at the problem's step size."""
    g2L2 = p.gamma ** 2 * p.L ** 2
    coco = p.gamma / (2.0 * p.beta) if p.B1 is not None else 0.0
    return (sigma - g2L2 - coco) / (1.0 + g2L2)


def fbhf_step(x: np.ndarray, p: FbhfProblem, theta: float) -> HpeCertificate:
    """One certified forward-backward-half-forward step (metric I, c = gamma)."""
    gamma = p.gamma
    b1 = p.B1(x) if p.B1 is not None else np.zeros_like(x)
    b2x = p.B2(x) if p.B2 is not None else np.zeros_like(x)
    y = np.asarray(p.resolvent(gamma, x - gamma * (b1 + b2x)), dtype=float)
    b2y = p.B2(y) if p.B2 is not None else np.zeros_like(x)
    v = (x - y) / gamma - b2x + b2y
    eps = 0.0 if p.B1 is None else float(np.dot(x - y, x - y)) / (4.0 * p.beta)
    return HpeCertificate(y=y, v=v, eps=eps, c=gamma, theta=theta,
                          step=gamma * v)


# ---------------------------------------------------------------------------
# Projective proximal-gradient consensus splitting
# ---------------------------------------------------------------------------


@dataclass
class PpgProblem:
    """min r(x) + (1/n) sum_i f_i(x) + (1/n) sum_i g_i(x).

    Iterates live in the n-fold product space; each copy carries one summand.
    L is the common Lipschitz constant of the gradients.
    """

    n: int
    dim: int
    prox_r: ProxFn
    prox_g: List[ProxFn]
    grad_f: List[Callable[[np.ndarray], np.ndarray]]
    L: float
    alpha: float

    def __post_init__(self):
        if self.n < 1 or self.alpha <= 0 or self.L < 0:
            raise ValueError("need n >= 1, alpha > 0, L >= 0")
        if len(self.prox_g) != self.n or len(self.grad_f) != self.n:
            raise ValueError("one prox_g and grad_f per summand required")

    def metric(self) -> Metric:
        return IdentityMetric()


def ppg_max_theta(p: PpgProblem, sigma: float) -> float:
    return sigma - p.L * p.alpha / 2.0


def ppg_step(z: np.ndarray, p: PpgProblem, theta: float) -> HpeCertificate:
    """One certified consensus splitting step (metric I, c = 1).

    Consensus point x+ = prox_{alpha r}(mean z_i); per-copy proxes at the
    gradient-corrected reflections; the step is v.  The certificate's eps
    carries the factor alpha from the enlargement scaling.
    """
    zs = z.reshape(p.n, p.dim)
    mean = sum(zs) / p.n
    xc = p.prox_r.evaluate(p.alpha, mean)
    x_next = [prox.evaluate(p.alpha, 2.0 * xc - zi - p.alpha * grad(xc))
              for zi, grad, prox in zip(zs, p.grad_f, p.prox_g)]
    y = np.concatenate([zi + xn - xc for zi, xn in zip(zs, x_next)])
    v = np.concatenate([xc - xn for xn in x_next])
    eps_raw = 0.25 * p.L * sum(float(np.dot(xn - xc, xn - xc)) for xn in x_next)
    return HpeCertificate(y=y, v=v, eps=p.alpha * eps_raw, c=1.0,
                          theta=theta, step=v)


# ---------------------------------------------------------------------------
# Condat-Vu primal-dual splitting
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
class CondatVuProblem:
    """min_x f(x) + g(x) + h(Bx) with smooth f (Lipschitz-L gradient).

    The dense matrix ``B`` maps primal to dual; ``prox_h`` is the prox of h
    itself (the conjugate prox comes from the Moreau identity).  The saddle
    metric [[r I, -B*], [-B, s I]], positive definite iff r s > ||B||^2, is
    assembled once from B; each apply is one matrix-vector product.
    ``bnorm`` is ||B||, when the caller already took it from the same matrix;
    None takes it from B.
    """

    dim_x: int
    dim_y: int
    prox_g: ProxFn
    prox_h: ProxFn
    B: np.ndarray
    r: float
    s: float
    grad_f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    L: float = 0.0
    bnorm: Optional[float] = field(default=None, repr=False)
    _metric: Metric = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if not (0.0 < self.r < math.inf and 0.0 < self.s < math.inf
                and self.L >= 0):
            raise ValueError("need finite r, s > 0 and L >= 0, got r=%r, s=%r"
                             % (self.r, self.s))
        if self.B.shape != (self.dim_y, self.dim_x):
            raise ValueError("B dimensions inconsistent with dim_x/dim_y")
        if self.bnorm is None:
            self.bnorm = _spectral_norm(self.B)
        if self.strong_gap <= 0:
            raise ValueError("need s - ||B||^2 / r > 0 for a positive metric")
        self._metric = DenseMetric(np.block(
            [[self.r * np.eye(self.dim_x), -self.B.T],
             [-self.B, self.s * np.eye(self.dim_y)]]))

    @property
    def strong_gap(self) -> float:
        """s - ||B||^2 / r, the positivity margin of the saddle metric."""
        return self.s - self.bnorm ** 2 / self.r

    @property
    def primal_gap(self) -> float:
        """r - ||B||^2 / s: coefficient bounding ||d||_M^2 below by ||dx||^2.

        This (not strong_gap) is the constant that enters the admissible
        over-relaxation, because the enlargement error lives on the primal
        block.  Both gaps are positive exactly when r s > ||B||^2.
        """
        return self.r - self.bnorm ** 2 / self.s

    def metric(self) -> Metric:
        return self._metric


def condat_vu_max_theta(p: CondatVuProblem, sigma: float) -> float:
    return sigma - p.L / (2.0 * p.primal_gap)


def condat_vu_step(z: np.ndarray, p: CondatVuProblem,
                   theta: float) -> HpeCertificate:
    """One certified primal-dual step under the saddle metric (c = 1).

    The certificate's step is d = z - w, with v = M d, so the kernel's
    correction z - (1 + theta) d is the native over-relaxed update
    z + (1 + theta)(w - z).
    """
    x, y = z[:p.dim_x], z[p.dim_x:]
    gf = p.grad_f(x) if p.grad_f is not None else np.zeros_like(x)
    xt = p.prox_g.evaluate(1.0 / p.r, x - (gf + p.B.T @ y) / p.r)
    yt = _prox_conjugate(p.prox_h, 1.0 / p.s, y + p.B @ (2.0 * xt - x) / p.s)
    w = np.concatenate([xt, yt])
    d = z - w
    v = p.metric().apply(d)
    eps = 0.25 * p.L * float(np.dot(x - xt, x - xt))
    return HpeCertificate(y=w, v=v, eps=eps, c=1.0, theta=theta, step=d)


# ---------------------------------------------------------------------------
# Adaptive-step primal-dual splitting
# ---------------------------------------------------------------------------


@dataclass
class AfbasPdProblem:
    """min_x f(x) + g(x) + h(Bx) with an adaptive over-relaxation.

    Nonsymmetric preconditioner R = [[I/gamma1, -B*], [(1-theta)B, I/gamma2]]
    and step shaper S = [[I, -c1 B*], [c2 B, I]] with c1 = mu gamma1 (2-theta)
    and c2 = gamma2 (1-mu)(2-theta); the certified metric is M = R S^{-1}.
    M is symmetric by construction: c1/gamma1 + c2/gamma2 = 2 - theta makes
    S* R = R* S for every parameter set, so :class:`DenseMetric` symmetrizes
    only rounding.  The curvature margin 1/gamma1 > gamma2 theta^2 ||B||^2/4
    also gives 1/(gamma1 gamma2) + (1-theta) B*B > 0, as
    theta^2/4 >= theta - 1.
    R, S and M are assembled once from the dense matrix B, so each apply of
    any of them is one matrix-vector product.  theta here is the scheme's
    structural parameter (not the over-relaxation); the over-relaxation is
    alpha_k - 1 with alpha_k computed per step.  ``bnorm`` is ||B||, as for
    :class:`CondatVuProblem`.
    """

    dim_x: int
    dim_y: int
    prox_g: ProxFn
    prox_h: ProxFn
    B: np.ndarray
    gamma1: float
    gamma2: float
    theta: float = 2.0
    mu: float = 0.5
    lam: float = 1.0
    grad_f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    L: float = 0.0
    bnorm: Optional[float] = field(default=None, repr=False)
    _metric: Metric = field(init=False, repr=False, default=None)
    _R: np.ndarray = field(init=False, repr=False, default=None)
    _S: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ValueError("gamma1, gamma2 must be positive")
        if self.theta < 0 or not 0.0 <= self.mu <= 1.0 or self.L < 0:
            raise ValueError("need theta >= 0, mu in [0,1], L >= 0")
        Bd = self.B
        if self.bnorm is None:
            self.bnorm = _spectral_norm(Bd)
        if self.curvature_margin <= self.L / 4.0:
            raise ValueError("need 1/gamma1 - gamma2 theta^2 ||B||^2 / 4 > L/4")
        if not 0.0 < self.lam < self.delta:
            raise ValueError("lam must lie in (0, delta), delta=%.6g" % self.delta)
        c1 = self.mu * self.gamma1 * (2.0 - self.theta)
        c2 = self.gamma2 * (1.0 - self.mu) * (2.0 - self.theta)
        eye_x, eye_y = np.eye(self.dim_x), np.eye(self.dim_y)
        self._R = np.block([[eye_x / self.gamma1, -Bd.T],
                            [(1.0 - self.theta) * Bd, eye_y / self.gamma2]])
        self._S = np.block([[eye_x, -c1 * Bd.T], [c2 * Bd, eye_y]])
        self._metric = DenseMetric(self._R @ np.linalg.inv(self._S))

    # -- derived constants ----------------------------------------------------

    @property
    def curvature_margin(self) -> float:
        return 1.0 / self.gamma1 - self.gamma2 * self.theta ** 2 * self.bnorm ** 2 / 4.0

    @property
    def delta(self) -> float:
        return 2.0 - self.L / (2.0 * self.curvature_margin)

    def metric(self) -> Metric:
        return self._metric


def afbas_pd_step(z: np.ndarray, p: AfbasPdProblem,
                  sigma: float) -> Optional[HpeCertificate]:
    """One certified adaptive primal-dual step (c = 1, metric R S^{-1}).

    alpha_k = lam * (1/2)||d||^2_{R+R*} / <S d, R d> with d = w - z, then
    lam is capped along the direction so the relative-error criterion holds
    with the given sigma; theta_k = alpha_k - 1.  The certificate is v = R d
    with step M^-1 v = S d, so the kernel's correction is the native update
    z - alpha_k S d.  At d = 0, z is a fixed point of the scheme and the
    step returns None, as the kernel's oracle protocol asks.  A direction
    with no admissible step raises :class:`CriterionViolation`.
    """
    x, y = z[:p.dim_x], z[p.dim_x:]
    gf = p.grad_f(x) if p.grad_f is not None else np.zeros_like(x)
    xb = p.prox_g.evaluate(p.gamma1, x - p.gamma1 * (p.B.T @ y + gf))
    u = y + p.gamma2 * (p.B @ ((1.0 - p.theta) * x + p.theta * xb))
    yb = _prox_conjugate(p.prox_h, p.gamma2, u)
    w = np.concatenate([xb, yb])
    d = z - w
    if np.linalg.norm(d) == 0.0:
        return None
    Rd = p._R @ d
    Sd = p._S @ d
    n2_rr = 2.0 * float(np.dot(d, Rd))                      # ||d||^2_{R+R*}
    denom = float(np.dot(Sd, Rd))                           # ||S d||^2_M > 0
    eps = 0.25 * p.L * float(np.dot(d[:p.dim_x], d[:p.dim_x]))
    d_M = float(np.dot(d, p.metric().apply(d)))
    cap = 0.999 * (n2_rr - (1.0 - sigma) * d_M - 2.0 * eps) / (0.5 * n2_rr)
    if cap <= 0:
        raise CriterionViolation("no admissible step along this direction "
                                 "(criterion cap %.3e)" % cap)
    alpha = min(p.lam, cap) * 0.5 * n2_rr / denom
    return HpeCertificate(y=w, v=Rd, eps=eps, c=1.0, theta=alpha - 1.0,
                          step=Sd)


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


def fbhf_from_qp(inst, sigma: Optional[float] = None):
    """FBHF coding: A = normal cone of {Gx=b}, B1 = grad of the quadratic.

    Returns (problem, theta_max, x_ref); pick theta <= theta_max.
    """
    sigma = HpeConfig.sigma if sigma is None else sigma
    Q, c, G, b, Lq = _qp_data(inst)
    proj = affine_projector(G, b)
    beta = 1.0 / Lq
    # gamma = beta sigma: theta_max = sigma - gamma/(2 beta) = sigma/2
    prob = FbhfProblem(dim=Q.shape[0], resolvent=lambda gamma, u: proj(u),
                       gamma=beta * sigma, B1=lambda u: Q @ u + c, beta=beta)
    return prob, fbhf_max_theta(prob, sigma), inst.x_star


def ppg_from_qp(inst, sigma: Optional[float] = None):
    """Consensus coding: r = affine indicator, f_i = the full quadratic.

    Returns (problem, theta_max, z_ref); the reference point is the known
    fixed point z_i* = x* - alpha grad f_i(x*).
    """
    sigma = HpeConfig.sigma if sigma is None else sigma
    Q, c, G, b, Lq = _qp_data(inst)
    proj = affine_projector(G, b)
    alpha = sigma / Lq  # leaves theta headroom up to sigma/2
    prox_r = ProxFn(lambda t, u: proj(u), lambda u: 0.0, name="affine")
    n = 3  # copies of the quadratic
    prob = PpgProblem(n=n, dim=Q.shape[0], prox_r=prox_r,
                      prox_g=[ProxFn.zero() for _ in range(n)],
                      grad_f=[(lambda u, Q=Q, c=c: Q @ u + c)] * n,
                      L=Lq, alpha=alpha)
    g_star = Q @ inst.x_star + c
    z_ref = np.tile(inst.x_star - alpha * g_star, n)
    return prob, ppg_max_theta(prob, sigma), z_ref


def condat_vu_from_qp(inst, sigma: Optional[float] = None,
                      r: Optional[float] = None, s: Optional[float] = None):
    """Primal-dual coding: f = quadratic, g = 0, h = indicator of {b}, B = G.

    Returns (problem, theta_max, z_ref = (x*, y*)).  Omitted scale parameters
    r, s default to values with comfortable margin in the metric condition.
    """
    sigma = HpeConfig.sigma if sigma is None else sigma
    Q, c, G, b, Lq = _qp_data(inst)
    bnorm = _spectral_norm(G)
    scale = bnorm + Lq / sigma + 1.0
    r, s = scale if r is None else r, scale if s is None else s
    prob = CondatVuProblem(dim_x=Q.shape[0], dim_y=b.size,
                           prox_g=ProxFn.zero(), prox_h=ProxFn.constant(b),
                           B=G, r=r, s=s, grad_f=lambda u: Q @ u + c,
                           L=Lq, bnorm=bnorm)
    return prob, condat_vu_max_theta(prob, sigma), inst.z_star


def afbas_pd_from_qp(inst, theta: float = 2.0, mu: float = 0.5,
                     lam: float = 1.0):
    """Adaptive primal-dual coding of the same saddle problem.

    Returns (problem, None, z_ref = (x*, y*)): the step picks its own
    over-relaxation, so there is no theta_max.
    """
    Q, c, G, b, Lq = _qp_data(inst)
    bnorm = _spectral_norm(G)
    gamma2 = 1.0 / (bnorm + 1.0)
    # 1/gamma1 > L/4 + gamma2 theta^2 ||B||^2 / 4 with a factor-2 margin
    gamma1 = 1.0 / (2.0 * (Lq / 4.0 + gamma2 * theta ** 2 * bnorm ** 2 / 4.0 + 0.5))
    prob = AfbasPdProblem(dim_x=Q.shape[0], dim_y=b.size,
                          prox_g=ProxFn.zero(), prox_h=ProxFn.constant(b),
                          B=G, gamma1=gamma1, gamma2=gamma2, theta=theta,
                          mu=mu, lam=lam, grad_f=lambda u: Q @ u + c, L=Lq,
                          bnorm=bnorm)
    return prob, None, inst.z_star


# ---------------------------------------------------------------------------
# The scheme table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """One splitter coded onto a QP: ``build(inst, sigma)`` returns
    (problem, theta_max, reference), every step scale derived from the QP,
    ``step(x, problem, theta, sigma)`` one certificate under the metric
    ``problem.metric()``, and ``bound`` states theta <= theta_max (None: the
    scheme picks its over-relaxation at every step)."""

    build: Callable[..., tuple]
    step: Callable[..., HpeCertificate]
    bound: Optional[str] = None

    def setup(self, inst, sigma: float, theta: Optional[float] = None):
        """(oracle, M_0, x_0, reference) of a kernel run on ``inst``.

        ``theta`` None takes 0.9 theta_max; a theta past the bound, at or
        below -1 or NaN, or any theta for a scheme without one, raises
        ValueError.  This is the one check of the bound: the steps take theta
        as given.
        """
        prob, theta_max, ref = self.build(inst, sigma)
        if self.bound is None:
            if theta is not None:
                raise ValueError("this scheme picks its over-relaxation at "
                                 "every step; theta must be 'auto'")
        elif theta is None:
            theta = 0.9 * theta_max
        elif not theta > -1.0:
            raise ValueError("theta must exceed -1, got %r" % theta)
        elif theta > theta_max + 1e-12:
            raise ValueError("theta %.4g violates %s (max %.4g)"
                             % (theta, self.bound, theta_max))
        def oracle(x: np.ndarray, M, cfg) -> Optional[HpeCertificate]:
            return self.step(x, prob, theta, cfg.sigma)

        return oracle, prob.metric(), np.zeros(ref.size), ref


# Steps and builders are looked up by module name when called, so that
# wrapping or patching a module function reaches every scheme.  The order is
# the CLI's algorithm order.
SCHEMES = {
    "condat-vu": Scheme(
        build=lambda inst, sigma: condat_vu_from_qp(inst, sigma),
        step=lambda z, p, theta, sigma: condat_vu_step(z, p, theta),
        bound="theta + L/(2(r - ||B||^2/s)) <= sigma"),
    "ppg": Scheme(
        build=lambda inst, sigma: ppg_from_qp(inst, sigma),
        step=lambda z, p, theta, sigma: ppg_step(z, p, theta),
        bound="theta + L*alpha/2 <= sigma"),
    "fbhf": Scheme(
        build=lambda inst, sigma: fbhf_from_qp(inst, sigma),
        step=lambda x, p, theta, sigma: fbhf_step(x, p, theta),
        bound="(1 + gamma^2 L^2) theta + gamma^2 L^2 + gamma/(2 beta) "
              "<= sigma"),
    "afbas-pd": Scheme(
        build=lambda inst, sigma: afbas_pd_from_qp(inst),
        step=lambda z, p, theta, sigma: afbas_pd_step(z, p, sigma)),
}
