"""Oracle-level checks for the four splitting schemes.

Each scheme is exercised three ways: hand-computed single steps, boundary
tightness of the admissible over-relaxation, and convergence to an
independently computed reference solution.  The worst-case bounds of the
Lipschitz eps come from ``support.worst_case_theta``.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from opsplit import hpe_core
from opsplit.hpe_core import (CriterionViolation, HpeConfig, check_criterion,
                              extragradient_step)
from opsplit.linops import DenseMetric, IdentityMetric
from opsplit.prox_problems import ProxFn, gen_qp
from opsplit.splitters import (SCHEMES, FbhfProblem, PpgProblem,
                               PrimalDualProblem, afbas_pd_from_qp,
                               afbas_pd_step, affine_projector,
                               condat_vu_from_qp, condat_vu_step,
                               fbhf_step, ppg_from_qp, ppg_step, STEP_SHARE,
                               THETA_SHARE)

from support import count_svds, failed_criterion, worst_case_theta


def _pt(arr):
    return np.asarray(arr, dtype=float)


# ---------------------------------------------------------------------------
# Forward-backward-half-forward
# ---------------------------------------------------------------------------


def test_fbhf_pure_resolvent_step():
    # A = d(||.||^2/2) has resolvent u/(1+gamma); B1 = B2 = 0
    p = FbhfProblem(dim=3, resolvent=lambda g, u: u / (1.0 + g), gamma=1.0)
    x = _pt([2.0, -4.0, 0.0])
    cert = fbhf_step(x, p, theta=0.0)
    assert np.allclose(cert.y, x / 2.0)
    assert np.allclose(cert.v, x / 2.0)
    assert cert.eps == 0.0 and cert.c == 1.0
    assert np.allclose(extragradient_step(x, cert), x / 2.0)


def test_fbhf_fixed_point_is_stationary():
    p = FbhfProblem(dim=2, resolvent=lambda g, u: u / (1.0 + g), gamma=0.7)
    x = _pt([0.0, 0.0])
    cert = fbhf_step(x, p, theta=0.3)
    assert np.linalg.norm(cert.v) == 0.0
    assert np.all(extragradient_step(x, cert) == 0.0)


def test_fbhf_boundary_tightness():
    # B1 = grad(||x||^2 / (2 beta)) attains the cocoercivity bound, so the
    # criterion holds with equality exactly at theta_max
    beta = 0.8
    p = FbhfProblem(dim=4, resolvent=lambda g, u: u, gamma=0.4,
                    B1=lambda u: u / beta, beta=beta)
    sigma = 0.5
    tmax = worst_case_theta(p, sigma)
    x = _pt([1.0, -2.0, 3.0, 0.5])
    cert = fbhf_step(x, p, tmax)
    rep = check_criterion(x, cert, IdentityMetric(), sigma)
    assert rep.rel_slack >= -1e-10
    assert abs(rep.rel_slack) <= 1e-10  # equality endpoint
    cert_hi = fbhf_step(x, p, 1.1 * tmax)
    failed_criterion(x, cert_hi, IdentityMetric(), sigma)


def test_fbhf_certificate_is_an_enlargement_element():
    # with A = 0 the operator is B1 alone; v must satisfy the enlargement
    # inequality <B1(z) - v, z - y> >= -eps against arbitrary probes
    rng = np.random.default_rng(0)
    B = rng.standard_normal((5, 5))
    Q = B @ B.T / 5 + np.eye(5)
    beta = 1.0 / float(np.linalg.eigvalsh(Q)[-1])
    p = FbhfProblem(dim=5, resolvent=lambda g, u: u, gamma=0.4 * beta,
                    B1=lambda u: Q @ u, beta=beta)
    x = _pt(rng.standard_normal(5))
    cert = fbhf_step(x, p, theta=0.0)
    for _ in range(50):
        z = rng.standard_normal(5)
        gap = float(np.dot(Q @ z - cert.v, z - cert.y))
        assert gap >= -cert.eps - 1e-12


def test_fbhf_converges_against_projected_reference():
    # 0 in N_{[0,1]^n}(x) + (x - a) + skew x, compared with a long small-step
    # projected forward iteration
    rng = np.random.default_rng(1)
    n = 5
    a = rng.standard_normal(n) * 2.0
    W = rng.standard_normal((n, n))
    S = 0.5 * (W - W.T)
    L = float(np.linalg.svd(S, compute_uv=False)[0])
    clip = lambda g, u: np.clip(u, 0.0, 1.0)
    sigma = 0.5
    p = FbhfProblem(dim=n, resolvent=clip,
                    gamma=0.2 * min(1.0, sigma / max(L, 1.0)),
                    B1=lambda u: u - a, beta=1.0, B2=lambda u: S @ u, L=L)
    theta = 0.9 * worst_case_theta(p, sigma)
    x = np.zeros(n)
    for _ in range(3000):
        x = extragradient_step(x, fbhf_step(x, p, theta))
    # independent reference: tiny-step projected forward iteration
    ref = np.zeros(n)
    tau = 5e-3
    for _ in range(40_000):
        ref = np.clip(ref - tau * ((ref - a) + S @ ref), 0.0, 1.0)
    assert np.linalg.norm(x - ref) < 1e-5


# ---------------------------------------------------------------------------
# Consensus proximal-gradient splitting
# ---------------------------------------------------------------------------


def test_ppg_single_copy_hand_step():
    # n = 1, r = indicator{0}, f = g = 0: consensus point is 0, the copy prox
    # reflects, and the update contracts z by -theta
    p = PpgProblem(n=1, dim=2, prox_r=ProxFn.constant(np.zeros(2)),
                   prox_g=[ProxFn.zero()], grad_f=[lambda u: np.zeros(2)],
                   L=0.0, alpha=1.0)
    z = _pt([3.0, -1.0])
    cert = ppg_step(z, p, theta=0.25)
    assert np.allclose(cert.v, z)       # v = xc - x+ = 0 - (-z)
    assert np.allclose(cert.y, 0.0)
    assert cert.eps == 0.0
    assert np.allclose(extragradient_step(z, cert), -0.25 * z)


def test_ppg_fixed_point_of_consensus_coding():
    inst = gen_qp(3, p=2, n_i=4, m=2)
    prob, z_ref = ppg_from_qp(inst, sigma=0.5)
    cert = ppg_step(z_ref, prob, theta=0.0)
    assert np.linalg.norm(cert.v) < 1e-9
    assert np.linalg.norm(extragradient_step(z_ref, cert) - z_ref) < 1e-9


def test_ppg_boundary_tightness():
    # one copy with a pure quadratic whose curvature attains L makes the
    # criterion an equality at theta_max
    L = 2.0
    alpha = 0.3
    p = PpgProblem(n=1, dim=3, prox_r=ProxFn.zero(), prox_g=[ProxFn.zero()],
                   grad_f=[lambda u: L * u], L=L, alpha=alpha)
    sigma = 0.75
    tmax = worst_case_theta(p, sigma)
    z = _pt([1.0, -1.0, 2.0])
    cert = ppg_step(z, p, theta=tmax)
    rep = check_criterion(z, cert, IdentityMetric(), sigma)
    assert rep.rel_slack >= -1e-10
    assert abs(rep.rel_slack) <= 1e-10
    cert_hi = ppg_step(z, p, theta=1.1 * tmax)
    failed_criterion(z, cert_hi, IdentityMetric(), sigma)


def test_ppg_solves_a_consensus_lasso():
    # min (1/n) sum_i (1/2)||x - a_i||^2 + (1/n) sum_i lam||x||_1
    # = prox-gradient reference on (1/2)||x - mean a||^2 + lam ||x||_1 + const
    rng = np.random.default_rng(2)
    n, dim, lam = 3, 6, 0.4
    a = [rng.standard_normal(dim) for _ in range(n)]
    p = PpgProblem(n=n, dim=dim, prox_r=ProxFn.zero(),
                   prox_g=[ProxFn.l1(lam)] * n,
                   grad_f=[(lambda u, ai=ai: u - ai) for ai in a],
                   L=1.0, alpha=0.5)
    z = np.zeros(n * dim)
    theta = 0.9 * worst_case_theta(p, 0.5)
    xc_last = None
    for _ in range(4000):
        zs = z.reshape(n, dim)
        xc_last = p.prox_r.evaluate(p.alpha, sum(zs) / n)
        z = extragradient_step(z, ppg_step(z, p, theta))
    from opsplit.prox_problems import prox_l1
    x_star = prox_l1(1.0, lam, sum(a) / n)  # closed form of the aggregate
    assert np.linalg.norm(xc_last - x_star) < 1e-6


# ---------------------------------------------------------------------------
# Condat-Vu
# ---------------------------------------------------------------------------


# Condat-Vu is the primal-dual problem's theta = 2 member, where mu has no
# effect
_condat_vu = functools.partial(PrimalDualProblem, theta=2.0, mu=0.5)


def test_condat_vu_null_problem_is_a_fixed_point():
    # g = 0, dual prox fixed by the Moreau route (h = indicator{0}):
    # every point is its own sweep point and v = 0
    p = _condat_vu(dim_x=2, dim_y=2, prox_g=ProxFn.zero(),
                   prox_h=ProxFn.constant(np.zeros(2)),
                   B=np.zeros((2, 2)), r=1.0, s=1.0)
    z = np.array([1.0, -2.0, 0.5, 3.0])
    cert = condat_vu_step(z, p, theta=0.2)
    assert np.linalg.norm(cert.v) == 0.0
    assert np.allclose(extragradient_step(z, cert), z)


def test_condat_vu_hand_step():
    # f = 0, g = l1(1), h = l1(1) with B = I in R^2, start y = 0
    p = _condat_vu(dim_x=2, dim_y=2, prox_g=ProxFn.l1(1.0),
                   prox_h=ProxFn.l1(1.0), B=np.eye(2), r=2.0, s=2.0)
    x0 = np.array([3.0, -0.5])
    z = np.concatenate([x0, np.zeros(2)])
    cert = condat_vu_step(z, p, theta=0.0)
    # primal prox at step 1/r
    from opsplit.prox_problems import prox_l1
    xt = prox_l1(0.5, 1.0, x0)
    assert np.allclose(cert.y[:2], xt)
    # dual prox of h* via Moreau: with t = 1/s the inner prox runs at step s
    u = (2.0 * xt - x0) / 2.0
    yt = u - 0.5 * prox_l1(2.0, 1.0, u / 0.5)
    assert np.allclose(cert.y[2:], yt)
    # v is the metric image of the displacement
    d = z - cert.y
    assert np.allclose(cert.v, p.metric().apply(d))


def test_condat_vu_metric_solve_inverts_apply():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((3, 4))
    p = _condat_vu(dim_x=4, dim_y=3, prox_g=ProxFn.zero(),
                   prox_h=ProxFn.zero(), B=B, r=6.0, s=6.0)
    M = p.metric()
    # spectral bounds bracket the dense eigenvalues
    dense = np.block([[6.0 * np.eye(4), -B.T], [-B, 6.0 * np.eye(3)]])
    eigs = np.linalg.eigvalsh(dense)
    assert M.omega_lower <= eigs[0] + 1e-9
    assert M.omega_upper >= eigs[-1] - 1e-9


def test_condat_vu_rejects_indefinite_metric():
    B = 2.0 * np.eye(2)
    with pytest.raises(ValueError, match="positive metric"):
        _condat_vu(dim_x=2, dim_y=2, prox_g=ProxFn.zero(),
                   prox_h=ProxFn.zero(), B=B, r=1.0, s=1.0)
    # a NaN or infinite scale is no metric at all
    for r, s in ((np.nan, 30.0), (30.0, np.inf), (np.inf, 30.0)):
        with pytest.raises(ValueError, match="need finite r, s > 0"):
            _condat_vu(dim_x=2, dim_y=2, prox_g=ProxFn.zero(),
                       prox_h=ProxFn.zero(), B=B, r=r, s=s)


def test_condat_vu_takes_a_curvature_margin_just_above_a_quarter_of_L():
    # B = I, s = 1 and L = 4: the margin r - ||B||^2/s is L/4 at r = 2
    def build(r):
        return _condat_vu(dim_x=2, dim_y=2, prox_g=ProxFn.zero(),
                          prox_h=ProxFn.zero(), B=np.eye(2), r=r, s=1.0,
                          L=4.0)

    assert build(np.nextafter(2.0, 3.0)).curvature_margin > 1.0
    with pytest.raises(ValueError, match="positive metric"):
        build(2.0)


@pytest.mark.parametrize("sigma", [0.9, 0.5])
def test_condat_vu_builder_metric_is_the_saddle_matrix(sigma):
    # theta = 2 makes the step shaper S the identity, so M = R S^-1 is R
    # to the last bit
    for seed in range(10):
        inst = gen_qp(seed, p=2, n_i=5, m=3)
        prob = condat_vu_from_qp(inst, sigma)[0]
        nx, ny = prob.dim_x, prob.dim_y
        saddle = np.block([[prob.r * np.eye(nx), -inst.G.T],
                           [-inst.G, prob.s * np.eye(ny)]])
        assert np.array_equal(prob._S, np.eye(nx + ny))
        assert prob.metric().matrix.tobytes() == saddle.tobytes()


def test_condat_vu_boundary_tightness():
    # curvature-attaining smooth part: grad f = L x with B = 0 makes the
    # curvature-margin bound tight up to the dual displacement, which
    # vanishes here
    L = 3.0
    p = _condat_vu(dim_x=3, dim_y=1, prox_g=ProxFn.zero(),
                   prox_h=ProxFn.constant(np.zeros(1)),
                   B=np.zeros((1, 3)), r=4.0, s=1.0,
                   grad_f=lambda u: L * u, L=L)
    sigma = 0.6
    tmax = worst_case_theta(p, sigma)
    z = np.array([1.0, -2.0, 0.5, 0.0])
    cert = condat_vu_step(z, p, theta=tmax)
    rep = check_criterion(z, cert, p.metric(), sigma)
    assert rep.rel_slack >= -1e-10
    assert abs(rep.rel_slack) <= 1e-9
    cert_hi = condat_vu_step(z, p, theta=1.1 * tmax)
    failed_criterion(z, cert_hi, p.metric(), sigma)


def test_condat_vu_solves_total_variation_denoising():
    # min (1/2)||x - a||^2 + lam ||D x||_1, reference via the projected dual
    rng = np.random.default_rng(4)
    n, lam = 10, 0.7
    a = np.cumsum(rng.standard_normal(n))
    D = (np.eye(n - 1, n, k=1) - np.eye(n - 1, n))
    p = _condat_vu(dim_x=n, dim_y=n - 1, prox_g=ProxFn.zero(),
                   prox_h=ProxFn.l1(lam), B=D,
                   r=6.0, s=6.0, grad_f=lambda u: u - a, L=1.0)
    theta = 0.9 * worst_case_theta(p, 0.5)
    z = np.zeros(2 * n - 1)
    for _ in range(4000):
        z = extragradient_step(z, condat_vu_step(z, p, theta))
    # dual reference: x = a - D^T u, u* by projected gradient on the box
    u = np.zeros(n - 1)
    for _ in range(20_000):
        u = np.clip(u + 0.2 * D @ (a - D.T @ u), -lam, lam)
    x_ref = a - D.T @ u
    assert np.linalg.norm(z[:n] - x_ref) < 1e-6


# ---------------------------------------------------------------------------
# Adaptive-step primal-dual
# ---------------------------------------------------------------------------


def test_afbas_theta2_directions_collinear_with_condat_vu():
    # at theta = 2 the step shaper S is the identity, so afbas-pd's update
    # is collinear with the Condat-Vu step on the same problem
    inst = gen_qp(5, p=2, n_i=4, m=2)
    prob, _ = afbas_pd_from_qp(inst, theta=2.0, mu=0.5, lam=1.0)
    rng = np.random.default_rng(6)
    for _ in range(5):
        z = rng.standard_normal(prob.dim_x + prob.dim_y)
        cert_a = afbas_pd_step(z, prob, sigma=0.5)
        cert_c = condat_vu_step(z, prob, theta=0.0)
        assert np.allclose(cert_a.y, cert_c.y, atol=1e-10)
        da = extragradient_step(z, cert_a) - z
        dc = cert_c.y - z
        cross = da - (np.dot(da, dc) / np.dot(dc, dc)) * dc
        assert np.linalg.norm(cross) <= 1e-10 * np.linalg.norm(da)


def test_afbas_reduces_to_proximal_gradient_without_coupling():
    # B = 0, h pinned at 0, theta = 0, lam = 1: the primal update is exactly
    # one proximal-gradient step prox_{gamma1 g}(x - gamma1 grad f(x)) with
    # gamma1 = 1/r
    rng = np.random.default_rng(7)
    n = 4
    a = rng.standard_normal(n)
    L = 1.0
    gamma1 = 0.5 / L
    p = PrimalDualProblem(dim_x=n, dim_y=1, prox_g=ProxFn.l1(0.3),
                          prox_h=ProxFn.constant(np.zeros(1)),
                          B=np.zeros((1, n)), r=1.0 / gamma1, s=1.0,
                          theta=0.0, mu=0.5, lam=1.0,
                          grad_f=lambda u: u - a, L=L)
    x = rng.standard_normal(n)
    z = np.concatenate([x, [0.0]])
    z_next = extragradient_step(z, afbas_pd_step(z, p, sigma=0.5))
    expected = p.prox_g.evaluate(gamma1, x - gamma1 * (x - a))
    assert np.allclose(z_next[:n], expected, atol=1e-12)
    assert np.allclose(z_next[n:], 0.0, atol=1e-12)


def test_afbas_step_at_a_fixed_point_ends_the_run_as_one():
    # B = 0, g = 0 and h the indicator of {0}: the proxes of g and of h's
    # conjugate return their argument, so every point is a fixed point; the
    # step returns None, as the kernel protocol asks, and the run ends with
    # reason fixed_point
    p = PrimalDualProblem(dim_x=2, dim_y=1, prox_g=ProxFn.zero(),
                          prox_h=ProxFn.constant(np.zeros(1)),
                          B=np.zeros((1, 2)), r=1.0, s=1.0, theta=2.0, mu=0.5)
    z = np.array([0.3, -1.2, 0.7])
    assert afbas_pd_step(z, p, sigma=0.5) is None
    res = hpe_core.run(lambda x, M, cfg: afbas_pd_step(x, p, cfg.sigma), z,
                       p.metric(), HpeConfig(max_iters=5))
    assert (res.converged, res.reason, res.iterations) == (True, "fixed_point",
                                                           1)
    assert res.solution.tobytes() == z.tobytes()
    assert len(res.trace) == 0


def _afbas_run(prob, sigma, max_iters):
    """The kernel run of afbas-pd's steps on ``prob`` from 0, to machine
    precision: the steps leave theta to the kernel."""
    return hpe_core.run(lambda z, M, cfg: afbas_pd_step(z, prob, cfg.sigma),
                        np.zeros(prob.dim_x + prob.dim_y), prob.metric(),
                        HpeConfig(sigma=sigma, max_iters=max_iters,
                                  tol_residual=0.0),
                        columns=hpe_core.select(("criterion_slack",)))


def test_afbas_converges_to_reference():
    inst = gen_qp(4, p=2, n_i=5, m=3)
    prob, z_ref = afbas_pd_from_qp(inst)
    res = _afbas_run(prob, 0.5, 800)
    assert np.linalg.norm(res.solution - z_ref) < 1e-6


def test_afbas_step_criterion_each_iteration():
    # the run may reach an exact fixed point, where the step returns None
    # and the kernel stops
    inst = gen_qp(9, p=2, n_i=4, m=2)
    prob, _ = afbas_pd_from_qp(inst)
    slacks = _afbas_run(prob, 0.5, 200).trace.column("criterion_slack")
    assert len(slacks) >= 150
    assert min(slacks) >= -1e-10


def _afbas_iterations(build):
    """(converged, iterations) of afbas-pd built by ``build(inst)`` on the QP
    seeds 0-9 at sigma 0.9."""
    cfg = HpeConfig(sigma=0.9, max_iters=5000, tol_residual=1e-8)
    runs = []
    for seed in range(10):
        prob, ref = build(gen_qp(seed, p=2, n_i=5, m=3))
        res = hpe_core.run(lambda z, M, c: afbas_pd_step(z, prob, c.sigma),
                           np.zeros(ref.size), prob.metric(), cfg)
        runs.append((res.converged, res.iterations))
    return runs


def test_afbas_default_theta_and_lam_take_fewer_iterations():
    # theta = 0.5 at the criterion's cap against theta = 2 and lam = 1 on
    # the sigma = 0.9 QP battery: median iterations 70 against 271
    default = _afbas_iterations(afbas_pd_from_qp)
    fixed = _afbas_iterations(
        lambda inst: afbas_pd_from_qp(inst, theta=2.0, lam=1.0))
    assert all(converged for converged, _ in default + fixed)
    med_default, med_fixed = (np.median([i for _, i in runs])
                              for runs in (default, fixed))
    assert med_default < med_fixed


BOUNDED = ("fbhf", "ppg", "condat-vu")


@pytest.mark.parametrize("scheme", ["condat-vu"])
def test_bounded_builders_leave_theta_share_of_sigma(scheme):
    # Condat-Vu's scales take the rest of sigma's budget: the worst case of
    # its root is THETA_SHARE sigma on every instance and sigma
    for seed in range(10):
        inst = gen_qp(seed, p=2, n_i=5, m=3)
        for sigma in (0.1, 0.5, 0.9, 0.99):
            theta_max = worst_case_theta(SCHEMES[scheme].build(inst, sigma)[0],
                                         sigma)
            assert theta_max == pytest.approx(THETA_SHARE * sigma, rel=1e-12)


def _theta_trace(scheme, seed, sigma, tol, max_iters=5000):
    """The theta and v_norm columns of a kernel run of ``scheme`` on QP
    ``seed``, which converges unless tol is 0."""
    oracle, M0, x0, _ = SCHEMES[scheme].setup(gen_qp(seed, p=2, n_i=5, m=3),
                                              sigma)
    res = hpe_core.run(oracle, x0, M0, HpeConfig(sigma=sigma,
                                                 max_iters=max_iters,
                                                 tol_residual=tol),
                       columns=hpe_core.select(("theta", "v_norm")))
    assert res.converged or tol == 0.0
    return res.trace.column("theta"), res.trace.column("v_norm")


@pytest.mark.parametrize("scheme", ["fbhf", "ppg"])
def test_step_share_keeps_the_root_above_its_floor(scheme):
    # at the step 2 STEP_SHARE (1 + sigma) / L, with M = I and
    # step + (y - x) = 0, the root is at least sigma - STEP_SHARE (1 + sigma)
    # = (1 - STEP_SHARE)(1 + sigma) - 1 > -1 along every direction: at
    # every sigma, down to machine precision in the tol-0 runs
    for sigma in (0.0, 0.5, 0.9, 0.99):
        floor = (1.0 - STEP_SHARE) * (1.0 + sigma) - 1.0
        for seed in range(10):
            thetas, _ = _theta_trace(scheme, seed, sigma, 1e-8)
            assert min(thetas) >= floor - 1e-12, (sigma, seed)
        thetas, v_norms = _theta_trace(scheme, 0, sigma, 0.0, 300)
        assert min(v_norms) <= 1e-14 and min(thetas) >= floor - 1e-12


def test_ppg_v_is_z_minus_y_bit_for_bit():
    # v = z - y keeps step + (y - z) = 0 exactly, so the root reads no
    # rounding of x_c - x_n against z + x_n - x_c
    inst = gen_qp(2, p=2, n_i=5, m=3)
    prob, _ = ppg_from_qp(inst, 0.9)
    z = np.random.default_rng(3).standard_normal(prob.n * prob.dim)
    cert = ppg_step(z, prob)
    assert cert.v.tobytes() == (z - cert.y).tobytes()
    assert cert.step is cert.v and cert.theta is None


_STEPS = {"fbhf": fbhf_step, "ppg": ppg_step, "condat-vu": condat_vu_step}


def _old_scale(problem, sigma):
    """The same problem at the step scale before THETA_SHARE, with the
    Lipschitz eps, and 0.9 times its worst-case theta: fbhf gamma =
    beta sigma, ppg alpha = sigma/L, Condat-Vu r = s = ||B|| + L/sigma + 1."""
    if isinstance(problem, FbhfProblem):
        old = dataclasses.replace(problem, gamma=problem.beta * sigma, Q=None)
    elif isinstance(problem, PpgProblem):
        old = dataclasses.replace(problem, alpha=sigma / problem.L, Q=None)
    else:
        scale = problem.bnorm + problem.L / sigma + 1.0
        old = dataclasses.replace(problem, r=scale, s=scale, Q=None)
    return old, 0.9 * worst_case_theta(old, sigma)


@pytest.mark.parametrize("scheme", BOUNDED)
def test_theta_share_takes_fewer_iterations_than_the_old_scale(scheme):
    # today's steps at the criterion's root (THETA_SHARE's scales for
    # Condat-Vu, STEP_SHARE's for fbhf and ppg) against the scales before
    # THETA_SHARE, at 0.9 of their worst-case theta, on the sigma = 0.9 QP
    # battery: fbhf 410 against 774, ppg 343 against 737, Condat-Vu 787
    # against 1,696 iterations
    cfg = HpeConfig(sigma=0.9, max_iters=5000, tol_residual=1e-8)
    totals = [0, 0]
    for seed in range(10):
        inst = gen_qp(seed, p=2, n_i=5, m=3)
        problem, ref = SCHEMES[scheme].build(inst, 0.9)
        old, theta = _old_scale(problem, 0.9)
        runs = (SCHEMES[scheme].setup(inst, 0.9)[:2],
                (lambda x, M, c: _STEPS[scheme](x, old, theta), old.metric()))
        for i, (oracle, M0) in enumerate(runs):
            res = hpe_core.run(oracle, np.zeros(ref.size), M0, cfg)
            assert res.converged
            totals[i] += res.iterations
    assert totals[0] < totals[1], totals


@pytest.mark.parametrize("builder", [condat_vu_from_qp, afbas_pd_from_qp],
                         ids=["condat-vu", "afbas-pd"])
def test_saddle_build_takes_one_svd_of_G(builder, monkeypatch):
    # the builder's ||G|| for its default scales is the problem's ||B||
    inst = gen_qp(0, p=2, n_i=5, m=3)
    calls, original = count_svds(monkeypatch)
    prob = builder(inst)[0]
    assert calls[0] == 1
    assert prob.bnorm == original(inst.G, compute_uv=False)[0]


def test_afbas_parameter_validation():
    with pytest.raises(ValueError):
        PrimalDualProblem(dim_x=2, dim_y=2, prox_g=ProxFn.zero(),
                          prox_h=ProxFn.zero(), B=np.eye(2), r=0.1, s=0.1,
                          theta=2.0, mu=0.5,
                          L=100.0)  # curvature margin too small


def _fbhf(**fields):
    return FbhfProblem(**dict(dict(dim=2, resolvent=lambda g, u: u,
                                   gamma=1.0), **fields))


def _ppg(**fields):
    return PpgProblem(**dict(dict(n=1, dim=2, prox_r=ProxFn.zero(),
                                  prox_g=[ProxFn.zero()],
                                  grad_f=[lambda u: u], L=1.0, alpha=1.0),
                             **fields))


def _primal_dual(**fields):
    return PrimalDualProblem(**dict(dict(
        dim_x=2, dim_y=1, prox_g=ProxFn.zero(), prox_h=ProxFn.zero(),
        B=np.ones((1, 2)), r=4.0, s=4.0, theta=2.0, mu=0.5), **fields))


@pytest.mark.parametrize("build,fields,message", [
    (_fbhf, {"gamma": math.inf}, "gamma must be finite and positive, got inf"),
    (_fbhf, {"gamma": math.nan}, "gamma must be finite and positive, got nan"),
    (_fbhf, {"gamma": 0.0}, "gamma must be finite and positive, got 0.0"),
    (_fbhf, {"L": math.nan}, "L must be finite and nonnegative, got nan"),
    (_fbhf, {"L": math.inf}, "L must be finite and nonnegative, got inf"),
    (_fbhf, {"B1": lambda u: u, "beta": math.nan},
     "beta must be finite and positive, got nan"),
    (_fbhf, {"B1": lambda u: u, "beta": math.inf},
     "beta must be finite and positive, got inf"),
    (_fbhf, {"B1": lambda u: u},
     "beta must be finite and positive, got None"),
    (_fbhf, {"Q": np.eye(3)}, r"Q must be a \(2, 2\) Hessian, got shape "
                              r"\(3, 3\)"),
    (_ppg, {"L": math.nan}, "L must be finite and nonnegative, got nan"),
    (_ppg, {"alpha": math.inf}, "alpha must be finite and positive, got inf"),
    (_ppg, {"alpha": math.nan}, "alpha must be finite and positive, got nan"),
    (_ppg, {"Q": np.ones(2)}, r"Q must be a \(2, 2\) Hessian, got shape "
                              r"\(2,\)"),
    (_primal_dual, {"Q": np.eye(3)},
     r"Q must be a \(2, 2\) Hessian, got shape \(3, 3\)")],
    ids=["fbhf-gamma-inf", "fbhf-gamma-nan", "fbhf-gamma-zero", "fbhf-L-nan",
         "fbhf-L-inf", "fbhf-beta-nan", "fbhf-beta-inf", "fbhf-beta-none",
         "fbhf-Q-shape", "ppg-L-nan", "ppg-alpha-inf", "ppg-alpha-nan",
         "ppg-Q-shape", "primal-dual-Q-shape"])
def test_splitter_problem_names_a_bad_field(build, fields, message):
    # a non-finite step or curvature used to build a problem whose first
    # step ran on NaN or inf; each field is checked, and named
    with pytest.raises(ValueError, match=message):
        build(**fields)
    build()  # the same problem without the bad field builds


@pytest.mark.parametrize("lam,message", [
    (0.0, "theta = -1.0 is not above -1"),
    (-1.0, "theta = -.* is not above -1"),
    (math.nan, "non-finite theta")], ids=["zero", "negative", "nan"])
def test_afbas_bad_explicit_lam_aborts_at_the_first_step(lam, message):
    # nothing checks lam when the problem is built: an explicit cap at or
    # below 0, or NaN, gives alpha_1 <= 0 or NaN, and the kernel's theta
    # check names it in iteration 1
    prob, ref = afbas_pd_from_qp(gen_qp(0, p=2, n_i=5, m=3), lam=lam)
    with pytest.raises(CriterionViolation,
                       match="iteration 1: " + message) as exc:
        hpe_core.run(lambda z, M, c: afbas_pd_step(z, prob, c.sigma),
                     np.zeros(ref.size), prob.metric(),
                     HpeConfig(sigma=0.9, max_iters=5))
    assert exc.value.result.abort["iteration"] == 1


def _afbas_R_S(B, r, s, theta, c1, c2):
    """afbas-pd's R and its step shaper S with coupling weights c1, c2."""
    ny, nx = B.shape
    R = np.block([[r * np.eye(nx), -B.T],
                  [(1.0 - theta) * B, s * np.eye(ny)]])
    S = np.block([[np.eye(nx), -c1 * B.T], [c2 * B, np.eye(ny)]])
    return R, S


@settings(max_examples=200, deadline=None)
@given(gamma1=st.floats(1e-3, 10, exclude_min=True, exclude_max=True),
       gamma2=st.floats(1e-3, 10, exclude_min=True, exclude_max=True),
       theta=st.floats(0, 4), mu=st.floats(0, 1), L=st.floats(0, 5),
       B=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=5),
                elements=st.floats(-3, 3)))
def test_afbas_metric_is_symmetric_and_positive_by_construction(
        gamma1, gamma2, theta, mu, L, B):
    # S* R = R* S for every parameter set, since c1 r + c2 s = 2 - theta:
    # R S^-1 is symmetric with no check of its own.  Past the constructor's
    # checks, r s + (1 - theta) B*B > 0 follows from the curvature margin,
    # so no R block check is needed.  r = 1/gamma1 and s = 1/gamma2
    r, s = 1.0 / gamma1, 1.0 / gamma2
    c1 = mu * (2.0 - theta) / r
    c2 = (1.0 - mu) * (2.0 - theta) / s
    R, S = _afbas_R_S(B, r, s, theta, c1, c2)
    SR = S.T @ R
    assert np.max(np.abs(SR - R.T @ S)) <= 1e-12 * np.max(np.abs(SR))
    ny, nx = B.shape
    try:
        p = PrimalDualProblem(dim_x=nx, dim_y=ny, prox_g=ProxFn.zero(),
                              prox_h=ProxFn.zero(), B=B, r=r, s=s,
                              theta=theta, mu=mu, L=L)
    except ValueError as exc:
        assert str(exc).startswith("need r - theta^2"), exc
        return
    assert np.array_equal(p._R, R) and np.array_equal(p._S, S)
    assert p.metric().omega_lower > 0
    block = r * s * np.eye(nx) + (1.0 - theta) * (B.T @ B)
    assert np.linalg.eigvalsh(block)[0] > 0


def test_afbas_metric_check_rejects_a_shaper_off_the_identity():
    # S built with mu where 1 - mu belongs breaks S* R = R* S, and the
    # metric's own symmetry check rejects R S^-1
    B = np.array([[1.0, 2.0], [0.5, -1.0]])
    r, s, theta, mu = 2.0, 2.0, 1.0, 0.25
    R, S = _afbas_R_S(B, r, s, theta, mu * (2.0 - theta) / r,
                      mu * (2.0 - theta) / s)
    with pytest.raises(ValueError, match="not symmetric"):
        DenseMetric(R @ np.linalg.inv(S))


# ---------------------------------------------------------------------------
# QP codings through the kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["fbhf", "ppg", "condat-vu", "afbas-pd"])
def test_kernel_correction_is_the_textbook_update(scheme):
    # each step hands over a certificate only; the kernel's correction along
    # its step, at the theta_k it took, must be the scheme's own update,
    # written here from the sweep point y or from S d, never from the step:
    # z + (1 + theta_k)(y - z) for FBHF, PPG and Condat-Vu, z - alpha S d
    # with alpha = 1 + theta_k for afbas-pd.  Each oracle call checks the
    # previous iteration's correction
    inst = gen_qp(1, p=2, n_i=4, m=2)
    sch = SCHEMES[scheme]
    prob, ref = sch.build(inst, 0.5)
    last = []

    def oracle(z, M, cfg):
        if last:
            z_prev, cert = last.pop()
            if scheme == "afbas-pd":
                textbook = z_prev - (1.0 + cert.theta) * (
                    prob._S @ (z_prev - cert.y))
            else:
                textbook = z_prev + (1.0 + cert.theta) * (cert.y - z_prev)
            scale = 1.0 + np.max(np.abs(textbook))
            assert np.max(np.abs(textbook - z)) <= 1e-12 * scale
        cert = sch.step(z, prob, cfg.sigma)
        last.append((z, cert))
        return cert

    res = hpe_core.run(oracle, np.zeros(ref.size), prob.metric(),
                       HpeConfig(sigma=0.5, max_iters=200, tol_residual=0.0))
    # or it ended at an exact fixed point, v = 0
    assert res.iterations == 200 or res.reason in ("fixed_point", "residual")


@pytest.mark.parametrize("scheme", ["fbhf", "ppg", "condat-vu", "afbas-pd"])
def test_qp_codings_reach_reference_through_kernel(scheme):
    inst = gen_qp(0, p=2, n_i=4, m=2)
    sigma = 0.5
    cfg = HpeConfig(sigma=sigma, max_iters=6000, tol_residual=1e-10)
    oracle, M, x0, ref = SCHEMES[scheme].setup(inst, sigma)
    res = hpe_core.run(oracle, x0, M, cfg, ref_solution=ref)
    assert res.converged, scheme
    assert np.linalg.norm(res.solution - ref) < 1e-6, scheme


@pytest.mark.parametrize("seed", range(10))
def test_numpy_eigvalsh_is_bitwise_scipy_on_the_qp_matrices(seed,
                                                            monkeypatch):
    # the QP paths decompose with numpy so that a QP solve loads no scipy;
    # their traces stay bitwise those of scipy only while the two agree bit
    # for bit on every matrix the builders and the schemes' set-up decompose
    import scipy.linalg

    real, seen = np.linalg.eigvalsh, []

    def recording_eigvalsh(a, *args, **kwargs):
        seen.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    inst = gen_qp(seed, p=2, n_i=5, m=3)
    for scheme in SCHEMES.values():
        scheme.setup(inst, 0.5)
    # Q_i, Q and the afbas-pd R block; the Condat-Vu and afbas-pd metrics
    assert sorted({a.shape for a in seen}) == [(5, 5), (10, 10), (13, 13)]
    for a in seen:
        assert np.array_equal(real(a), scipy.linalg.eigvalsh(a))


@pytest.mark.parametrize("theta", [-3.0, -1.0, float("nan")])
@pytest.mark.parametrize("scheme", ["fbhf", "ppg", "condat-vu"])
def test_setup_rejects_theta_at_or_below_minus_one_and_nan(scheme, theta):
    # Scheme.setup takes no theta: a theta is the cap of the run it sets
    # up, and the kernel rejects one at or below -1, or NaN, before the
    # first step
    oracle, M0, x0, _ = SCHEMES[scheme].setup(gen_qp(0), 0.5)
    with pytest.raises(ValueError, match="theta cap must be finite and "
                       "exceed -1, got %r" % theta) as exc:
        hpe_core.run(oracle, x0, M0, HpeConfig(sigma=0.5), theta_cap=theta)
    assert not hasattr(exc.value, "result")


def test_affine_projector_projects():
    rng = np.random.default_rng(8)
    G = rng.standard_normal((2, 5))
    b = rng.standard_normal(2)
    proj = affine_projector(G, b)
    u = rng.standard_normal(5)
    pu = proj(u)
    assert np.allclose(G @ pu, b, atol=1e-10)
    assert np.allclose(proj(pu), pu, atol=1e-10)  # idempotent
    # pu - u lies in range(G^T)
    resid = (pu - u) - G.T @ np.linalg.lstsq(G.T, pu - u, rcond=None)[0]
    assert np.linalg.norm(resid) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200],
                         ids=["nan", "inf", "overflow"])
def test_affine_projector_rejects_a_non_finite_gram_matrix(bad):
    # numpy's Cholesky factor of a NaN matrix is NaN, not an error
    G = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, bad]])
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="not finite"):
        affine_projector(G, np.zeros(2))


def test_affine_projector_rejects_a_rank_deficient_constraint():
    G = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    with pytest.raises(np.linalg.LinAlgError):
        affine_projector(G, np.zeros(2))


def test_affine_projector_without_constraints_is_the_identity():
    u = np.random.default_rng(8).standard_normal(5)
    assert np.array_equal(affine_projector(np.zeros((0, 5)), np.zeros(0))(u),
                          u)


def test_affine_projector_passes_nan_through():
    rng = np.random.default_rng(8)
    proj = affine_projector(rng.standard_normal((2, 5)),
                            rng.standard_normal(2))
    u = rng.standard_normal(5)
    u[0] = np.nan
    assert np.isnan(proj(u)).all()
