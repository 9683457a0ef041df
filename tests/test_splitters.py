"""Oracle-level checks for the four splitting schemes.

Each scheme is exercised three ways: hand-computed single steps, boundary
tightness of the admissible over-relaxation, and convergence to an
independently computed reference solution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from opsplit import hpe_core
from opsplit.hpe_core import HpeConfig, check_criterion, extragradient_step
from opsplit.linops import DenseMetric, IdentityMetric
from opsplit.prox_problems import ProxFn, gen_qp
from opsplit.splitters import (SCHEMES, AfbasPdProblem, CondatVuProblem,
                               FbhfProblem, PpgProblem, afbas_pd_from_qp,
                               afbas_pd_step, affine_projector,
                               condat_vu_from_qp, condat_vu_max_theta,
                               condat_vu_step, fbhf_max_theta, fbhf_step,
                               ppg_from_qp, ppg_max_theta, ppg_step)

from support import count_svds, failed_criterion


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
    tmax = fbhf_max_theta(p, sigma)
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
    theta = 0.9 * fbhf_max_theta(p, sigma)
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
    prob, tmax, z_ref = ppg_from_qp(inst, sigma=0.5)
    cert = ppg_step(z_ref, prob, theta=0.5 * tmax)
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
    tmax = ppg_max_theta(p, sigma)
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
    theta = 0.9 * ppg_max_theta(p, 0.5)
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


def test_condat_vu_null_problem_is_a_fixed_point():
    # g = 0, dual prox fixed by the Moreau route (h = indicator{0}):
    # every point is its own sweep point and v = 0
    p = CondatVuProblem(dim_x=2, dim_y=2, prox_g=ProxFn.zero(),
                        prox_h=ProxFn.constant(np.zeros(2)),
                        B=np.zeros((2, 2)), r=1.0, s=1.0)
    z = np.array([1.0, -2.0, 0.5, 3.0])
    cert = condat_vu_step(z, p, theta=0.2)
    assert np.linalg.norm(cert.v) == 0.0
    assert np.allclose(extragradient_step(z, cert), z)


def test_condat_vu_hand_step():
    # f = 0, g = l1(1), h = l1(1) with B = I in R^2, start y = 0
    p = CondatVuProblem(dim_x=2, dim_y=2, prox_g=ProxFn.l1(1.0),
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
    p = CondatVuProblem(dim_x=4, dim_y=3, prox_g=ProxFn.zero(),
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
        CondatVuProblem(dim_x=2, dim_y=2, prox_g=ProxFn.zero(),
                        prox_h=ProxFn.zero(), B=B, r=1.0, s=1.0)
    # a NaN or infinite scale is no metric at all
    for r, s in ((np.nan, 30.0), (30.0, np.inf), (np.inf, 30.0)):
        with pytest.raises(ValueError, match="need finite r, s > 0"):
            CondatVuProblem(dim_x=2, dim_y=2, prox_g=ProxFn.zero(),
                            prox_h=ProxFn.zero(), B=B, r=r, s=s)


def test_condat_vu_boundary_tightness():
    # curvature-attaining smooth part: grad f = L x with B = 0 makes the
    # primal-gap bound tight up to the dual displacement, which vanishes here
    L = 3.0
    p = CondatVuProblem(dim_x=3, dim_y=1, prox_g=ProxFn.zero(),
                        prox_h=ProxFn.constant(np.zeros(1)),
                        B=np.zeros((1, 3)), r=4.0, s=1.0,
                        grad_f=lambda u: L * u, L=L)
    sigma = 0.6
    tmax = condat_vu_max_theta(p, sigma)
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
    p = CondatVuProblem(dim_x=n, dim_y=n - 1, prox_g=ProxFn.zero(),
                        prox_h=ProxFn.l1(lam), B=D,
                        r=6.0, s=6.0, grad_f=lambda u: u - a, L=1.0)
    theta = 0.9 * condat_vu_max_theta(p, 0.5)
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
    # at theta = 2 the step shaper S is the identity and the sweep point
    # coincides with a Condat-Vu sweep at r = 1/gamma1, s = 1/gamma2, so the
    # update directions are collinear
    inst = gen_qp(5, p=2, n_i=4, m=2)
    prob_a, _, _ = afbas_pd_from_qp(inst, theta=2.0, mu=0.5, lam=1.0)
    prob_c, _, _ = condat_vu_from_qp(inst, sigma=0.5,
                                     r=1.0 / prob_a.gamma1,
                                     s=1.0 / prob_a.gamma2)
    rng = np.random.default_rng(6)
    for _ in range(5):
        z = rng.standard_normal(prob_a.dim_x + prob_a.dim_y)
        cert_a = afbas_pd_step(z, prob_a, sigma=0.5)
        cert_c = condat_vu_step(z, prob_c, theta=0.0)
        assert np.allclose(cert_a.y, cert_c.y, atol=1e-10)
        da = extragradient_step(z, cert_a) - z
        dc = cert_c.y - z
        cross = da - (np.dot(da, dc) / np.dot(dc, dc)) * dc
        assert np.linalg.norm(cross) <= 1e-10 * np.linalg.norm(da)


def test_afbas_reduces_to_proximal_gradient_without_coupling():
    # B = 0, h pinned at 0, theta = 0, lam = 1: the primal update is exactly
    # one proximal-gradient step prox_{gamma1 g}(x - gamma1 grad f(x))
    rng = np.random.default_rng(7)
    n = 4
    a = rng.standard_normal(n)
    L = 1.0
    gamma1 = 0.5 / L
    p = AfbasPdProblem(dim_x=n, dim_y=1, prox_g=ProxFn.l1(0.3),
                       prox_h=ProxFn.constant(np.zeros(1)),
                       B=np.zeros((1, n)),
                       gamma1=gamma1, gamma2=1.0, theta=0.0, mu=0.5, lam=1.0,
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
    p = AfbasPdProblem(dim_x=2, dim_y=1, prox_g=ProxFn.zero(),
                       prox_h=ProxFn.constant(np.zeros(1)), B=np.zeros((1, 2)),
                       gamma1=1.0, gamma2=1.0)
    z = np.array([0.3, -1.2, 0.7])
    assert afbas_pd_step(z, p, sigma=0.5) is None
    res = hpe_core.run(lambda x, M, cfg: afbas_pd_step(x, p, cfg.sigma), z,
                       p.metric(), HpeConfig(max_iters=5))
    assert (res.converged, res.reason, res.iterations) == (True, "fixed_point",
                                                           1)
    assert res.solution.tobytes() == z.tobytes()
    assert len(res.trace) == 0


def test_afbas_converges_to_reference():
    inst = gen_qp(4, p=2, n_i=5, m=3)
    prob, _, z_ref = afbas_pd_from_qp(inst)
    z = np.zeros(z_ref.size)
    for _ in range(800):
        z = extragradient_step(z, afbas_pd_step(z, prob, sigma=0.5))
    assert np.linalg.norm(z - z_ref) < 1e-6


def test_afbas_step_criterion_each_iteration():
    inst = gen_qp(9, p=2, n_i=4, m=2)
    prob, _, _ = afbas_pd_from_qp(inst)
    M = prob.metric()
    z = np.zeros(prob.dim_x + prob.dim_y)
    for _ in range(200):
        cert = afbas_pd_step(z, prob, sigma=0.5)
        rep = check_criterion(z, cert, M, 0.5)
        assert rep.rel_slack >= -1e-10
        z = extragradient_step(z, cert)


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
    B = np.eye(2)
    with pytest.raises(ValueError):
        AfbasPdProblem(dim_x=2, dim_y=2, prox_g=ProxFn.zero(),
                       prox_h=ProxFn.zero(), B=B, gamma1=10.0, gamma2=10.0,
                       theta=2.0, L=100.0)  # curvature margin too small
    with pytest.raises(ValueError):
        AfbasPdProblem(dim_x=2, dim_y=2, prox_g=ProxFn.zero(),
                       prox_h=ProxFn.zero(), B=B, gamma1=0.1, gamma2=0.1,
                       theta=2.0, lam=5.0)  # lam outside (0, delta)


def _afbas_R_S(B, gamma1, gamma2, theta, c1, c2):
    """afbas-pd's R and its step shaper S with coupling weights c1, c2."""
    ny, nx = B.shape
    R = np.block([[np.eye(nx) / gamma1, -B.T],
                  [(1.0 - theta) * B, np.eye(ny) / gamma2]])
    S = np.block([[np.eye(nx), -c1 * B.T], [c2 * B, np.eye(ny)]])
    return R, S


@settings(max_examples=200, deadline=None)
@given(gamma1=st.floats(1e-3, 10, exclude_min=True, exclude_max=True),
       gamma2=st.floats(1e-3, 10, exclude_min=True, exclude_max=True),
       theta=st.floats(0, 4), mu=st.floats(0, 1), L=st.floats(0, 5),
       lam=st.floats(0, 2, exclude_min=True, exclude_max=True),
       B=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=5),
                elements=st.floats(-3, 3)))
def test_afbas_metric_is_symmetric_and_positive_by_construction(
        gamma1, gamma2, theta, mu, L, lam, B):
    # S* R = R* S for every parameter set, since c1/gamma1 + c2/gamma2 =
    # 2 - theta: R S^-1 is symmetric with no check of its own.  Past the
    # constructor's two checks, 1/(gamma1 gamma2) + (1 - theta) B*B > 0
    # follows from the curvature margin, so no R block check is needed
    c1 = mu * gamma1 * (2.0 - theta)
    c2 = gamma2 * (1.0 - mu) * (2.0 - theta)
    R, S = _afbas_R_S(B, gamma1, gamma2, theta, c1, c2)
    SR = S.T @ R
    assert np.max(np.abs(SR - R.T @ S)) <= 1e-12 * np.max(np.abs(SR))
    ny, nx = B.shape
    try:
        p = AfbasPdProblem(dim_x=nx, dim_y=ny, prox_g=ProxFn.zero(),
                           prox_h=ProxFn.zero(), B=B, gamma1=gamma1,
                           gamma2=gamma2, theta=theta, mu=mu, lam=lam, L=L)
    except ValueError as exc:
        assert str(exc).startswith(("need 1/gamma1", "lam must lie")), exc
        return
    assert np.array_equal(p._R, R) and np.array_equal(p._S, S)
    assert p.metric().omega_lower > 0
    block = np.eye(nx) / (gamma1 * gamma2) + (1.0 - theta) * (B.T @ B)
    assert np.linalg.eigvalsh(block)[0] > 0


def test_afbas_metric_check_rejects_a_shaper_off_the_identity():
    # S built with mu where 1 - mu belongs breaks S* R = R* S, and the
    # metric's own symmetry check rejects R S^-1
    B = np.array([[1.0, 2.0], [0.5, -1.0]])
    gamma1, gamma2, theta, mu = 0.5, 0.5, 1.0, 0.25
    R, S = _afbas_R_S(B, gamma1, gamma2, theta, mu * gamma1 * (2.0 - theta),
                      gamma2 * mu * (2.0 - theta))
    with pytest.raises(ValueError, match="not symmetric"):
        DenseMetric(R @ np.linalg.inv(S))


# ---------------------------------------------------------------------------
# QP codings through the kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["fbhf", "ppg", "condat-vu", "afbas-pd"])
def test_kernel_correction_is_the_textbook_update(scheme):
    # each step hands over a certificate only; the kernel's correction along
    # its step must be the scheme's own update, written here from the sweep
    # point y or from S d, never from the step: z + (1 + theta)(y - z) for
    # FBHF, PPG and Condat-Vu, z - alpha S d with alpha = 1 + theta_k for
    # afbas-pd
    inst = gen_qp(1, p=2, n_i=4, m=2)
    sch = SCHEMES[scheme]
    prob, tmax, ref = sch.build(inst, 0.5)
    theta = None if tmax is None else 0.9 * tmax
    M = prob.metric()
    z = np.zeros(ref.size)
    for k in range(1, 201):
        cert = sch.step(z, prob, theta, 0.5)
        hpe_core.check_criterion(z, cert, M, 0.5)  # verifies M step = c v
        if scheme == "afbas-pd":
            textbook = z - (1.0 + cert.theta) * (prob._S @ (z - cert.y))
        else:
            textbook = z + (1.0 + theta) * (cert.y - z)
        z = extragradient_step(z, cert)
        scale = 1.0 + np.max(np.abs(textbook))
        assert np.max(np.abs(textbook - z)) <= 1e-12 * scale, k


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
    # each passes the bound theta <= theta_max: a NaN compares false, and
    # theta <= -1 lies below every theta_max
    with pytest.raises(ValueError, match="theta must exceed -1, got %r"
                       % theta):
        SCHEMES[scheme].setup(gen_qp(0), 0.5, theta)


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
