"""Multi-block solver internals: sweep, correction operator, step range,
metric update, residual, and ergodic certificates."""

import gc
import tracemalloc

import numpy as np
import pytest

from opsplit import hpe_core
from opsplit.hpe_core import (check_criterion, ErgodicAccumulator,
                              HpeCertificate, HpeConfig,
                              MetricScheduleViolation,
                              make_affine_resolvent_oracle)
from opsplit.linops import (BlockDiagonalMetric, BlockLayout, BlockPoint,
                            IdentityMetric, LinearMap, adjoint_check)
from opsplit.padmm_ebb import (MultiBlockProblem, PadmmConfig, UOperator,
                               bb_metric_update, block_sweep, build_U,
                               ergodic_kkt_certificates,
                               geometric_beta_schedule, pkkt_residual,
                               run_padmm, scalar_majorant_etas, theta_range)
from opsplit.prox_problems import ProxFn, gen_qp

import ergodic_reference
from ergodic_reference import CertificateRecorder, ergodic_aggregate


# ---------------------------------------------------------------------------
# Block sweep
# ---------------------------------------------------------------------------


def _single_block_quadratic(n=5, m=3, seed=0):
    """p = 1, g = 0: the sweep reduces to one linear solve."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    Q = B @ B.T / n + np.eye(n)
    c = rng.standard_normal(n)
    G = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    A = [LinearMap(apply=lambda y: G.T @ y, adjoint_apply=lambda x: G @ x,
                   domain_dim=m, codomain_dim=n)]
    prob = MultiBlockProblem(
        gs=[ProxFn.zero()], grad_f=lambda xs: [Q @ xs[0] + c],
        L=[float(np.linalg.eigvalsh(Q)[-1])], A=A, b=b,
        primal_layout=BlockLayout((n,)))
    return prob, Q, c, G, b


def test_block_sweep_single_block_matches_dense_solve():
    prob, Q, c, G, b = _single_block_quadratic()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5)
    y = rng.standard_normal(3)
    beta = 2.0
    etas = scalar_majorant_etas(prob, beta, prob.constraint_norms())
    x_tilde, y_tilde = block_sweep([x], y, prob, beta, etas)
    # independent route: the majorized subproblem is the linear system
    # eta (x~ - x) + grad f(x) + G^T y + beta G^T (G x - b) = 0
    rhs = etas[0] * x - (Q @ x + c + G.T @ y + beta * G.T @ (G @ x - b))
    assert np.allclose(etas[0] * x_tilde[0], rhs, atol=1e-10)
    # multiplier uses the freshest first block
    assert np.allclose(y_tilde, y + beta * (G @ x_tilde[0] - b), atol=1e-12)


def test_block_sweep_gauss_seidel_ordering():
    # with two blocks the second subproblem must see the updated first block
    inst = gen_qp(0, p=2, n_i=4, m=2)
    prob = inst.problem
    rng = np.random.default_rng(2)
    xs = [rng.standard_normal(4), rng.standard_normal(4)]
    y = rng.standard_normal(2)
    beta = 1.5
    etas = scalar_majorant_etas(prob, beta, prob.constraint_norms())
    grads = prob.grad_f(xs)
    xt, _ = block_sweep(xs, y, prob, beta, etas, grads=grads)
    G1, G2 = inst.G
    r_after_1 = G1 @ xt[0] + G2 @ xs[1] - inst.b
    force2 = grads[1] + G2.T @ y + beta * G2.T @ r_after_1
    assert np.allclose(etas[1] * xt[1], etas[1] * xs[1] - force2, atol=1e-10)


def test_block_sweep_rejects_bad_etas():
    prob, *_ = _single_block_quadratic()
    with pytest.raises(ValueError):
        block_sweep([np.zeros(5)], np.zeros(3), prob, 1.0, [0.0])


# ---------------------------------------------------------------------------
# The correction operator U
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def qp3():
    return gen_qp(7, p=3, n_i=4, m=3)


def test_u_operator_matches_dense_assembly(qp3):
    prob = qp3.problem
    beta = 1.7
    etas = scalar_majorant_etas(prob, beta, prob.constraint_norms())
    U = build_U(prob, beta, etas)
    Ud = U.to_dense()
    lay = prob.full_layout
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = BlockPoint(rng.standard_normal(lay.dim), lay)
        assert np.allclose(U.apply(d).data, Ud @ d.data, atol=1e-10)
        assert np.allclose(U.adjoint_apply(d).data, Ud.T @ d.data, atol=1e-10)
    # block structure: first diagonal block eta_1 I - beta A_1 A_1*
    n0 = lay.sizes[0]
    A1 = prob.A[0].to_dense()
    assert np.allclose(Ud[:n0, :n0], etas[0] * np.eye(n0) - beta * A1 @ A1.T)
    # strict upper primal triangle vanishes
    assert np.allclose(Ud[:n0, n0:lay.offsets[prob.p]], 0.0)


def test_u_operator_as_linear_map_has_true_adjoint(qp3):
    prob = qp3.problem
    etas = scalar_majorant_etas(prob, 1.3, prob.constraint_norms())
    U = build_U(prob, 1.3, etas)
    lay = prob.full_layout
    wrapped = LinearMap(
        apply=lambda v: U.apply(BlockPoint(v, lay)).data,
        adjoint_apply=lambda v: U.adjoint_apply(BlockPoint(v, lay)).data,
        domain_dim=lay.dim, codomain_dim=lay.dim)
    assert adjoint_check(wrapped).ok


def test_u_certificate_is_an_enlargement_of_the_kkt_operator(qp3):
    # defining identity: v = U(z - w) with eps = (1/4) sum L_i ||dx_i||^2
    # must satisfy <T(zeta) - v, zeta - w> >= -eps for the (monotone, single
    # valued) KKT operator of a smooth QP
    inst = qp3
    prob = inst.problem
    beta = 1.0
    etas = scalar_majorant_etas(prob, beta, prob.constraint_norms())
    K, q = inst.kkt_operator()
    rng = np.random.default_rng(4)
    lay = prob.full_layout
    for trial in range(20):
        z = BlockPoint(rng.standard_normal(lay.dim), lay)
        xs, y = prob.split(z)
        x_tilde, y_tilde = block_sweep(xs, y, prob, beta, etas)
        w = prob.join(x_tilde, y_tilde)
        d = z - w
        U = build_U(prob, beta, etas)
        v = U.apply(d)
        eps = sum(0.25 * l * float(np.dot(d.block(i), d.block(i)))
                  for i, l in enumerate(prob.L))
        for _ in range(25):
            zeta = rng.standard_normal(lay.dim) * 3.0
            gap = float(np.dot(K @ zeta - q - v.data, zeta - w.data))
            assert gap >= -eps - 1e-8 * (1.0 + abs(gap))


# ---------------------------------------------------------------------------
# Step-size range
# ---------------------------------------------------------------------------


def test_theta_range_adaptive_endpoint_meets_criterion_with_equality(qp3):
    prob = qp3.problem
    beta = 1.0
    etas = scalar_majorant_etas(prob, beta, prob.constraint_norms())
    lay = prob.full_layout
    inv = [1.0 / e for e in etas] + [beta]
    M = BlockDiagonalMetric.from_inverse_scalars(inv, lay)
    rng = np.random.default_rng(5)
    z = BlockPoint(rng.standard_normal(lay.dim), lay)
    xs, y = prob.split(z)
    xt, yt = block_sweep(xs, y, prob, beta, etas)
    w = prob.join(xt, yt)
    d = z - w
    U = build_U(prob, beta, etas)
    sigma_bar = 0.9
    tr = theta_range(d, U, M, sigma_bar, prob, compute_bar=True)
    eps = sum(0.25 * l * float(np.dot(d.block(i), d.block(i)))
              for i, l in enumerate(prob.L))
    step = BlockPoint(M.solve(U.apply(d).data), lay)
    cert = HpeCertificate(y=w, v=U.apply(d), eps=eps, c=1.0,
                          theta=tr.theta_adap, step=step)
    rep = check_criterion(z, cert, M, sigma_bar)
    assert abs(rep.rel_slack) <= 1e-9        # equality endpoint
    # the direction-independent bound never exceeds the directional one
    assert tr.theta_bar <= tr.theta_adap + 1e-12
    # and itself satisfies the criterion
    cert_bar = HpeCertificate(y=w, v=U.apply(d), eps=eps, c=1.0,
                              theta=tr.theta_bar, step=step)
    assert check_criterion(z, cert_bar, M, sigma_bar).ok
    # anything clearly past the adaptive endpoint fails
    cert_hi = HpeCertificate(y=w, v=U.apply(d), eps=eps, c=1.0,
                             theta=tr.theta_adap + 0.1 * (1 + abs(tr.theta_adap)),
                             step=step)
    assert not check_criterion(z, cert_hi, M, sigma_bar).ok


def test_theta_range_rejects_zero_direction(qp3):
    prob = qp3.problem
    lay = prob.full_layout
    etas = scalar_majorant_etas(prob, 1.0, prob.constraint_norms())
    M = BlockDiagonalMetric.from_inverse_scalars(
        [1.0 / e for e in etas] + [1.0], lay)
    with pytest.raises(ValueError):
        theta_range(BlockPoint.zeros(lay), build_U(prob, 1.0, etas), M,
                    0.9, prob)


# ---------------------------------------------------------------------------
# Metric update
# ---------------------------------------------------------------------------


def test_bb_metric_update_clamps_both_sides():
    xi = 0.01
    prev = [0.9, 0.9, 0.9, 0.9]
    nums = [0.9, 10.0, 1e-4, 1.0]
    dens = [1.0, 1.0, 1.0, 0.0]
    out = bb_metric_update(prev, nums, dens, xi_k=xi, m_floor=1e-8)
    assert out[0] == pytest.approx(0.9)                 # inside the band
    assert out[1] == pytest.approx(0.9 * 1.01)          # clipped above
    assert out[2] == pytest.approx(0.9 / 1.01)          # clipped below
    assert out[3] == pytest.approx(0.9 * 1.01)          # degenerate denominator
    # the floor wins over the relaxed lower clamp
    out2 = bb_metric_update([1e-8], [1e-20], [1.0], xi_k=0.5, m_floor=1e-8)
    assert out2[0] == 1e-8


def test_geometric_beta_schedule_values():
    sched = geometric_beta_schedule(beta0=1e-2, rho=2.0, beta_max=1.0)
    assert sched(0) == pytest.approx(1e-2)
    assert sched(3) == pytest.approx(8e-2)
    assert sched(50) == 1.0  # saturates at the cap


# ---------------------------------------------------------------------------
# KKT residual
# ---------------------------------------------------------------------------


def test_pkkt_residual_vanishes_at_the_reference(qp3):
    inst = qp3
    _, norm = pkkt_residual(inst.x_star, inst.y_star, inst.problem)
    assert norm <= 1e-9
    # and is visibly nonzero elsewhere
    xs = [x + 1.0 for x in inst.x_star]
    _, norm_off = pkkt_residual(xs, inst.y_star, inst.problem)
    assert norm_off > 1e-2


# ---------------------------------------------------------------------------
# Full solver runs
# ---------------------------------------------------------------------------


def test_run_padmm_solves_qps():
    for seed in (0, 1):
        inst = gen_qp(seed, p=2, n_i=5, m=3)
        res = run_padmm(inst.problem, PadmmConfig(max_iters=3000, tol=1e-9))
        assert res.converged and res.reason == "pkkt"
        assert (res.z - inst.z_star).norm() < 1e-7
        assert len(res.trace) == res.iterations
        # every recorded certificate passed the criterion
        assert min(r.criterion_slack for r in res.trace) >= -1e-9


def test_run_padmm_trace_extras_schema():
    inst = gen_qp(2, p=2, n_i=4, m=2)
    res = run_padmm(inst.problem, PadmmConfig(max_iters=50, tol=0.0))
    rec = res.trace[-1]
    for key in ("pkkt", "feas_norm", "objective", "theta_adap", "theta_bar",
                "beta"):
        assert key in rec.extras
    assert rec.extras["beta"] == 1.0
    # pkkt decreases overall across the run
    assert res.trace[-1].extras["pkkt"] < res.trace[0].extras["pkkt"]


def test_run_padmm_theta_fixed_zero_disables_over_relaxation():
    inst = gen_qp(3, p=2, n_i=4, m=2)
    res = run_padmm(inst.problem,
                    PadmmConfig(max_iters=200, tol=0.0, theta_fixed=0.0))
    assert max(abs(r.theta) for r in res.trace) <= 1e-9


def test_run_padmm_starts_from_given_point():
    inst = gen_qp(4, p=2, n_i=4, m=2)
    res = run_padmm(inst.problem, PadmmConfig(max_iters=1, tol=1e-12),
                    z0=inst.z_star)
    # starting at the KKT point terminates immediately
    assert res.converged and res.iterations == 0


def test_run_padmm_aborts_on_infeasible_penalty_warmup():
    # a fast-growing penalty leaves the frozen metric's admissible range, the
    # directional form turns indefinite, and the solver aborts loudly
    inst = gen_qp(5, p=2, n_i=4, m=2)
    cfg = PadmmConfig(beta_schedule=geometric_beta_schedule(1e-4, 3.0, 1e10),
                      max_iters=500, tol=0.0)
    with pytest.raises(RuntimeError):
        run_padmm(inst.problem, cfg)


def test_run_padmm_schedule_floor_catches_shrinking_metric(monkeypatch):
    # a BB update that shrinks the metric 10x leaves the floor
    # min(M_0 scalars) / prod (1 + xi_j) that the clamp guarantees
    from opsplit import padmm_ebb

    def shrink(prev, nums, dens, xi_k, m_floor):
        return [10.0 * s for s in prev]   # inverse scalars, so M / 10

    monkeypatch.setattr(padmm_ebb, "bb_metric_update", shrink)
    inst = gen_qp(0, p=2, n_i=5, m=3)
    # the first BB update follows the first sweep: iteration 2 in the trace
    with pytest.raises(MetricScheduleViolation, match="iteration 2:"):
        run_padmm(inst.problem, PadmmConfig(max_iters=5, tol=0.0))


def test_config_validation():
    with pytest.raises(ValueError):
        PadmmConfig(sigma_bar=1.0)
    with pytest.raises(ValueError):
        PadmmConfig(beta=0.0)
    with pytest.raises(ValueError):
        PadmmConfig(m_floor=0.0)
    for theta in (-1.0, -1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="theta_fixed"):
            PadmmConfig(theta_fixed=theta)


# ---------------------------------------------------------------------------
# Ergodic KKT certificates
# ---------------------------------------------------------------------------


def test_ergodic_kkt_certificates_nonnegative_and_consistent():
    inst = gen_qp(6, p=2, n_i=4, m=2)
    acc, recorder = ErgodicAccumulator(), CertificateRecorder()
    run_padmm(inst.problem, PadmmConfig(max_iters=300, tol=0.0),
              accumulators=[acc, recorder])
    n = len(recorder.certs)
    alpha = np.ones(n)
    x_bar, y_bar, eps_bar = ergodic_kkt_certificates(acc)
    assert len(x_bar) == inst.problem.p
    assert eps_bar.min() >= -1e-12
    # the online sums agree with the two-pass reference, blockwise
    x_ref, y_ref, eps_ref = ergodic_reference.ergodic_kkt_certificates(
        recorder.certs, recorder.eps_blocks, alpha)
    for xb, xr in zip(x_bar, x_ref):
        assert np.allclose(xb, xr, rtol=1e-12, atol=1e-15)
    assert np.allclose(y_bar, y_ref, rtol=1e-12, atol=1e-15)
    scale = np.abs(eps_ref).max()
    assert np.abs(eps_bar - eps_ref).max() <= 1e-12 * scale
    # dual route: the blockwise budgets sum to the ergodic eps of the
    # primal-restricted certificates (c and theta folded into the weights)
    lay_primal = inst.problem.primal_layout
    restricted = []
    for c, eb in zip(recorder.certs, recorder.eps_blocks):
        data_y = np.concatenate([c.y.block(i) for i in range(inst.problem.p)])
        data_v = np.concatenate([c.v.block(i) for i in range(inst.problem.p)])
        restricted.append(HpeCertificate(
            y=BlockPoint(data_y, lay_primal), v=BlockPoint(data_v, lay_primal),
            eps=float(eb.sum()), c=1.0, theta=c.theta))
    _, _, eps_total = ergodic_aggregate(restricted, alpha)
    assert eps_bar.sum() == pytest.approx(eps_total, rel=1e-10, abs=1e-12)
    # averaged primal point inherits near-feasibility late in the run
    feas = inst.problem.feasibility(x_bar)
    assert np.linalg.norm(feas) < 1.0


def test_ergodic_kkt_certificates_requires_certs():
    inst = gen_qp(0, p=2, n_i=4, m=2)
    with pytest.raises(ValueError, match="no certificates"):
        ergodic_kkt_certificates(ErgodicAccumulator())
    # hpe_core.run hands over no per-block eps, so its accumulator cannot
    # split eps by block
    Q = np.eye(inst.problem.full_layout.dim)
    acc = ErgodicAccumulator()
    hpe_core.run(make_affine_resolvent_oracle(Q),
                 BlockPoint(np.ones(Q.shape[0]), inst.problem.full_layout),
                 IdentityMetric(), HpeConfig(max_iters=5, tol_residual=0.0),
                 accumulators=[acc])
    assert len(acc) == 5
    with pytest.raises(ValueError, match="per-block"):
        ergodic_kkt_certificates(acc)


def _bytes_held_by_run(problem, iters):
    """Bytes still allocated after run_padmm returns, result and accumulator
    alive."""
    acc = ErgodicAccumulator()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run_padmm(problem, PadmmConfig(max_iters=iters, tol=0.0),
                        accumulators=[acc])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.iterations == len(acc) == iters
    return held


def test_retained_memory_does_not_grow_with_iterations():
    from opsplit.cli import build_problem, parse_descriptor

    _, inst = build_problem(parse_descriptor("lrr:seed=0,d=20,n=20"))
    vector_bytes = 8 * inst.problem.full_layout.dim
    growth = (_bytes_held_by_run(inst.problem, 120)
              - _bytes_held_by_run(inst.problem, 40)) / 80.0
    # a trace row of scalars and two floats per accumulator, not vectors
    assert growth < 0.1 * vector_bytes
