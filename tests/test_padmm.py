"""Multi-block solver internals: sweep, correction operator, step range,
metric update, residual, and the ergodic pair of a run."""

import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from opsplit import padmm_ebb
from opsplit.cli import build_problem, main, parse_descriptor
from opsplit.hpe_core import (CertificateRecorder, check_criterion,
                              CriterionViolation, ErgodicAccumulator,
                              HpeCertificate, HpeConfig,
                              MetricScheduleViolation, ergodic_aggregate)
from opsplit.linops import BlockDiagonalMetric, LinearMap, norm
from opsplit.padmm_ebb import (MultiBlockProblem, UOperator,
                               bb_metric_update, block_sweep, pkkt_residual,
                               rule_beta, run_padmm, scalar_majorant_etas,
                               theta_range)
from opsplit.prox_problems import ProxFn, gen_qp

from dense_diagnostics import dense_theta_bar, u_dense
from support import count_svds, failed_criterion, kkt_operator, to_dense


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
        L=[float(np.linalg.eigvalsh(Q)[-1])], A=A, b=b)
    return prob, Q, c, G, b


def test_the_primal_layout_comes_from_the_maps():
    m = 2
    A = [LinearMap(apply=lambda y, n=n: np.zeros(n),
                   adjoint_apply=lambda x: np.zeros(m),
                   domain_dim=m, codomain_dim=n) for n in (3, 1)]

    def problem(b):
        return MultiBlockProblem(gs=[ProxFn.zero()] * 2, grad_f=list,
                                 L=[0.0, 0.0], A=A, b=b)

    prob = problem(np.zeros(m))
    assert prob.p == 2 and prob.primal_layout.sizes == (3, 1)
    assert prob.full_layout.sizes == (3, 1, m)
    with pytest.raises(ValueError, match="constraint map 0 has wrong dim"):
        problem(np.zeros(m + 1))


def test_block_sweep_single_block_matches_dense_solve():
    prob, Q, c, G, b = _single_block_quadratic()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5)
    y = rng.standard_normal(3)
    beta = 2.0
    etas = scalar_majorant_etas(prob, beta, prob.constraint_norms())
    x_tilde, y_tilde, _ = block_sweep([x], y, prob, beta, etas)
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
    xt, _, _ = block_sweep(xs, y, prob, beta, etas, grads=grads)
    G1, G2 = inst.G[:, :4], inst.G[:, 4:]
    r_after_1 = G1 @ xt[0] + G2 @ xs[1] - inst.b
    force2 = grads[1] + G2.T @ y + beta * G2.T @ r_after_1
    assert np.allclose(etas[1] * xt[1], etas[1] * xs[1] - force2, atol=1e-10)


def test_block_sweep_rejects_bad_etas():
    prob, *_ = _single_block_quadratic()
    with pytest.raises(ValueError):
        block_sweep([np.zeros(5)], np.zeros(3), prob, 1.0, [0.0])


def _lrr(descriptor="lrr:seed=0,d=20,n=20"):
    from opsplit.cli import build_problem, parse_descriptor

    return build_problem(parse_descriptor(descriptor))[1]


@pytest.mark.parametrize("which", ["qp", "lrr-origin", "lrr"])
def test_block_sweep_with_pkkt_feas_is_bitwise_equal(which):
    # the dual block of the pKKT residual is the feasibility residual; the
    # sweep started from it matches the sweep that computes it, bit for bit,
    # adjoint images included
    prob = gen_qp(3, p=3, n_i=4, m=3).problem if which == "qp" \
        else _lrr("lrr:seed=1,d=6,n=5").problem
    rng = np.random.default_rng(4)
    z = (np.zeros(prob.full_layout.dim) if which == "lrr-origin"
         else rng.standard_normal(prob.full_layout.dim))
    xs, y = prob.split(z)
    grads = prob.grad_f(xs)
    feas, _ = pkkt_residual(xs, y, prob, grads=grads)
    etas = scalar_majorant_etas(prob, 2.0, prob.constraint_norms())
    plain = block_sweep(xs, y, prob, 2.0, etas, grads=grads)
    shared = block_sweep(xs, y, prob, 2.0, etas, grads=grads, feas=feas)
    assert len(plain[2]) == len(shared[2]) == prob.p
    for a, b in zip(plain[0] + [plain[1]] + plain[2],
                    shared[0] + [shared[1]] + shared[2]):
        assert a.tobytes() == b.tobytes()


def _map_applies_of_run(monkeypatch, iters):
    """(A_i* applies, A_i applies, p) of a run of ``iters`` iterations."""
    prob = gen_qp(0, p=3, n_i=4, m=3).problem
    counts = {"adjoint_apply": 0, "apply": 0}
    for a in prob.A:
        for name in counts:
            def counted(x, _original=getattr(a, name), _name=name):
                counts[_name] += 1
                return _original(x)
            monkeypatch.setattr(a, name, counted)
    sweeps = [0]
    real_sweep = padmm_ebb.block_sweep

    def counted_sweep(*args, **kwargs):
        sweeps[0] += 1
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(padmm_ebb, "block_sweep", counted_sweep)
    res = run_padmm(prob, HpeConfig(sigma=0.9, max_iters=iters,
                                    tol_residual=0.0))
    assert res.iterations == sweeps[0] == iters
    return counts["adjoint_apply"], counts["apply"], prob.p


def test_the_hooks_hold_no_constraint_images_after_the_oracle(monkeypatch):
    # the sweep reads the stop test's images A_i y; no later hook does
    real_oracle = padmm_ebb._Iteration.oracle
    held = []

    def oracle(self, *args):
        before = len(self.Ay)
        cert = real_oracle(self, *args)
        held.append((before, self.Ay))
        return cert

    monkeypatch.setattr(padmm_ebb._Iteration, "oracle", oracle)
    prob = gen_qp(0, p=3, n_i=4, m=3).problem
    run_padmm(prob, HpeConfig(sigma=0.9, max_iters=20, tol_residual=0.0))
    assert held == [(prob.p, None)] * 20


def test_each_iteration_makes_one_feasibility_pass(monkeypatch):
    # the difference of two runs drops the one-off norm estimates and the
    # terminal residual
    short, short_fwd, p = _map_applies_of_run(monkeypatch, 30)
    long, long_fwd, _ = _map_applies_of_run(monkeypatch, 60)
    # per iteration: one feasibility pass (in the pKKT residual) and the
    # sweep's p block updates, whose images U reuses
    assert (long - short) / 30 == 2 * p
    # and the stop test's p images A_i y, which the pKKT rows and the sweep
    # share, the sweep's p images A_i r and U's p
    assert (long_fwd - short_fwd) / 30 == 3 * p


def test_lrr_iteration_skips_objective_svds_while_infeasible(monkeypatch):
    prob = _lrr().problem
    calls, _ = count_svds(monkeypatch)
    cfg = HpeConfig(sigma=0.9, max_iters=10, tol_residual=0.0)
    res = run_padmm(prob, cfg, beta=300.0)
    assert res.iterations == 10
    assert "objective" not in res.trace.columns
    # two nuclear proxes in the sweep; the stop test is decided by the rows
    # before the nuclear-norm blocks, and the terminal residual adds two
    assert calls[0] == 2 * res.iterations + 2
    calls[0] = 0
    res = run_padmm(prob, cfg, beta=300.0, columns=padmm_ebb.DEFAULT_COLUMNS
                    + padmm_ebb.OPT_IN_COLUMNS)
    objectives = res.trace.column("objective")
    # the start, z = 0, is feasible; every later iterate breaks Z >= 0
    assert objectives[0] == 0.0 and all(o == math.inf for o in objectives[1:])
    # the pkkt column takes every row: two more nuclear proxes per iteration;
    # the objective column's two nuclear norms run on the feasible row only
    assert calls[0] == 4 * res.iterations + 2 + 2


def test_objective_stops_at_the_first_infinite_term():
    base = gen_qp(0, p=3, n_i=4, m=3).problem
    seen = []

    def spy(i):
        def value(v):
            seen.append(i)
            return 1.0
        return ProxFn(lambda t, v: v, value, name="spy%d" % i)

    prob = dataclasses.replace(base, gs=[spy(0), ProxFn.nonneg(), spy(2)])
    xs = [np.ones(4), np.ones(4), np.ones(4)]
    assert prob.objective(xs) == base.f_value(xs) + 2.0
    assert seen == [0, 2]
    seen.clear()
    xs[1][0] = -1.0
    assert prob.objective(xs) == math.inf
    assert seen == [0]
    seen.clear()
    inf_f = dataclasses.replace(prob, f_value=lambda xs: math.inf)
    assert inf_f.objective(xs) == math.inf
    assert seen == []


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
    U = UOperator(prob, beta, etas)
    Ud = u_dense(U)
    lay = prob.full_layout
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = rng.standard_normal(lay.dim)
        assert np.allclose(U.apply(d), Ud @ d, atol=1e-10)
    # block structure: first diagonal block eta_1 I - beta A_1 A_1*
    n0 = lay.sizes[0]
    A1 = to_dense(prob.A[0])
    assert np.allclose(Ud[:n0, :n0], etas[0] * np.eye(n0) - beta * A1 @ A1.T)
    # strict upper primal triangle vanishes
    assert np.allclose(Ud[:n0, n0:lay.offsets[prob.p]], 0.0)


def _gamma_least_eigenvalue(descriptor, sigma, beta=None):
    """lambda_min(M^-1/2 Gamma M^-1/2), Gamma = U + U* - (1 - sigma) M - D/2,
    at padmm-ebb's start metric and ``beta`` (the rule's when None)."""
    _, inst = build_problem(parse_descriptor(descriptor))
    prob = inst.problem
    it = padmm_ebb._Iteration(prob, HpeConfig(sigma=sigma),
                              rule_beta(prob) if beta is None else beta,
                              None, ())
    M = it.metric()
    m = np.repeat(np.asarray(M.scalars), M.layout.sizes)
    Ud = u_dense(it.U)
    gamma = Ud + Ud.T - np.diag((1.0 - sigma) * m + 0.5 * prob.d_weights)
    scale = 1.0 / np.sqrt(m)
    return np.linalg.eigvalsh(scale[:, None] * gamma * scale)[0]


QP_SEEDS = tuple("qp:seed=%d,p=2,n=5,m=3" % seed for seed in range(10))
SINGLE_COLUMN = ("lrr:seed=0,d=3,n=1", "lrr:seed=1,d=3,n=1",
                 "lrr:seed=2,d=8,n=1")


@pytest.mark.parametrize("descriptor", QP_SEEDS + SINGLE_COLUMN)
def test_gamma_is_positive_definite_at_the_default_sigma(descriptor):
    # at beta = 1.  At sigma = 0.5 the least eigenvalue is -0.032 on qp
    # seed 1, -0.074 on seed 8 and -0.228 on the single-column LRR
    # instances, which then abort on a non-positive directional form
    assert _gamma_least_eigenvalue(descriptor, HpeConfig().sigma, 1.0) > 0.0


@pytest.mark.parametrize("descriptor, sigma", [
    *((d, s) for d in QP_SEEDS for s in (0.5, 0.9)),
    *((d, 0.9) for d in SINGLE_COLUMN + ("lrr:seed=0,d=6,n=6",))])
def test_gamma_is_positive_definite_at_the_rule_beta(descriptor, sigma):
    # the rule's beta (0.11-0.24 on the qp seeds, 1 where L_Z = 0 on one
    # column) also makes the qp seeds 1 and 8 positive at sigma = 0.5
    assert _gamma_least_eigenvalue(descriptor, sigma) > 0.0


def test_u_certificate_is_an_enlargement_of_the_kkt_operator(qp3):
    # defining identity: v = U(z - w) with eps = (1/4) sum L_i ||dx_i||^2
    # must satisfy <T(zeta) - v, zeta - w> >= -eps for the (monotone, single
    # valued) KKT operator of a smooth QP
    inst = qp3
    prob = inst.problem
    beta = 1.0
    etas = scalar_majorant_etas(prob, beta, prob.constraint_norms())
    K, q = kkt_operator(inst)
    rng = np.random.default_rng(4)
    lay = prob.full_layout
    for trial in range(20):
        z = rng.standard_normal(lay.dim)
        xs, y = prob.split(z)
        x_tilde, y_tilde, _ = block_sweep(xs, y, prob, beta, etas)
        w = prob.join(x_tilde, y_tilde)
        d = z - w
        U = UOperator(prob, beta, etas)
        v = U.apply(d)
        eps = sum(0.25 * l * float(np.dot(db, db))
                  for l, db in zip(prob.L, lay.split(d)))
        for _ in range(25):
            zeta = rng.standard_normal(lay.dim) * 3.0
            gap = float(np.dot(K @ zeta - q - v, zeta - w))
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
    z = rng.standard_normal(lay.dim)
    xs, y = prob.split(z)
    xt, yt, images = block_sweep(xs, y, prob, beta, etas)
    w = prob.join(xt, yt)
    d = z - w
    U = UOperator(prob, beta, etas)
    sigma_bar = 0.9
    eps = sum(0.25 * l * float(np.dot(db, db))
              for l, db in zip(prob.L, lay.split(d)))
    theta_adap, Ud, step_range = theta_range(d, U, M, sigma_bar, eps, images)
    theta_bar = dense_theta_bar(theta_adap, U, M, sigma_bar, prob)
    step = M.solve(U.apply(d))
    # the returned certificate pair is U d and M^-1 U d, the sweep's images
    # standing in for U's own adjoint applies bit for bit
    assert Ud.tobytes() == U.apply(d).tobytes()
    assert step_range.tobytes() == step.tobytes()
    cert = HpeCertificate(y=w, v=U.apply(d), eps=eps, c=1.0,
                          theta=theta_adap, step=step)
    rep = check_criterion(z, cert, M, sigma_bar)
    assert abs(rep.rel_slack) <= 1e-9        # equality endpoint
    # the direction-independent bound never exceeds the directional one
    assert theta_bar <= theta_adap + 1e-12
    # and itself satisfies the criterion
    cert_bar = HpeCertificate(y=w, v=U.apply(d), eps=eps, c=1.0,
                              theta=theta_bar, step=step)
    check_criterion(z, cert_bar, M, sigma_bar)
    # anything clearly past the adaptive endpoint fails
    cert_hi = HpeCertificate(y=w, v=U.apply(d), eps=eps, c=1.0,
                             theta=theta_adap + 0.1 * (1 + abs(theta_adap)),
                             step=step)
    failed_criterion(z, cert_hi, M, sigma_bar)


def test_theta_range_rejects_zero_direction(qp3):
    # the oracle ends the run at a fixed point before d = 0 reaches the step
    # range; should one reach it, the U* M^-1 U form is 0 and degenerate
    prob = qp3.problem
    lay = prob.full_layout
    etas = scalar_majorant_etas(prob, 1.0, prob.constraint_norms())
    M = BlockDiagonalMetric.from_inverse_scalars(
        [1.0 / e for e in etas] + [1.0], lay)
    with pytest.raises(CriterionViolation,
                       match=r"degenerate U\*M\^-1U form .*denom_form="
                             r"0\.000000e\+00"):
        theta_range(np.zeros(lay.dim), UOperator(prob, 1.0, etas), M,
                    0.9, 0.0)


# ---------------------------------------------------------------------------
# Metric update
# ---------------------------------------------------------------------------


def test_bb_metric_update_clamps_both_sides():
    xi = 0.01
    prev = [0.9, 0.9, 0.9, 0.9]
    nums = [0.9, 10.0, 1e-4, 1.0]
    dens = [1.0, 1.0, 1.0, 0.0]
    out = bb_metric_update(prev, nums, dens, xi_k=xi)
    assert out[0] == pytest.approx(0.9)                 # inside the band
    assert out[1] == pytest.approx(0.9 * 1.01)          # clipped above
    assert out[2] == pytest.approx(0.9 / 1.01)          # clipped below
    assert out[3] == pytest.approx(0.9 * 1.01)          # degenerate denominator
    # the floor wins over the relaxed lower clamp
    out2 = bb_metric_update([1e-8], [1e-20], [1.0], xi_k=0.5)
    assert out2[0] == 1e-8


# ---------------------------------------------------------------------------
# KKT residual
# ---------------------------------------------------------------------------


def test_pkkt_residual_vanishes_at_the_reference(qp3):
    inst = qp3
    xs, y = inst.problem.split(inst.z_star)
    _, norm = pkkt_residual(xs, y, inst.problem)
    assert norm <= 1e-9
    # and is visibly nonzero elsewhere
    xs = [x + 1.0 for x in xs]
    _, norm_off = pkkt_residual(xs, inst.y_star, inst.problem)
    assert norm_off > 1e-2


def _pkkt_rows(xs, y, prob):
    """The pKKT residual assembled row by row: x_i - prox_{g_i}(x_i -
    grad_i f(x) - A_i y) at unit step, then b - sum_i A_i* x_i."""
    grads = prob.grad_f(xs)
    rows = [x - g.evaluate(1.0, x - grad - a.apply(y))
            for g, x, grad, a in zip(prob.gs, xs, grads, prob.A)]
    return np.concatenate(rows + [prob.feasibility(xs)])


def _prefix_sums_of_squares(res, prob):
    """Partial sums of squares in pkkt_residual's row order: the dual row,
    then the primal rows in block order."""
    *primal, dual = prob.full_layout.split(res)
    sums, total = [], 0.0
    for row in [dual] + primal:
        total += float(np.dot(row, row))
        sums.append(total)
    return sums


@pytest.mark.parametrize("which", ["qp", "lrr"])
def test_pkkt_early_decision_equals_the_full_norm_decision(which, monkeypatch):
    # tolerances within a few ulps of the full norm and of each partial norm
    # the early exit compares against (so tol^2 sits within a few ulps of a
    # partial sum of squares), and well below each partial norm
    prob = gen_qp(3, p=3, n_i=4, m=3).problem if which == "qp" \
        else _lrr("lrr:seed=1,d=6,n=5").problem
    rng = np.random.default_rng(7)
    exits = 0
    for _ in range(5):
        xs = [rng.standard_normal(n) for n in prob.primal_layout.sizes]
        y = rng.standard_normal(prob.m)
        res = _pkkt_rows(xs, y, prob)
        feas, full = pkkt_residual(xs, y, prob)
        assert full == norm(res)
        assert feas.tobytes() == prob.full_layout.split(res)[-1].tobytes()
        roots = [math.sqrt(s) for s in _prefix_sums_of_squares(res, prob)]
        for root in roots + [full]:
            for tol in [root * (1.0 + j * 2.0 ** -52) for j in range(-4, 5)] \
                    + [0.5 * root, 0.0, -1.0]:
                early_feas, early = pkkt_residual(xs, y, prob, tol=tol)
                assert (early <= tol) == (full <= tol), (root, tol)
                # cut short or not, the dual row is the full residual's
                assert early_feas.tobytes() == feas.tobytes()
                if early == math.inf:
                    exits += 1
                else:
                    assert early == full
    assert exits > 0
    # a tolerance below the dual row's norm decides on that row alone: on
    # LRR no nuclear-norm row, so no SVD
    calls, _ = count_svds(monkeypatch)
    early_feas, early = pkkt_residual(xs, y, prob, tol=0.5 * roots[0])
    assert early == math.inf and calls[0] == 0
    assert early_feas.tobytes() == feas.tobytes()


def test_final_pkkt_is_exact_after_max_iters_and_fixed_point(monkeypatch):
    inst = gen_qp(0, p=2, n_i=5, m=3)
    cfg = HpeConfig(sigma=0.9, max_iters=40, tol_residual=1e-8)
    res = run_padmm(inst.problem, cfg)
    assert res.reason == "max_iters"
    _, full = pkkt_residual(*inst.problem.split(res.solution), inst.problem)
    assert res.final["pkkt"] == full > cfg.tol_residual
    # a sweep that returns its start point makes that point a fixed point;
    # the stop test before it decided on the dual row alone
    z0 = inst.z_star + 1.0
    monkeypatch.setattr(padmm_ebb, "block_sweep",
                        lambda xs, y, *args, **kwargs: (list(xs), y, []))
    res = run_padmm(inst.problem, cfg, z0=z0)
    assert res.reason == "fixed_point" and res.iterations == 1
    xs, y = inst.problem.split(z0)
    assert pkkt_residual(xs, y, inst.problem,
                         tol=cfg.tol_residual)[1] == math.inf
    assert (res.final["pkkt"] == pkkt_residual(xs, y, inst.problem)[1]
            > cfg.tol_residual)


def test_a_run_whose_last_iterate_meets_the_tolerance_ends_converged():
    # qp:seed=0 at sigma = 0.9 and beta = 1 meets the tolerance after 188
    # iterations; a budget of exactly 188 stops before the stop test sees
    # that iterate, and the final complete residual turns max_iters into the
    # same result
    inst = gen_qp(0)
    runs = [run_padmm(inst.problem, HpeConfig(sigma=0.9, max_iters=budget,
                                              tol_residual=1e-8), beta=1.0)
            for budget in (1000, 188)]
    for res in runs:
        assert (res.converged, res.reason, res.iterations) == (True, "pkkt",
                                                               188)
    free, capped = runs
    assert capped.solution.tobytes() == free.solution.tobytes()
    assert capped.final["pkkt"] == free.final["pkkt"] <= 1e-8


def test_lrr_d40_stop_test_takes_no_nuclear_norm_svd(monkeypatch):
    # the lrr-d40 benchmark solve: the sweep's two nuclear proxes per
    # iteration, plus those of the one complete residual, at convergence
    calls, _ = count_svds(monkeypatch)
    prob = _lrr("lrr:seed=0,d=40,n=40").problem
    res = run_padmm(prob, HpeConfig(sigma=0.9, max_iters=3000,
                                    tol_residual=1e-3), beta=300.0)
    assert res.reason == "pkkt" and res.iterations == 388
    assert calls[0] == 2 * res.iterations + 2
    assert calls[0] / res.iterations <= 2.1


# ---------------------------------------------------------------------------
# Full solver runs
# ---------------------------------------------------------------------------


def test_run_padmm_solves_qps():
    for seed in (0, 1):
        inst = gen_qp(seed, p=2, n_i=5, m=3)
        res = run_padmm(inst.problem, HpeConfig(sigma=0.9, max_iters=3000,
                                                tol_residual=1e-9))
        assert res.converged and res.reason == "pkkt"
        assert np.linalg.norm(res.solution - inst.z_star) < 1e-7
        assert len(res.trace) == res.iterations
        # every recorded certificate passed the criterion
        assert min(res.trace.column("criterion_slack")) >= -1e-9


def test_run_padmm_trace_column_schema():
    inst = gen_qp(2, p=2, n_i=4, m=2)
    cfg = HpeConfig(sigma=0.9, max_iters=50, tol_residual=0.0)
    res = run_padmm(inst.problem, cfg)
    assert res.trace.columns[10:] == ("feas_norm", "theta_adap", "beta")
    # the column records the beta used: the rule's, or the one given
    assert res.trace.column("beta")[-1] == rule_beta(inst.problem) != 1.0
    # a selection comes back in table order, kernel columns first
    full = run_padmm(inst.problem, cfg, beta=1.0,
                     columns=("beta", "objective", "theta_adap", "feas_norm",
                              "pkkt", "v_norm"))
    assert full.trace.columns == ("v_norm", "pkkt", "feas_norm", "objective",
                                  "theta_adap", "beta")
    assert all(len(row) == 6 for row in full.trace)
    assert full.trace.column("beta")[-1] == 1.0
    # pkkt decreases overall across the run
    pkkt = full.trace.column("pkkt")
    assert pkkt[-1] < pkkt[0]
    with pytest.raises(ValueError, match="unknown trace column.*pkt"):
        run_padmm(inst.problem, HpeConfig(sigma=0.9, max_iters=5),
                  columns=("pkt",))


def test_run_padmm_theta_fixed_zero_disables_over_relaxation():
    inst = gen_qp(3, p=2, n_i=4, m=2)
    res = run_padmm(inst.problem,
                    HpeConfig(sigma=0.9, max_iters=200, tol_residual=0.0),
                    theta_fixed=0.0)
    assert max(map(abs, res.trace.column("theta"))) <= 1e-9


def test_run_padmm_aborts_on_a_non_positive_gamma_form(monkeypatch):
    # at beta = 100 the first sweep's directional Gamma form is not positive:
    # iteration 1 sweeps once and aborts, naming both forms, instead of
    # doubling the proximal margins and so changing the method
    from opsplit import padmm_ebb

    sweeps = []
    real = padmm_ebb.block_sweep
    monkeypatch.setattr(padmm_ebb, "block_sweep",
                        lambda *a, **kw: sweeps.append(1) or real(*a, **kw))
    inst = gen_qp(1, p=2, n_i=5, m=3)
    with pytest.raises(CriterionViolation,
                       match=r"iteration 1: directional Gamma form is not "
                             r"positive \(gamma_form=-?\d.*, denom_form=\d"
                       ) as exc:
        run_padmm(inst.problem, HpeConfig(sigma=0.5, max_iters=3), beta=100)
    res = exc.value.result
    assert res.abort["iteration"] == 1 and len(res.trace) == 0
    assert len(sweeps) == 1


def test_run_padmm_starts_from_given_point():
    inst = gen_qp(4, p=2, n_i=4, m=2)
    res = run_padmm(inst.problem, HpeConfig(sigma=0.9, max_iters=1,
                                            tol_residual=1e-12),
                    z0=inst.z_star)
    # starting at the KKT point terminates immediately
    assert res.converged and res.iterations == 0


def test_run_padmm_schedule_floor_catches_shrinking_metric(monkeypatch):
    # a BB update that shrinks the metric 10x leaves the floor
    # min(M_0 scalars) / prod (1 + xi_j) that the clamp guarantees
    from opsplit import padmm_ebb

    def shrink(prev, nums, dens, xi_k):
        return [10.0 * s for s in prev]   # inverse scalars, so M / 10

    monkeypatch.setattr(padmm_ebb, "bb_metric_update", shrink)
    inst = gen_qp(0, p=2, n_i=5, m=3)
    # the first BB update follows the first sweep: iteration 2 in the trace
    with pytest.raises(MetricScheduleViolation, match="iteration 2:") as exc:
        run_padmm(inst.problem, HpeConfig(sigma=0.9, max_iters=5,
                                          tol_residual=0.0))
    # the metric update follows the step, so iteration 2 has its row
    res = exc.value.result
    assert res.abort["iteration"] == 2 and len(res.trace) == 2


def test_run_padmm_reads_xi_through_the_kernel_config():
    # the BB clamp [prev / (1 + xi), (1 + xi) prev] pins the start metric at
    # xi0 = 0 and lets it move at xi0 = 0.5
    inst = gen_qp(0, p=2, n_i=5, m=3)

    def metric_max(xi0):
        res = run_padmm(inst.problem, HpeConfig(
            sigma=0.9, xi0=xi0, max_iters=5, tol_residual=0.0))
        assert res.iterations == 5
        return res.trace.column("metric_max")

    assert len(set(metric_max(0.0))) == 1
    assert len(set(metric_max(0.5))) > 1


def test_config_validation():
    # run_padmm checks its own arguments before it touches the problem (None
    # here); sigma is the kernel config's (test_config_rejects_bad_parameters)
    cfg = HpeConfig(sigma=0.9)
    for beta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta must be finite"):
            run_padmm(None, cfg, beta=beta)
    for theta in (-1.0, -1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="theta_fixed"):
            run_padmm(None, cfg, theta_fixed=theta)


def test_penalty_rule_balances_curvature_against_coupling():
    # beta = 0.5 sum_i L_i / sum_i ||A_i||^2, from the norms eta_i also uses
    prob = gen_qp(0).problem
    norms = prob.constraint_norms()
    beta = rule_beta(prob)
    assert beta == 0.5 * sum(prob.L) / sum(a * a for a in norms)
    assert beta == pytest.approx(0.13498, rel=1e-4)
    assert run_padmm(prob, HpeConfig(max_iters=3)).trace.column("beta") == [
        beta] * 3


def test_penalty_rule_falls_back_to_one_without_a_scale():
    # sum_i L_i = 0: the rule has no scale; L_1 = 0 (one LRR column, so
    # L_Z = 0): block 1 has no curvature to balance; a zero coupling
    rule = padmm_ebb.PENALTY_RULE
    assert rule.fallback == 1.0
    assert rule.beta([0.0, 0.0], [2.0, 3.0]) == 1.0
    assert rule.beta([0.0, 5.0], [2.0, 3.0]) == 1.0
    assert rule.beta([4.0, 5.0], [0.0, 0.0]) == 1.0
    assert rule.beta([4.0, 0.0], [1.0, 2.0]) == 0.5 * 4.0 / 5.0
    _, inst = build_problem(parse_descriptor("lrr:seed=0,d=3,n=1"))
    assert inst.problem.L[0] == 0.0 < inst.problem.L[1]
    assert rule_beta(inst.problem) == 1.0
    qp = gen_qp(0).problem
    zero_f = dataclasses.replace(qp, L=[0.0, 0.0])
    assert rule_beta(zero_f) == 1.0


def test_a_solve_estimates_each_constraint_norm_once(monkeypatch, tmp_path):
    # the penalty rule and the prox curvatures share one estimate per block,
    # in run_padmm and through the CLI, which echoes the rule's beta
    calls = []
    real = padmm_ebb.spectral_upper_bound
    monkeypatch.setattr(padmm_ebb, "spectral_upper_bound",
                        lambda a: calls.append(a) or real(a))
    inst = gen_qp(3, p=3, n_i=4, m=3)
    run_padmm(inst.problem, HpeConfig(max_iters=5))
    assert calls == list(inst.problem.A)
    calls.clear()
    assert main(["solve", "--algorithm", "padmm-ebb", "--problem",
                 "qp:seed=3,p=3,n=4,m=3", "--max-iters", "5",
                 "--summary", str(tmp_path / "s.json")]) == 0
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# Ergodic pair
# ---------------------------------------------------------------------------


def test_multi_block_ergodic_pair_matches_two_pass_reference():
    inst = gen_qp(6, p=2, n_i=4, m=2)
    acc, recorder = ErgodicAccumulator(), CertificateRecorder()
    # beta = 1: the rule's beta reaches a sweep fixed point before step 300
    run_padmm(inst.problem, HpeConfig(sigma=0.9, max_iters=300,
                                      tol_residual=0.0), beta=1.0,
              accumulators=[acc, recorder])
    assert len(acc) == len(recorder) == 300
    assert min(acc.eps_bars) >= -1e-12
    for k in (1, 17, 300):
        _, v_ref, eps_ref = ergodic_aggregate(recorder[:k], np.ones(k))
        assert acc.v_norms[k - 1] == pytest.approx(np.linalg.norm(v_ref),
                                                   rel=1e-12)
        assert acc.eps_bars[k - 1] == pytest.approx(eps_ref, rel=1e-10,
                                                    abs=1e-12)


def _bytes_held_by_run(problem, iters):
    """Bytes still allocated after run_padmm returns, result and accumulator
    alive."""
    acc = ErgodicAccumulator()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run_padmm(problem, HpeConfig(sigma=0.9, max_iters=iters,
                                           tol_residual=0.0),
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
