"""Kernel-level checks: criterion algebra, schedules, bounds, aggregates."""

import csv
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest

from opsplit import hpe_core
from opsplit.hpe_core import (CertificateRecorder, CriterionViolation,
                              ErgodicAccumulator, HpeCertificate, HpeConfig,
                              MetricScheduleViolation,
                              check_criterion,
                              ergodic_aggregate, extragradient_step,
                              linear_rate_factor, loglog_slope,
                              make_affine_resolvent_oracle, pointwise_bound,
                              validate_metric_update)
from opsplit.linops import (BlockDiagonalMetric, BlockLayout, DenseMetric,
                            IdentityMetric)
from support import failed_criterion, worst_case_theta


def _pt(arr):
    return np.asarray(arr, dtype=float)


# ---------------------------------------------------------------------------
# Criterion evaluation
# ---------------------------------------------------------------------------


def test_criterion_zero_residual_certificate():
    # v = 0, eps = 0, y = x: both sides vanish and the check passes
    x = _pt([1.0, -2.0])
    cert = HpeCertificate(y=x.copy(), v=_pt([0.0, 0.0]), eps=0.0,
                          step=_pt([0.0, 0.0]))
    rep = check_criterion(x, cert, IdentityMetric(), sigma=0.5)
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_criterion_exact_resolvent_identity():
    # for an exact resolvent step c*v + (y - x) = 0, so with M = I
    # lhs = theta ||c v||^2 + 2 c eps and rhs = sigma ||y - x||^2
    x = _pt([2.0, 0.0, -4.0])
    y = _pt(x / 2.0)   # resolvent of T = I at c = 1
    v = _pt(y)
    cert = HpeCertificate(y=y, v=v, eps=0.0, c=1.0, theta=0.25, step=v)
    rep = check_criterion(x, cert, IdentityMetric(), sigma=0.5)
    half = float(np.dot(y, y))
    assert rep.lhs == pytest.approx(0.25 * half, rel=1e-14)
    assert rep.rhs == pytest.approx(0.5 * half, rel=1e-14)
    # theta = sigma is the equality endpoint; beyond it the check fails
    cert_hi = HpeCertificate(y=y, v=v, eps=0.0, c=1.0, theta=0.6, step=v)
    over = failed_criterion(x, cert_hi, IdentityMetric(), sigma=0.5)
    assert over.lhs == pytest.approx(0.6 * half, rel=1e-14)
    assert over.rhs == pytest.approx(0.5 * half, rel=1e-14)


def test_criterion_respects_metric_weighting():
    M = DenseMetric(np.array([[4.0]]))
    x = _pt([1.0])
    y = _pt([0.5])
    v = _pt([2.0])  # M^-1 v = 0.5, so c M^-1 v + (y - x) = 0
    cert = HpeCertificate(y=y, v=v, eps=0.0, c=1.0, theta=0.0,
                          step=_pt([0.5]))
    rep = check_criterion(x, cert, M, sigma=0.5)
    assert rep.lhs == pytest.approx(0.0, abs=1e-15)
    assert rep.rhs == pytest.approx(0.5 * 4.0 * 0.25, rel=1e-14)


def _criterion_at(lhs_over_rhs, check=check_criterion):
    # step = -diff, so lhs = 2 c eps and rhs = sigma ||diff||^2 = 1 exactly
    x = _pt([0.0, 0.0])
    cert = HpeCertificate(y=_pt([1.0, 1.0]), v=_pt([-1.0, -1.0]),
                          eps=0.5 * lhs_over_rhs, step=_pt([-1.0, -1.0]))
    return check(x, cert, IdentityMetric(), sigma=0.5)


def test_criterion_tolerance_is_1e_10_relative_at_rhs_near_one():
    # at rhs = 1 the tolerance is CRITERION_TOL (1 + rhs) = 2e-10: an excess
    # of 1e-8 is rejected, one of 1e-11 is rounding and passes
    over = _criterion_at(1.0 + 1e-8, check=failed_criterion)
    assert over.rhs == 1.0 and over.lhs == 1.0 + 1e-8
    assert _criterion_at(1.0 + 1e-11).lhs == 1.0 + 1e-11


def test_criterion_eps_contributes_2c_eps():
    x = _pt([1.0])
    cert = HpeCertificate(y=_pt([1.0]), v=_pt([0.0]), eps=0.3, c=2.0,
                          step=_pt([0.0]))
    rep = failed_criterion(x, cert, IdentityMetric(), sigma=0.5)
    assert rep.lhs == pytest.approx(2.0 * 2.0 * 0.3) and rep.rhs == 0.0


@pytest.mark.parametrize("theta,error,message", [
    (-3.0, CriterionViolation, "theta = -3.0 is not above -1"),
    (-1.0, CriterionViolation, "theta = -1.0 is not above -1"),
    (math.nan, hpe_core.NonFiniteValue, "non-finite theta")])
def test_theta_at_or_below_minus_one_aborts_the_run(theta, error, message):
    # the kernel's own check of a theta the oracle sets: at theta = -3 every
    # step used to be certified while the iterate ran off to 1e23, and at
    # theta = -1 the iterate never moved
    from opsplit.prox_problems import gen_qp
    from opsplit.splitters import fbhf_from_qp, fbhf_step

    prob, ref = fbhf_from_qp(gen_qp(0), 0.5)
    with pytest.raises(error, match="iteration 1: .*" + message) as exc:
        hpe_core.run(lambda x, M, cfg: fbhf_step(x, prob, theta),
                     np.zeros(ref.size), prob.metric(),
                     HpeConfig(sigma=0.5, max_iters=50))
    res = exc.value.result
    assert res.abort["iteration"] == 1 and len(res.trace) == 0


def test_extragradient_step_formula():
    x = _pt([1.0, 2.0])
    v = _pt([0.5, -1.0])
    cert = HpeCertificate(y=x.copy(), v=v, eps=0.0, c=2.0, theta=0.5,
                          step=_pt(2.0 * v))   # c M^-1 v with M = I
    out = extragradient_step(x, cert)
    assert np.allclose(out, x - 1.5 * 2.0 * cert.v)
    # a weighted metric 3 I divides the step by its scalar
    cert_m = HpeCertificate(y=x.copy(), v=v, eps=0.0, c=2.0, theta=0.5,
                            step=_pt(2.0 * (v / 3.0)))
    out_m = extragradient_step(x, cert_m)
    assert np.allclose(out_m, x - 1.5 * 2.0 * cert.v / 3.0)


@pytest.mark.parametrize("field, value, message", [
    ("c", 0.0, "c must be positive"), ("c", -1.0, "c must be positive"),
    ("eps", -1e-300, "eps must be nonnegative"),
    ("eps", -1.0, "eps must be nonnegative")])
def test_certificate_rejects_a_nonpositive_c_or_negative_eps(field, value,
                                                             message):
    # check_criterion is the one check of a certificate; with y = x and
    # v = 0 nothing else in it rejects this one (eps = -1 gives lhs = -2 <=
    # rhs = 0, so the certificate passes unless eps is checked)
    parts = dict(y=_pt([0.0]), v=_pt([0.0]), eps=0.0, c=1.0, step=_pt([0.0]))
    cert = HpeCertificate(**dict(parts, **{field: value}))
    with pytest.raises(ValueError, match=message):
        check_criterion(_pt([0.0]), cert, IdentityMetric(), sigma=0.5)


def test_a_certificate_with_c_zero_aborts_the_run_at_its_iteration():
    # the check runs on every certificate the kernel is handed, so an
    # oracle's bad c aborts the run where it appears, with the abort record
    from opsplit.prox_problems import gen_qp
    from opsplit.splitters import fbhf_from_qp, fbhf_step

    prob, ref = fbhf_from_qp(gen_qp(0), 0.5)
    calls = []

    def oracle(x, M, cfg):
        calls.append(x)
        cert = fbhf_step(x, prob, 0.9 * worst_case_theta(prob, 0.5))
        return dataclasses.replace(cert, c=0.0) if len(calls) == 3 else cert

    with pytest.raises(ValueError,
                       match="^iteration 3: c must be positive$") as exc:
        hpe_core.run(oracle, np.zeros(ref.size), prob.metric(),
                     HpeConfig(sigma=0.5, max_iters=50))
    res = exc.value.result
    assert res.abort == {"iteration": 3, "exception": "ValueError",
                         "message": "iteration 3: c must be positive"}
    assert len(res.trace) == 2 and res.reason == "abort"


def _root_taken(monkeypatch, sigma=0.9):
    """Every step whose theta the kernel took from the criterion's root, in
    runs of the four splitters on QP seeds 0-2, as (theta_k, root, slack,
    backoff): the criterion's slack at theta_k, and the slack a back-off of
    ROOT_BACKOFF = 1e-9 leaves, (root - theta_k) <step, c v> with theta_k =
    -1 + (1 + root)(1 - 1e-9).  The root is recomputed from the passed
    certificate, whose theta the kernel wrote."""
    from opsplit.prox_problems import gen_qp
    from opsplit.splitters import SCHEMES

    check, taken = hpe_core.check_criterion, []

    def recording(x, cert, M, sig):
        rep = check(x, cert, M, sig)
        root = hpe_core.criterion_root(x, cert, M, sig)
        share = float(np.dot(cert.step, cert.c * cert.v))
        taken.append((cert.theta, root, rep.slack,
                      (1.0 + root) * 1e-9 * share))
        return rep

    monkeypatch.setattr(hpe_core, "check_criterion", recording)
    cfg = HpeConfig(sigma=sigma, max_iters=5000, tol_residual=1e-8)
    for scheme in SCHEMES.values():
        for seed in range(3):
            oracle, M0, x0, _ = scheme.setup(gen_qp(seed, p=2, n_i=5, m=3),
                                             sigma)
            hpe_core.run(oracle, x0, M0, cfg)
    return [t for t in taken if t[0] < hpe_core.THETA_CAP]


def test_the_kernel_takes_the_root_backed_off(monkeypatch):
    # theta_k sits a relative 1e-9 below the root, so every certificate
    # meets the criterion with about that much slack, which rounding
    # cannot flip
    taken = _root_taken(monkeypatch)
    assert len(taken) > 500
    for theta, root, slack, backoff in taken:
        assert theta < root
        assert slack >= 0.5 * backoff > 0.0


def test_the_back_off_check_rejects_a_root_taken_as_it_is(monkeypatch):
    # without the back-off theta_k is the root: the slack is rounding, of
    # either sign, and no longer the back-off's
    monkeypatch.setattr(hpe_core, "ROOT_BACKOFF", 0.0)
    taken = _root_taken(monkeypatch)
    assert min(slack / backoff for _, _, slack, backoff in taken) < 0.5


def test_the_criterion_check_rejects_a_root_with_its_sign_flipped(
        monkeypatch):
    # fbhf's roots are negative here: the negated root is past the true
    # one, and the criterion check aborts the run at its first step
    from opsplit.prox_problems import gen_qp
    from opsplit.splitters import SCHEMES

    real = hpe_core.criterion_root
    monkeypatch.setattr(hpe_core, "criterion_root",
                        lambda *args: -real(*args))
    oracle, M0, x0, _ = SCHEMES["fbhf"].setup(gen_qp(0, p=2, n_i=5, m=3),
                                              0.9)
    with pytest.raises(CriterionViolation,
                       match="^iteration 1: criterion failed"):
        hpe_core.run(oracle, x0, M0, HpeConfig(sigma=0.9))


# ---------------------------------------------------------------------------
# Schedules and metric validation
# ---------------------------------------------------------------------------


def test_xi_is_summable():
    cfg = HpeConfig(xi0=0.1)
    assert cfg.xi(1) == pytest.approx(0.1 / 4.0)
    xis = [cfg.xi(k) for k in range(1, 100_001)]
    s = float(sum(xis))
    assert s < 0.1 * (math.pi ** 2 / 6.0)
    assert math.prod(1.0 + xi for xi in xis) <= math.exp(s) + 1e-12


def test_config_holds_only_what_the_loop_reads():
    assert [f.name for f in dataclasses.fields(HpeConfig)] == [
        "sigma", "xi0", "max_iters", "tol_residual"]
    # the default schedule is xi0 = 1 over (k + 1)^2
    assert HpeConfig().xi(3) == 1.0 / 16.0


def test_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        HpeConfig(sigma=1.0)


@pytest.mark.parametrize("max_iters", [5.0, np.float64(5), "5", -1],
                         ids=["float", "numpy-float", "str", "negative"])
def test_config_rejects_a_non_integer_or_negative_max_iters(max_iters):
    # a float used to pass and abort the run at "iteration 0" with a
    # TypeError from range()
    with pytest.raises(ValueError, match=re.escape(
            "max_iters must be a nonnegative integer, got %r" % (max_iters,))):
        HpeConfig(max_iters=max_iters)
    assert HpeConfig(max_iters=np.int64(5)).max_iters == 5


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
def test_config_rejects_a_negative_or_nan_tolerance(tol):
    # a negative tolerance used to run: no residual meets it, so a run either
    # spent its whole budget or stopped only at an exact fixed point
    with pytest.raises(ValueError, match=re.escape(
            "tol_residual must be nonnegative, got %r" % tol)):
        HpeConfig(tol_residual=tol)
    assert HpeConfig(tol_residual=0.0).tol_residual == 0.0


_BOUND_ARGS = dict(d0=1.0, sigma=0.5, theta_min=0.0, c_min=1.0,
                   omega_upper=1.0, xis=[0.0])


def test_pointwise_bound_rejects_bad_constants():
    with pytest.raises(ValueError, match="sigma must lie"):
        pointwise_bound(**dict(_BOUND_ARGS, sigma=1.0))
    with pytest.raises(ValueError, match="theta_min must be finite"):
        pointwise_bound(**dict(_BOUND_ARGS, theta_min=-1.0))
    with pytest.raises(ValueError, match="c_min must be finite"):
        pointwise_bound(**dict(_BOUND_ARGS, c_min=0.0))


@pytest.mark.parametrize("field", ["theta_min", "c_min", "omega_upper"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_bound_constants(field, value):
    # the run's constants, as pointwise_bound takes them: a NaN makes both
    # bounds NaN, an infinite theta_min or c_min makes them 0, and
    # omega_upper = inf the v bound inf
    with pytest.raises(ValueError, match="%s must be finite" % field):
        pointwise_bound(**dict(_BOUND_ARGS, **{field: value}))


def test_pointwise_bound_takes_the_run_xis():
    for xis in ([], [float("nan")], [-1e-3]):
        with pytest.raises(ValueError, match="xis must hold xi_1..xi_k"):
            pointwise_bound(**dict(_BOUND_ARGS, xis=xis))


def test_config_rejects_non_finite_or_negative_xi():
    # xi = NaN would make every metric-schedule comparison false, so the
    # check could never fail
    for xi0 in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=re.escape(
                "xi0 must be finite and nonnegative, got %r" % xi0)):
            HpeConfig(xi0=xi0)


def test_validate_metric_update_blockwise():
    lay = BlockLayout((2, 3))
    M0 = BlockDiagonalMetric([1.0, 2.0], lay)
    ok = BlockDiagonalMetric([1.009, 2.0], lay)
    validate_metric_update(M0, ok, xi_k=0.01, omega_lower=0.5)
    grew = BlockDiagonalMetric([1.02, 2.0], lay)
    with pytest.raises(MetricScheduleViolation,
                       match="block 0 scalar grew 1.000e.00 -> 1.020e.00"):
        validate_metric_update(M0, grew, xi_k=0.01, omega_lower=0.5)
    sank = BlockDiagonalMetric([0.4, 2.0], lay)
    with pytest.raises(MetricScheduleViolation,
                       match="block 0 scalar 4.000e-01 below omega_lower"):
        validate_metric_update(M0, sank, xi_k=0.01, omega_lower=0.5)


def test_validate_metric_update_blockwise_growth_tolerance_is_1e_12():
    lay, xi = BlockLayout((2, 3)), 0.01
    M0 = BlockDiagonalMetric([1.0, 2.0], lay)
    at_cap = (1.0 + xi) * 2.0
    validate_metric_update(M0, BlockDiagonalMetric([1.0, at_cap], lay),
                           xi_k=xi, omega_lower=0.5)
    with pytest.raises(MetricScheduleViolation, match="block 1 scalar grew"):
        validate_metric_update(
            M0, BlockDiagonalMetric([1.0, at_cap * (1.0 + 1e-9)], lay),
            xi_k=xi, omega_lower=0.5)


def test_validate_metric_update_dense_path():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 4))
    base = B @ B.T + np.eye(4)
    M0 = DenseMetric(base)
    validate_metric_update(M0, DenseMetric(1.005 * base),
                           xi_k=0.01, omega_lower=1e-6)
    with pytest.raises(MetricScheduleViolation,
                       match="largest generalized eigenvalue 1.050e.00"):
        validate_metric_update(M0, DenseMetric(1.05 * base),
                               xi_k=0.01, omega_lower=1e-6)


@pytest.mark.parametrize("j", range(13))
def test_validate_metric_update_dense_path_is_exact(j):
    # each bump acts along one coordinate only, where a few random probes
    # can miss it: I + 3 xi e_j e_j^T grows past the factor 1 + xi, and
    # I - 0.6 e_j e_j^T sinks below the floor 0.5
    xi, eye = 0.01, np.eye(13)
    with pytest.raises(MetricScheduleViolation,
                       match="largest generalized eigenvalue"):
        validate_metric_update(
            DenseMetric(eye),
            DenseMetric(eye + 3 * xi * np.outer(eye[j], eye[j])),
            xi_k=xi, omega_lower=0.5)
    with pytest.raises(MetricScheduleViolation, match="smallest eigenvalue"):
        validate_metric_update(
            DenseMetric(eye),
            DenseMetric(eye - 0.6 * np.outer(eye[j], eye[j])),
            xi_k=xi, omega_lower=0.5)


def test_validate_metric_update_callable_saddle_metric():
    # the Condat-Vu saddle metric is not block diagonal: the check takes the
    # exact path with its dimension
    from opsplit.prox_problems import gen_qp
    from opsplit.splitters import condat_vu_from_qp
    prob, _ = condat_vu_from_qp(gen_qp(0, p=2, n_i=5, m=3), 0.5)
    M = prob.metric()
    assert M.dim == prob.dim_x + prob.dim_y
    validate_metric_update(M, M, 0.0, M.omega_lower)
    grown = DenseMetric(1.05 * M.matrix)
    with pytest.raises(MetricScheduleViolation,
                       match="largest generalized eigenvalue"):
        validate_metric_update(M, grown, 0.01, M.omega_lower)


# ---------------------------------------------------------------------------
# The kernel loop
# ---------------------------------------------------------------------------


def _affine_setup(n=6, seed=0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    W = rng.standard_normal((n, n))
    K = B @ B.T / n + np.eye(n) + 0.5 * (W - W.T)
    q = rng.standard_normal(n)
    x_star = np.linalg.solve(K, -q)
    return K, q, x_star


def test_run_converges_on_affine_operator():
    K, q, x_star = _affine_setup()
    cfg = HpeConfig(sigma=0.5, max_iters=2000, tol_residual=1e-10)
    oracle = make_affine_resolvent_oracle(K, q)
    res = hpe_core.run(oracle, np.ones(K.shape[0]), IdentityMetric(), cfg,
                       ref_solution=x_star,
                       columns=hpe_core.select(("dist_M_sq",)))
    assert res.converged and res.reason == "residual"
    assert np.linalg.norm(res.solution - x_star) < 1e-8
    assert len(res.trace) == res.iterations
    # metric distances to the reference shrink monotonically
    dists = res.trace.column("dist_M_sq")
    assert all(d1 <= d0 * (1 + 1e-12) for d0, d1 in zip(dists, dists[1:]))


def test_a_stop_hook_replaces_the_residual_test():
    # every certificate meets tol_residual = 1e300; with a stop hook that
    # never fires, only the budget ends the run
    K, q, _ = _affine_setup()
    cfg = HpeConfig(sigma=0.5, max_iters=7, tol_residual=1e300)
    oracle = make_affine_resolvent_oracle(K, q)
    x0 = np.ones(K.shape[0])
    res = hpe_core.run(oracle, x0, IdentityMetric(), cfg)
    assert res.reason == "residual" and res.iterations == 1
    stops = []
    res = hpe_core.run(oracle, x0, IdentityMetric(), cfg,
                       stop=lambda k, x: stops.append(k))
    assert res.reason == "max_iters" and not res.converged
    assert res.iterations == len(res.trace) == 7 and stops == list(range(1, 8))


def test_run_rejects_lying_oracle():
    K, q, _ = _affine_setup()

    def liar(x, M, cfg):
        return HpeCertificate(y=x + 1.0, v=np.zeros_like(x), eps=10.0,
                              step=np.zeros_like(x))

    with pytest.raises(CriterionViolation):
        hpe_core.run(liar, np.ones(K.shape[0]), IdentityMetric(),
                     HpeConfig(max_iters=5))


@pytest.mark.parametrize("entry", ["y", "v", "step"])
@pytest.mark.parametrize("size", [1, 2])
def test_a_certificate_off_the_iterate_shape_aborts_the_run(entry, size):
    # y = v = step = x / 2 is the exact resolvent of T = I at c = 1; a y of
    # 1 entry against the 3-entry iterate used to broadcast and be certified
    def oracle(x, M, cfg):
        parts = {"y": 0.5 * x, "v": 0.5 * x, "step": 0.5 * x}
        parts[entry] = parts[entry][:size]
        return HpeCertificate(eps=0.0, **parts)

    shapes = {"y": (3,), "v": (3,), "step": (3,)}
    shapes[entry] = (size,)
    message = ("iteration 1: certificate shapes y %s, v %s, step %s do not "
               "match the iterate's (3,)" % tuple(shapes.values()))
    with pytest.raises(CriterionViolation, match=re.escape(message)) as exc:
        hpe_core.run(oracle, np.ones(3), IdentityMetric(),
                     HpeConfig(max_iters=5, tol_residual=0.0))
    assert exc.value.result.abort["iteration"] == 1


def test_a_nan_metric_scalar_aborts_the_update_that_returns_it():
    # BlockDiagonalMetric([nan]) used to construct and pass the schedule
    # check; the run then aborted one iteration late, on the step check
    K, q, _ = _affine_setup()
    lay = BlockLayout((K.shape[0],))

    def update(k, x, cert, M):
        return BlockDiagonalMetric([math.nan if k == 2 else 1.0], lay)

    message = "iteration 2: metric scalar 0 is nan, not finite and positive"
    with pytest.raises(ValueError, match=message) as exc:
        hpe_core.run(make_affine_resolvent_oracle(K, q), np.ones(K.shape[0]),
                     BlockDiagonalMetric([1.0], lay),
                     HpeConfig(max_iters=10, tol_residual=0.0),
                     metric_update=update)
    assert exc.value.result.abort["iteration"] == 2


def test_run_rejects_schedule_breaking_metric():
    K, q, _ = _affine_setup()
    lay = BlockLayout((K.shape[0],))
    oracle = make_affine_resolvent_oracle(K, q)

    def runaway(k, x, cert, M):
        return BlockDiagonalMetric([2.0 ** k], lay)

    cfg = HpeConfig(max_iters=5, tol_residual=0.0)
    with pytest.raises(MetricScheduleViolation):
        hpe_core.run(oracle, np.ones(lay.dim),
                     BlockDiagonalMetric([1.0], lay), cfg,
                     metric_update=runaway)


@pytest.mark.parametrize("metric", [
    lambda scale: BlockDiagonalMetric([scale], BlockLayout((6,))),
    lambda scale: DenseMetric(scale * np.eye(6))], ids=["block", "dense"])
def test_run_aborts_below_the_derived_schedule_floor(metric):
    # the floor is min(M_0) / (1 + xi_1) after one update: 2I -> 1.5I
    # leaves it, although 1.5I is well conditioned
    K, q, _ = _affine_setup()
    M0 = metric(2.0)
    with pytest.raises(MetricScheduleViolation, match="iteration 1:") as exc:
        hpe_core.run(make_affine_resolvent_oracle(K, q, M=M0),
                     np.ones(K.shape[0]), M0,
                     HpeConfig(max_iters=5, tol_residual=0.0),
                     metric_update=lambda k, x, cert, M: metric(1.5))
    res = exc.value.result
    assert res.abort["iteration"] == 1 and len(res.trace) == 1


def test_run_floor_divides_by_one_plus_xi_once_per_update():
    # each update lands on the floor min(M_0) / prod_{j<=k} (1 + xi_j), and
    # the third 1e-9 below it; a floor shrinking by (1 + xi_k)^2 would pass
    lay = BlockLayout((3,))
    zero = np.zeros(lay.dim)
    cfg = HpeConfig(xi0=0.5, max_iters=10)
    floor = [1.0]

    def on_the_floor(k, x, cert, M):
        floor[0] /= 1.0 + cfg.xi(k)
        return BlockDiagonalMetric([floor[0] * (1.0 - 1e-9 * (k == 3))], lay)

    with pytest.raises(MetricScheduleViolation,
                       match="iteration 3: block 0 scalar .* below "
                       "omega_lower") as exc:
        hpe_core.run(lambda x, M, cfg: HpeCertificate(
                         y=x.copy(), v=zero, eps=0.0, step=zero),
                     zero, BlockDiagonalMetric([1.0], lay), cfg,
                     metric_update=on_the_floor, stop=lambda k, x: None)
    assert len(exc.value.result.trace) == 3


def test_only_a_run_that_updates_its_metric_records_xi():
    # a constant-metric run uses none of the schedule's slack, so the Fejer
    # gate's factor (1 + xi_k) must read 1 for it, whatever xi0 is, and its
    # result records no Xi; a run that updates its metric records the
    # running product Xi = prod (1 + xi_k), also when the update raises
    K, q, _ = _affine_setup()
    cfg = HpeConfig(xi0=1.0, max_iters=5, tol_residual=0.0)

    def run(metric_update):
        return hpe_core.run(make_affine_resolvent_oracle(K, q),
                            np.ones(K.shape[0]), IdentityMetric(), cfg,
                            metric_update=metric_update,
                            columns=hpe_core.select(("xi",)))

    def product(updates):  # in loop order, as the kernel multiplies
        return math.prod(1.0 + cfg.xi(k) for k in range(1, updates + 1))

    constant, updating = run(None), run(lambda k, x, cert, M: M)
    assert constant.trace.column("xi") == [0.0] * 5
    assert constant.final == {}
    assert updating.trace.column("xi") == [cfg.xi(k) for k in range(1, 6)]
    assert updating.final == {"Xi": product(5)} and product(5) > 1.0

    def fail_at_3(k, x, cert, M):
        if k == 3:
            raise RuntimeError("boom")
        return M

    with pytest.raises(RuntimeError) as exc:
        run(fail_at_3)
    # the factor of update 3 is taken before its hook runs
    assert exc.value.result.final == {"Xi": product(3)}
    assert product(3) != product(2)


@pytest.mark.parametrize("hook,rows", [("oracle", 2), ("stop", 2),
                                       ("metric_update", 3)])
def test_any_failure_in_the_loop_names_its_iteration(hook, rows):
    # whatever raises, the kernel prefixes its iteration once, keeps its
    # class and attaches the aborted run: the rows certified before it
    K, q, _ = _affine_setup()
    lay = BlockLayout((K.shape[0],))
    exact, oracle_calls = make_affine_resolvent_oracle(K, q), [0]

    def fail_at_3(name, k):
        if name == hook and k == 3:
            raise RuntimeError("boom")

    def oracle(x, M, cfg):
        oracle_calls[0] += 1
        fail_at_3("oracle", oracle_calls[0])
        return exact(x, M, cfg)

    def metric_update(k, x, cert, M):
        fail_at_3("metric_update", k)
        return M

    with pytest.raises(RuntimeError) as exc:
        hpe_core.run(oracle, np.ones(lay.dim),
                     BlockDiagonalMetric([1.0], lay),
                     HpeConfig(max_iters=10, tol_residual=0.0),
                     metric_update=metric_update,
                     stop=lambda k, x: fail_at_3("stop", k))
    assert type(exc.value) is RuntimeError
    assert str(exc.value) == "iteration 3: boom"
    res = exc.value.result
    assert res.abort == {"iteration": 3, "exception": "RuntimeError",
                         "message": "iteration 3: boom"}
    assert len(res.trace) == res.iterations == rows
    assert (res.solution, res.converged, res.reason) == (None, False, "abort")


def test_trace_csv_row_count_matches_iterations(tmp_path):
    K, q, _ = _affine_setup()
    cfg = HpeConfig(max_iters=17, tol_residual=0.0)
    res = hpe_core.run(make_affine_resolvent_oracle(K, q),
                       np.ones(K.shape[0]), IdentityMetric(), cfg)
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(hpe_core.DEFAULT_COLUMNS)
    assert len(lines) - 1 == res.iterations == 17


def test_trace_csv_bytes_equal_csv_writer(tmp_path):
    rows = [(1, 0, -7, 2 ** 70),
            (1.5, 0.1, 1e22, 1.0 / 3.0),
            (np.float64(1.5), np.float64(0.1), np.float64(-2e-300),
             np.float64(1e22)),
            (math.nan, math.inf, -math.inf, -0.0),
            (5e-324, np.float64(-0.0), np.float64(math.nan),
             np.float64(5e-324))]
    trace = hpe_core.IterTrace(("a", "b", "c", "d"))
    trace.extend(rows)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(trace.columns)
    writer.writerows(rows)
    assert path.read_bytes() == expected.getvalue().encode()


# ---------------------------------------------------------------------------
# Complexity instrumentation
# ---------------------------------------------------------------------------


def test_pointwise_bound_closed_form():
    d0 = 2.0
    pb = pointwise_bound(d0, sigma=0.5, theta_min=0.5, c_min=1.0,
                         omega_upper=1.0, xis=[0.0] * 36)
    assert pb.bound_v.shape == pb.bound_eps.shape == (36,)
    for k in range(1, 37):
        # independent route: constant metric, xi = 0
        assert pb.bound_v[k - 1] == pytest.approx(
            math.sqrt(4.0 / (k * 0.5 * 1.5 ** 3)) * d0, rel=1e-14)
        assert pb.bound_eps[k - 1] == pytest.approx(
            d0 ** 2 / (k * 0.5 * 1.5 ** 2), rel=1e-14)
    # O(1/sqrt(k)) and O(1/k) decay
    assert pb.bound_v[3] == pytest.approx(pb.bound_v[0] / 2.0)
    assert pb.bound_eps[3] == pytest.approx(pb.bound_eps[0] / 4.0)


def test_pointwise_bound_inflates_with_xi():
    def bound_v(xi0):
        xis = [HpeConfig(xi0=xi0).xi(k) for k in range(1, 11)]
        return pointwise_bound(1.0, sigma=0.5, theta_min=0.0, c_min=1.0,
                               omega_upper=1.0, xis=xis).bound_v[-1]

    assert bound_v(0.5) > bound_v(0.0)


def _random_certs(n, dim, seed):
    rng = np.random.default_rng(seed)
    certs = []
    for _ in range(n):
        certs.append(HpeCertificate(
            y=rng.standard_normal(dim),
            v=rng.standard_normal(dim),
            eps=float(rng.uniform(0, 0.5)),
            c=float(rng.uniform(0.5, 2.0)),
            theta=float(rng.uniform(-0.5, 1.0))))
    return certs


def test_ergodic_series_matches_aggregate_at_every_prefix():
    # the online accumulator against the two-pass reference
    certs = _random_certs(30, 4, seed=7)
    alpha = np.random.default_rng(8).uniform(0.5, 2.0, size=30)
    acc = ErgodicAccumulator(alpha=lambda k: alpha[k - 1])
    for k, cert in enumerate(certs, start=1):
        acc.add(cert)
        if k not in (1, 3, 17, 30):
            continue
        _, v_ref, eps_ref = ergodic_aggregate(certs[:k], alpha[:k])
        assert acc.v_norms[k - 1] == pytest.approx(np.linalg.norm(v_ref),
                                                   rel=1e-12)
        assert acc.eps_bars[k - 1] == pytest.approx(eps_ref, rel=1e-12)
    assert len(acc.v_norms) == len(acc.eps_bars) == 30


def test_ergodic_eps_nonnegative_for_monotone_operator():
    # certificates from an exact resolvent of a monotone affine operator:
    # the correction term keeps eps_bar >= 0
    K, q, _ = _affine_setup(n=5, seed=3)
    cfg = HpeConfig(max_iters=200, tol_residual=0.0)
    acc, recorder = ErgodicAccumulator(), CertificateRecorder()
    res = hpe_core.run(make_affine_resolvent_oracle(K, q),
                       np.ones(5), IdentityMetric(), cfg,
                       accumulators=[acc, recorder])
    assert len(acc.eps_bars) == len(recorder) == len(res.trace) == 200
    assert min(acc.eps_bars) >= -1e-12
    _, v_ref, eps_ref = ergodic_aggregate(recorder, np.ones(200))
    assert acc.v_norms[-1] == pytest.approx(np.linalg.norm(v_ref), rel=1e-12)
    assert acc.eps_bars[-1] == pytest.approx(eps_ref, rel=1e-12, abs=1e-15)


def test_ergodic_accumulator_rejects_empty_and_zero_weight():
    # an empty accumulator holds no pair (the summary writes null for it)
    empty = ErgodicAccumulator()
    assert not empty and empty.v_norms == empty.eps_bars == []
    acc = ErgodicAccumulator(alpha=lambda k: 0.0)
    with pytest.raises(ValueError, match="must be positive"):
        acc.add(_random_certs(1, 3, seed=0)[0])
    # so does the two-pass reference, whose means would read NaN otherwise
    with pytest.raises(ValueError, match="positive sum"):
        ergodic_aggregate(_random_certs(3, 2, seed=0), [0.0, 0.0, 0.0])


def test_linear_rate_factor_value_and_validation():
    rho = linear_rate_factor(kappa=2.0, sigma=0.5, theta_k=0.0, c_min=1.0,
                             Xi=1.0, omega_upper=1.0, omega_lower=1.0)
    a = 1.0 + 2.0
    b = 1.0 + math.sqrt(0.5)
    assert rho == pytest.approx(0.5 / (a ** 2 * b ** 2), rel=1e-14)
    # negative theta adds the 4 max(-theta, 0)/(1+theta)^2 term
    rho_neg = linear_rate_factor(2.0, 0.5, -0.25, 1.0, 1.0, 1.0, 1.0)
    assert rho_neg < rho
    with pytest.raises(ValueError):
        linear_rate_factor(0.0, 0.5, 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        linear_rate_factor(2.0, 0.5, 0.0, 1.0, 0.5, 1.0, 1.0)
    # the b term divides by (1 + theta_k)^2
    with pytest.raises(ValueError, match="theta_k must exceed -1"):
        linear_rate_factor(2.0, 0.5, -1.0, 1.0, 1.0, 1.0, 1.0)
    # kappa ~ 0 and sigma = 0 leave rho ~ 1 + theta_k = 6
    with pytest.raises(ValueError, match=re.escape("rho outside (0, 1)")):
        linear_rate_factor(kappa=1e-9, sigma=0.0, theta_k=5.0, c_min=1, Xi=1,
                           omega_upper=1, omega_lower=1)


def test_loglog_slope_recovers_power_law():
    ks = np.arange(1, 200, dtype=float)
    assert loglog_slope(ks, 3.0 / ks) == pytest.approx(-1.0, abs=1e-10)
    assert loglog_slope(ks, 2.0 * ks ** -0.5) == pytest.approx(-0.5, abs=1e-10)
    assert loglog_slope(np.array([1.0]), np.array([1.0])) is None
    assert loglog_slope(ks, np.zeros_like(ks)) is None


def test_write_summary_schema(tmp_path):
    K, q, _ = _affine_setup()
    cfg = HpeConfig(max_iters=50, tol_residual=0.0)
    res = hpe_core.run(make_affine_resolvent_oracle(K, q),
                       np.ones(K.shape[0]), IdentityMetric(), cfg)
    path = tmp_path / "summary.json"
    hpe_core.write_summary(path, res, {"algorithm": "test"})
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["iterations"] == 50
    assert set(data) >= {"config", "converged", "termination", "final",
                         "min_over_k", "slopes", "wall_time_s"}
    assert data["final"]["v_norm"] == res.trace.column("v_norm")[-1]
    # the slopes come from the trace's v_norm column and the accumulator
    assert isinstance(data["slopes"]["pointwise"], float)
    assert data["slopes"]["ergodic"] is None


def test_write_summary_reads_final_values_and_abort_from_the_result(
        tmp_path):
    trace = hpe_core.IterTrace(("iter", "time_s", "v_norm", "eps"))
    trace.append((1, 0.5, 2.0, 0.125))
    record = {"iteration": 2, "exception": "CriterionViolation",
              "message": "iteration 2: criterion failed", "lhs": 3.0,
              "rhs": 2.0, "slack": -1.0}
    result = hpe_core.RunResult(solution=None, trace=trace, converged=False,
                                reason="abort", iterations=1,
                                final={"pkkt": 0.25}, abort=record)
    path = tmp_path / "summary.json"
    hpe_core.write_summary(path, result, {"algorithm": "test"})
    data = json.loads(path.read_text())
    assert data["final"] == {"v_norm": 2.0, "eps": 0.125, "pkkt": 0.25}
    assert data["abort"] == record
    # an empty final block and no abort add neither key
    hpe_core.write_summary(path, dataclasses.replace(
        result, final={}, abort=None), {"algorithm": "test"})
    data = json.loads(path.read_text())
    assert data["final"] == {"v_norm": 2.0, "eps": 0.125}
    assert "abort" not in data
