"""The certificate's step c M^-1 v: handed over by every scheme, verified by
the kernel with one metric apply, never solved for."""

import dataclasses
import json

import numpy as np
import pytest

from opsplit import cli, hpe_core, splitters
from opsplit.hpe_core import (CriterionViolation, HpeCertificate, HpeConfig,
                              NonFiniteValue, check_criterion)
from opsplit.linops import BlockDiagonalMetric, DenseMetric, IdentityMetric
from opsplit.padmm_ebb import UOperator, run_padmm
from opsplit.prox_problems import ProxFn, gen_qp
from opsplit.splitters import (afbas_pd_from_qp, afbas_pd_step,
                               condat_vu_from_qp, condat_vu_step,
                               fbhf_from_qp, fbhf_step)


def _fbhf_oracle(prob, theta):
    return lambda x, M, cfg: fbhf_step(x, prob, theta)


def _afbas_pd_oracle(prob):
    return lambda z, M, cfg: afbas_pd_step(z, prob, sigma=cfg.sigma)


def _pt(arr):
    return np.asarray(arr, dtype=float)


def _count_calls(monkeypatch, cls, names):
    """Wrap methods of ``cls`` so that every call is counted by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cls, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return counts


def _saddle_scheme(scheme):
    """(problem, oracle, z_0) of a saddle scheme on qp:seed=0."""
    inst = gen_qp(0, p=2, n_i=5, m=3)
    if scheme == "condat-vu":
        prob, tmax, ref = condat_vu_from_qp(inst, sigma=0.5)
        return (prob, lambda z, M, cfg: condat_vu_step(z, prob, 0.9 * tmax),
                np.zeros(ref.size))
    prob, _, ref = afbas_pd_from_qp(inst)
    return prob, _afbas_pd_oracle(prob), np.zeros(ref.size)


# ---------------------------------------------------------------------------
# Operation counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["condat-vu", "afbas-pd"])
def test_kernel_run_makes_no_metric_solve(monkeypatch, scheme):
    prob, oracle, z0 = _saddle_scheme(scheme)
    counts = _count_calls(monkeypatch, DenseMetric, ("apply", "solve"))
    cfg = HpeConfig(sigma=0.5, max_iters=5000, tol_residual=1e-8)
    res = hpe_core.run(oracle, z0, prob.metric(), cfg)
    assert res.converged
    assert counts["solve"] == 0
    # the oracle's own apply, the step check and M (y - x)
    assert counts["apply"] == 3 * res.iterations


@pytest.mark.parametrize("scheme", ["condat-vu", "afbas-pd"])
def test_saddle_metric_applies_never_reach_B(monkeypatch, scheme):
    # the metric is one assembled matrix: B is applied only by the step,
    # once forward and once adjoint
    prob, oracle, z0 = _saddle_scheme(scheme)
    counts = {"apply": 0, "adjoint_apply": 0}

    class Counted:
        def __init__(self, matrix, name):
            self.matrix, self.name = matrix, name

        @property
        def T(self):
            return Counted(self.matrix.T, "adjoint_apply")

        def __matmul__(self, u):
            counts[self.name] += 1
            return self.matrix @ u

    monkeypatch.setattr(prob, "B", Counted(prob.B, "apply"))
    res = hpe_core.run(oracle, z0, prob.metric(),
                       HpeConfig(sigma=0.5, max_iters=5000, tol_residual=1e-8))
    assert res.converged
    assert counts == {"apply": res.iterations,
                      "adjoint_apply": res.iterations}


def _saddle_operator(prob, u):
    """M u from products with B and B*: [[r I, -B*], [-B, s I]] u for
    Condat-Vu, R S^-1 u for afbas-pd, with S^-1 through its primal Schur
    complement."""
    B, nx = prob.B, prob.dim_x
    a, b = u[:nx], u[nx:]
    if isinstance(prob, splitters.CondatVuProblem):
        return np.concatenate([prob.r * a - B.T @ b, -(B @ a) + prob.s * b])
    c1 = prob.mu * prob.gamma1 * (2.0 - prob.theta)
    c2 = prob.gamma2 * (1.0 - prob.mu) * (2.0 - prob.theta)
    schur = np.eye(nx) + c1 * c2 * (B.T @ B)
    a = np.linalg.solve(schur, a + c1 * (B.T @ b))
    b = b - c2 * (B @ a)
    return np.concatenate([a / prob.gamma1 - B.T @ b,
                           (1.0 - prob.theta) * (B @ a) + b / prob.gamma2])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("scheme,opts", [
    ("condat-vu", {}), ("afbas-pd", {}),
    ("afbas-pd", {"theta": 0.5, "mu": 0.0}),
    ("afbas-pd", {"theta": 2.5, "mu": 0.5})])
def test_dense_saddle_metric_equals_its_operator(scheme, opts, seed):
    inst = gen_qp(seed, p=2, n_i=5, m=3)
    prob = (condat_vu_from_qp(inst, 0.5)[0] if scheme == "condat-vu"
            else afbas_pd_from_qp(inst, **opts)[0])
    rng = np.random.default_rng(seed)
    for _ in range(5):
        u = rng.standard_normal(prob.dim_x + prob.dim_y)
        want = _saddle_operator(prob, u)
        got = prob.metric().apply(u)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("theta", [0.5, 2.5])
@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_afbas_pd_with_step_shaper_passes_every_step_check(theta, mu, seed):
    # theta != 2 makes S != I, so both R d and S d are full products
    prob, _, ref = afbas_pd_from_qp(gen_qp(seed, p=2, n_i=5, m=3),
                                    theta=theta, mu=mu)
    res = hpe_core.run(_afbas_pd_oracle(prob), np.zeros(ref.size),
                       prob.metric(),
                       HpeConfig(sigma=0.5, max_iters=5000, tol_residual=1e-8),
                       ref_solution=ref)
    assert res.converged and res.reason == "residual"
    assert min(res.trace.column("criterion_slack")) >= 0.0
    assert res.trace.column("dist_to_ref")[-1] <= 1e-6


@pytest.mark.parametrize("algorithm, applies", [
    ("padmm-ebb", 3), ("fbhf", 2), ("ppg", 2), ("condat-vu", 3),
    ("afbas-pd", 3)])
def test_cli_qp_solve_makes_no_gate_only_metric_apply(monkeypatch, tmp_path,
                                                      capsys, algorithm,
                                                      applies):
    # the CLI writes no dist_M_sq column, so its QP solves skip the metric
    # apply behind it: the step check and M (y - x), plus the step's own
    # apply in padmm-ebb's Gamma form and in the primal-dual steps
    counts = {}
    for cls in (IdentityMetric, BlockDiagonalMetric, DenseMetric):
        counts[cls] = _count_calls(monkeypatch, cls, ("apply",))
    summary = tmp_path / "summary.json"
    assert cli.main(["solve", "--algorithm", algorithm,
                     "--problem", "qp:seed=0,p=2,n=5,m=3", "--tol", "1e-8",
                     "--max-iters", "5000", "--trace",
                     str(tmp_path / "trace.csv"),
                     "--summary", str(summary)]) == 0
    capsys.readouterr()
    iterations = json.loads(summary.read_text())["iterations"]
    total = sum(c["apply"] for c in counts.values())
    assert iterations > 0 and total == applies * iterations


def test_run_padmm_one_U_apply_and_one_solve_per_iteration(monkeypatch):
    inst = gen_qp(0, p=2, n_i=5, m=3)
    u_counts = _count_calls(monkeypatch, UOperator, ("apply",))
    m_counts = _count_calls(monkeypatch, BlockDiagonalMetric, ("solve",))
    res = run_padmm(inst.problem, HpeConfig(sigma=0.9, max_iters=5000,
                                            tol_residual=1e-8))
    assert res.converged and res.iterations > 0
    assert u_counts["apply"] == res.iterations
    assert m_counts["solve"] == res.iterations


# ---------------------------------------------------------------------------
# The step check can fail
# ---------------------------------------------------------------------------


def test_step_off_by_1e6_relative_is_rejected():
    prob, oracle, z0 = _saddle_scheme("condat-vu")

    def skewed(z, M, cfg):
        cert = oracle(z, M, cfg)
        cert.step = cert.step * (1.0 + 1e-6)
        return cert

    cfg = HpeConfig(sigma=0.5, max_iters=5)
    with pytest.raises(CriterionViolation, match="iteration 1: .*deviates"):
        hpe_core.run(skewed, z0, prob.metric(), cfg)


def test_certificate_without_step_is_rejected():
    prob, oracle, z0 = _saddle_scheme("afbas-pd")

    def stepless(z, M, cfg):
        return dataclasses.replace(oracle(z, M, cfg), step=None)

    cfg = HpeConfig(sigma=0.5, max_iters=5)
    with pytest.raises(CriterionViolation, match="no step"):
        hpe_core.run(stepless, z0, prob.metric(), cfg)


@pytest.mark.parametrize("entry", ["y", "v", "step", "eps"])
def test_non_finite_entry_is_named(entry):
    x = _pt([2.0, 0.0])
    parts = {"y": _pt([1.0, 0.0]), "v": _pt([1.0, 0.0]),
             "step": _pt([1.0, 0.0]), "eps": 0.0}
    parts[entry] = float("nan") if entry == "eps" else _pt([np.nan, 0.0])
    cert = HpeCertificate(c=1.0, theta=0.0, **parts)
    with pytest.raises(CriterionViolation, match="non-finite %s" % entry):
        check_criterion(x, cert, IdentityMetric(), sigma=0.5)


@pytest.mark.parametrize("c", [float("nan"), float("inf")])
def test_a_non_finite_c_is_named(c):
    # y, v, step and eps are finite: a NaN c used to abort on the step check
    # and an infinite one on a NaN criterion lhs, neither naming c
    cert = HpeCertificate(y=_pt([1.0, 1.0]), v=_pt([1.0, 1.0]), eps=0.0,
                          c=c, step=_pt([1.0, 1.0]))
    with pytest.raises(NonFiniteValue,
                       match="iteration 1: non-finite c$") as exc:
        hpe_core.run(lambda x, M, cfg: cert, _pt([2.0, 0.0]),
                     IdentityMetric(), HpeConfig(sigma=0.5, max_iters=5))
    assert exc.value.result.reason == "non_finite"


def _nan_from_call(fn, first_bad):
    """Wrap ``fn`` so that its result holds a NaN from call ``first_bad`` on."""
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        out = np.array(fn(*args), dtype=float)
        if calls[0] >= first_bad:
            out.flat[0] = np.nan
        return out

    return wrapped


def test_nan_through_a_splitter_oracle_is_a_non_finite_value():
    prob, _, _ = fbhf_from_qp(gen_qp(0, p=2, n_i=5, m=3), 0.5)
    prob = dataclasses.replace(prob,
                               resolvent=_nan_from_call(prob.resolvent, 3))
    with pytest.raises(NonFiniteValue, match="iteration 3: non-finite y") as exc:
        hpe_core.run(_fbhf_oracle(prob, 0.0),
                     np.zeros(prob.dim), IdentityMetric(),
                     HpeConfig(sigma=0.5, max_iters=50))
    assert isinstance(exc.value, CriterionViolation)
    res = exc.value.result
    assert res.abort["iteration"] == 3 and len(res.trace) == 2


def _with_nan_from_call_3(built, entry):
    """A scheme builder's output whose problem has ``entry`` return a NaN
    from its third call on."""
    prob = built[0]
    prob = dataclasses.replace(
        prob, **{entry: _nan_from_call(getattr(prob, entry), 3)})
    return (prob,) + tuple(built[1:])


def _nan_scheme(scheme):
    inst = gen_qp(0, p=2, n_i=5, m=3)
    if scheme == "fbhf":
        prob, _, ref = _with_nan_from_call_3(fbhf_from_qp(inst, 0.5), "B1")
        return _fbhf_oracle(prob, 0.0), IdentityMetric(), np.zeros(ref.size)
    prob, _, ref = _with_nan_from_call_3(afbas_pd_from_qp(inst), "grad_f")
    return _afbas_pd_oracle(prob), prob.metric(), np.zeros(ref.size)


@pytest.mark.parametrize("scheme", ["fbhf", "afbas-pd"])
def test_nan_through_a_prefactored_solve_is_a_non_finite_value(scheme):
    # the NaN reaches the affine projector's matvec (fbhf) or the dense R and
    # S products (afbas-pd) in iteration 3; they pass it on and the kernel
    # names it
    oracle, M, x0 = _nan_scheme(scheme)
    with pytest.raises(NonFiniteValue, match="iteration 3: non-finite y") as exc:
        hpe_core.run(oracle, x0, M,
                     HpeConfig(sigma=0.5, max_iters=50))
    res = exc.value.result
    assert res.abort["iteration"] == 3 and len(res.trace) == 2


def test_afbas_pd_step_without_an_admissible_step_aborts_the_run():
    # a metric 100 times too large leaves no step along the first direction
    # that meets the criterion; the step names it as padmm-ebb's step range
    # does, and the kernel names the iteration
    prob, _, ref = afbas_pd_from_qp(gen_qp(0, p=2, n_i=5, m=3))
    prob._metric = DenseMetric(100.0 * prob._metric.matrix)
    with pytest.raises(CriterionViolation,
                       match="iteration 1: no admissible step") as exc:
        hpe_core.run(_afbas_pd_oracle(prob), np.zeros(ref.size),
                     prob.metric(), HpeConfig(sigma=0.5, max_iters=50))
    assert exc.value.result.abort["exception"] == "CriterionViolation"


@pytest.mark.parametrize("algorithm,builder,entry",
                         [("fbhf", "fbhf_from_qp", "B1"),
                          ("afbas-pd", "afbas_pd_from_qp", "grad_f")])
def test_nan_through_a_prefactored_solve_is_non_finite_in_the_summary(
        monkeypatch, tmp_path, capsys, algorithm, builder, entry):
    original = getattr(splitters, builder)
    monkeypatch.setattr(splitters, builder,
                        lambda *a, **k: _with_nan_from_call_3(
                            original(*a, **k), entry))
    summary = tmp_path / "s.json"
    code = cli.main(["solve", "--algorithm", algorithm,
                     "--problem", "qp:seed=0", "--summary", str(summary)])
    assert code == 3
    data = json.loads(summary.read_text())
    assert data["termination"] == "non_finite"
    assert data["abort"]["exception"] == "NonFiniteValue"
    assert data["abort"]["iteration"] == 3


def test_nan_through_run_padmm_is_a_non_finite_value():
    # the prox of block 0 returns a NaN from its 7th call on; the pKKT stop
    # test decides on the dual row, so only the sweep calls it, and the
    # sweep of iteration 7 calls it for the 7th time
    inst = gen_qp(0, p=2, n_i=5, m=3)
    zero = ProxFn.zero()
    bad = ProxFn(_nan_from_call(zero.evaluate, 7), zero.value_fn)
    prob = dataclasses.replace(inst.problem, gs=[bad, zero])
    with pytest.raises(NonFiniteValue, match="iteration 7: non-finite") as exc:
        run_padmm(prob, HpeConfig(sigma=0.9, max_iters=50))
    res = exc.value.result
    assert res.abort["iteration"] == 7 and len(res.trace) == 6


def test_every_algorithm_hands_the_kernel_and_the_caller_plain_arrays():
    # a point of a product space is one flat float64 array, from each step
    # and the multi-block oracle through the kernel to the result
    inst = gen_qp(0, p=2, n_i=5, m=3)
    runs = []
    for scheme in splitters.SCHEMES.values():
        oracle, M0, x0, _ = scheme.setup(inst, 0.5)
        certs = hpe_core.CertificateRecorder()
        res = hpe_core.run(oracle, x0, M0, HpeConfig(sigma=0.5, max_iters=20,
                                                     tol_residual=0.0),
                           accumulators=[certs])
        runs.append((res, certs))
    certs = hpe_core.CertificateRecorder()
    res = run_padmm(inst.problem, HpeConfig(sigma=0.9, max_iters=20,
                                            tol_residual=0.0),
                    accumulators=[certs])
    runs.append((res, certs))
    for res, certs in runs:
        assert len(certs) == 20
        points = [res.solution] + [getattr(cert, name) for cert in certs
                                   for name in ("y", "v", "step")]
        for point in points:
            assert type(point) is np.ndarray and point.dtype == np.float64
            assert point.shape == res.solution.shape == (point.size,)


def test_kept_certificates_drop_their_step():
    # no certificate, step or other vector outlives its iteration: trace
    # rows hold numbers only, and results hold only the final iterate
    prob, oracle, z0 = _saddle_scheme("condat-vu")
    res = hpe_core.run(oracle, z0, prob.metric(),
                       HpeConfig(sigma=0.5, max_iters=20, tol_residual=0.0))
    inst = gen_qp(0, p=2, n_i=5, m=3)
    pres = run_padmm(inst.problem, HpeConfig(sigma=0.9, max_iters=20,
                                             tol_residual=0.0))
    for result in (res, pres):
        assert len(result.trace) == 20
        for row in result.trace:
            assert type(row) is tuple and len(row) == len(result.trace.columns)
            assert all(isinstance(val, (int, float)) for val in row)
    # one result type for every solver; only the multi-block solver fills
    # in final values of its own, and neither run aborted
    for result in (res, pres):
        assert set(vars(result)) == {"solution", "trace", "converged",
                                     "reason", "iterations", "final", "abort"}
        assert result.abort is None
    assert res.final == {} and sorted(pres.final) == ["Xi", "pkkt"]
    assert all(isinstance(val, float) for val in pres.final.values())
