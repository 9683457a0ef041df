"""The certificate's step c M^-1 v: handed over by every scheme, verified by
the kernel with one metric apply, never solved for."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg

from opsplit import cli, hpe_core, splitters
from opsplit.hpe_core import (CriterionViolation, HpeCertificate, HpeConfig,
                              NonFiniteValue, check_criterion)
from opsplit.linops import (BlockDiagonalMetric, BlockLayout, BlockPoint,
                            CallableMetric, IdentityMetric)
from opsplit.padmm_ebb import PadmmConfig, UOperator, run_padmm
from opsplit.prox_problems import ProxFn, gen_qp
from opsplit.splitters import (afbas_pd_from_qp, afbas_pd_step,
                               condat_vu_from_qp, condat_vu_step,
                               fbhf_from_qp, fbhf_step)


def _fbhf_oracle(prob, gamma, theta):
    return lambda x, M, cfg: fbhf_step(x, prob, gamma, theta, cfg.sigma)[0]


def _afbas_pd_oracle(prob):
    return lambda z, M, cfg: afbas_pd_step(z, prob, sigma=cfg.sigma)[0]


def _pt(arr):
    arr = np.asarray(arr, dtype=float)
    return BlockPoint(arr, BlockLayout((arr.size,)))


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
    inst = gen_qp(0, p=2, n_i=5, m=3)
    if scheme == "condat-vu":
        prob, tmax, _ = condat_vu_from_qp(inst, sigma=0.5)
        return prob, lambda z, M, cfg: condat_vu_step(z, prob, 0.9 * tmax,
                                                      cfg.sigma)[0]
    prob, _ = afbas_pd_from_qp(inst)
    return prob, _afbas_pd_oracle(prob)


# ---------------------------------------------------------------------------
# Operation counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["condat-vu", "afbas-pd"])
def test_kernel_run_makes_no_metric_solve(monkeypatch, scheme):
    prob, oracle = _saddle_scheme(scheme)
    counts = _count_calls(monkeypatch, CallableMetric, ("apply", "solve"))
    cfg = HpeConfig(sigma=0.5, max_iters=5000, tol_residual=1e-8)
    res = hpe_core.run(oracle, BlockPoint.zeros(prob.layout), prob.metric(),
                       cfg)
    assert res.converged
    assert counts["solve"] == 0
    # the oracle's own apply, the step check and M (y - x)
    assert counts["apply"] == 3 * res.iterations


def test_run_padmm_one_U_apply_and_one_solve_per_iteration(monkeypatch):
    inst = gen_qp(0, p=2, n_i=5, m=3)
    u_counts = _count_calls(monkeypatch, UOperator, ("apply",))
    m_counts = _count_calls(monkeypatch, BlockDiagonalMetric, ("solve",))
    res = run_padmm(inst.problem, PadmmConfig(max_iters=5000, tol=1e-8))
    assert res.converged and res.iterations > 0
    assert u_counts["apply"] == res.iterations
    assert m_counts["solve"] == res.iterations


@pytest.mark.parametrize("algorithm", ["fbhf", "ppg", "condat-vu", "afbas-pd"])
def test_splitter_solve_makes_no_cho_solve_call(monkeypatch, tmp_path, capsys,
                                                algorithm):
    # prefactored solves call LAPACK potrs directly (scipy's cho_solve was
    # called 4 times per afbas-pd and once per fbhf or ppg iteration)
    calls = [0]
    original = scipy.linalg.cho_solve

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_solve", counted)
    summary = tmp_path / "s.json"
    code = cli.main(["solve", "--algorithm", algorithm,
                     "--problem", "qp:seed=0", "--max-iters", "50",
                     "--summary", str(summary)])
    assert code == 0
    assert json.loads(summary.read_text())["iterations"] == 50
    assert calls[0] == 0


# ---------------------------------------------------------------------------
# The step check can fail
# ---------------------------------------------------------------------------


def test_step_off_by_1e6_relative_is_rejected():
    prob, oracle = _saddle_scheme("condat-vu")

    def skewed(z, M, cfg):
        cert = oracle(z, M, cfg)
        cert.step = cert.step * (1.0 + 1e-6)
        return cert

    cfg = HpeConfig(sigma=0.5, max_iters=5)
    with pytest.raises(CriterionViolation, match="iteration 1: .*deviates"):
        hpe_core.run(skewed, BlockPoint.zeros(prob.layout), prob.metric(), cfg)


def test_certificate_without_step_is_rejected():
    prob, oracle = _saddle_scheme("afbas-pd")

    def stepless(z, M, cfg):
        return dataclasses.replace(oracle(z, M, cfg), step=None)

    cfg = HpeConfig(sigma=0.5, max_iters=5)
    with pytest.raises(CriterionViolation, match="no step"):
        hpe_core.run(stepless, BlockPoint.zeros(prob.layout), prob.metric(),
                     cfg)


@pytest.mark.parametrize("entry", ["y", "v", "step", "eps"])
def test_non_finite_entry_is_named(entry):
    x = _pt([2.0, 0.0])
    parts = {"y": _pt([1.0, 0.0]), "v": _pt([1.0, 0.0]),
             "step": _pt([1.0, 0.0]), "eps": 0.0}
    parts[entry] = float("nan") if entry == "eps" else _pt([np.nan, 0.0])
    cert = HpeCertificate(c=1.0, theta=0.0, **parts)
    with pytest.raises(CriterionViolation, match="non-finite %s" % entry):
        check_criterion(x, cert, IdentityMetric(), sigma=0.5)


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
    prob, gamma, _, _ = fbhf_from_qp(gen_qp(0, p=2, n_i=5, m=3))
    prob = dataclasses.replace(prob,
                               resolvent=_nan_from_call(prob.resolvent, 3))
    with pytest.raises(NonFiniteValue, match="iteration 3: non-finite y") as exc:
        hpe_core.run(_fbhf_oracle(prob, gamma, 0.0),
                     BlockPoint.zeros(prob.layout), IdentityMetric(),
                     HpeConfig(sigma=0.5, max_iters=50))
    assert isinstance(exc.value, CriterionViolation)
    assert exc.value.iteration == 3 and len(exc.value.trace) == 2


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
        prob, gamma, _, _ = _with_nan_from_call_3(fbhf_from_qp(inst), "B1")
        return prob, _fbhf_oracle(prob, gamma, 0.0), IdentityMetric()
    prob, _ = _with_nan_from_call_3(afbas_pd_from_qp(inst), "grad_f")
    return prob, _afbas_pd_oracle(prob), prob.metric()


@pytest.mark.parametrize("scheme", ["fbhf", "afbas-pd"])
def test_nan_through_a_prefactored_solve_is_a_non_finite_value(scheme):
    # the NaN reaches the affine projector (fbhf) or solve_S (afbas-pd) in
    # iteration 3; the solve passes it on and the kernel names it
    prob, oracle, M = _nan_scheme(scheme)
    with pytest.raises(NonFiniteValue, match="iteration 3: non-finite y") as exc:
        hpe_core.run(oracle, BlockPoint.zeros(prob.layout), M,
                     HpeConfig(sigma=0.5, max_iters=50))
    assert exc.value.iteration == 3 and len(exc.value.trace) == 2


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
    # the prox of block 0 returns a NaN from its 7th call on: the pKKT
    # residual and the sweep of iteration 4 call it for the 7th and 8th time
    inst = gen_qp(0, p=2, n_i=5, m=3)
    zero = ProxFn.zero()
    bad = ProxFn(_nan_from_call(zero.evaluate, 7), zero.value_fn)
    prob = dataclasses.replace(inst.problem, gs=[bad, zero])
    with pytest.raises(NonFiniteValue, match="iteration 4: non-finite") as exc:
        run_padmm(prob, PadmmConfig(max_iters=50))
    assert exc.value.iteration == 4 and len(exc.value.trace) == 3


def test_kept_certificates_drop_their_step():
    # no certificate, step or other vector outlives its iteration: trace
    # records hold numbers only, and results hold only the final iterate
    prob, oracle = _saddle_scheme("condat-vu")
    res = hpe_core.run(oracle, BlockPoint.zeros(prob.layout), prob.metric(),
                       HpeConfig(sigma=0.5, max_iters=20, tol_residual=0.0))
    inst = gen_qp(0, p=2, n_i=5, m=3)
    pres = run_padmm(inst.problem, PadmmConfig(max_iters=20, tol=0.0))
    for result in (res, pres):
        assert len(result.trace) == 20
        for rec in result.trace:
            fields = dict(vars(rec), **rec.extras)
            del fields["extras"]
            assert all(isinstance(val, (int, float)) for val in fields.values())
    assert set(vars(pres)) == {"z", "x_blocks", "y", "trace", "converged",
                               "reason", "iterations", "final_pkkt"}
