"""The certificate's step c M^-1 v: handed over by every scheme, verified by
the kernel with one metric apply, never solved for."""

import dataclasses

import numpy as np
import pytest

from opsplit import hpe_core
from opsplit.hpe_core import (CriterionViolation, HpeCertificate, HpeConfig,
                              check_criterion)
from opsplit.linops import (BlockDiagonalMetric, BlockLayout, BlockPoint,
                            CallableMetric, IdentityMetric)
from opsplit.padmm_ebb import PadmmConfig, UOperator, run_padmm
from opsplit.prox_problems import gen_qp
from opsplit.splitters import (afbas_pd_from_qp, condat_vu_from_qp,
                               make_afbas_pd_oracle, make_condat_vu_oracle)


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
        return prob, make_condat_vu_oracle(prob, 0.9 * tmax)
    prob, _ = afbas_pd_from_qp(inst)
    return prob, make_afbas_pd_oracle(prob)


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
