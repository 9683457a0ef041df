"""Acceptance gate: one test per end-to-end criterion.

Each test runs the corresponding checker from :mod:`opsplit.acceptance`,
prints its PASS/FAIL line, and asserts the verdict.  Run with ``-s`` to see
the lines as they complete.  The mutant tests at the end inject the fault a
gate exists to catch and assert that the gate rejects it.
"""

import re

from opsplit import acceptance, hpe_core, padmm_ebb, prox_problems, splitters


def _gate(check):
    result = check()
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_invariance():
    _gate(acceptance.check_criterion_invariance)


def test_fejer_contraction():
    _gate(acceptance.check_fejer_contraction)


def test_pointwise_bounds():
    _gate(acceptance.check_pointwise_bounds)


def test_ergodic_rate():
    _gate(acceptance.check_ergodic_rate)


def test_padmm_qp_equivalence():
    _gate(acceptance.check_padmm_qp_equivalence)


def test_direct_vs_kernel():
    _gate(acceptance.check_direct_vs_kernel)


def test_local_linear_rate():
    _gate(acceptance.check_local_linear_rate)


def test_theta_acceleration():
    _gate(acceptance.check_theta_acceleration)


def test_bb_acceleration():
    _gate(acceptance.check_bb_acceleration)


def test_lrr_desk_scale():
    _gate(acceptance.check_lrr_desk_scale)


def test_prox_correctness():
    _gate(acceptance.check_prox_correctness)


def _numbers(pattern, detail):
    return [float(x) for x in re.search(pattern, detail).groups()]


def test_local_linear_rate_rejects_a_stalled_run(monkeypatch):
    # from the 101st step on the iterate stays put: every tail ratio is 1,
    # which the old bound 1 - rho/2 + 0.05 accepted
    real, calls = hpe_core.extragradient_step, [0]

    def stalling_step(x, cert):
        calls[0] += 1
        return x if calls[0] > 100 else real(x, cert)

    monkeypatch.setattr(hpe_core, "extragradient_step", stalling_step)
    result = acceptance.check_local_linear_rate()
    worst, rho = _numbers(r"max tail ratio ([\d.]+) .*\(rho=([\d.]+)",
                          result.detail)
    assert worst == 1.0 <= 1.0 - rho / 2.0 + 0.05
    assert not result.passed


def test_fejer_contraction_rejects_an_overlong_step(monkeypatch):
    # a correction 1.5 times the certified (1 + theta) c M^-1 v overshoots
    # the contraction; each certificate still meets the criterion, so only
    # the Fejer gate, which reads the gate columns, can catch it
    def overlong_step(x, cert):
        return x - 1.5 * (1.0 + cert.theta) * cert.step

    monkeypatch.setattr(hpe_core, "extragradient_step", overlong_step)
    acceptance._invariance_runs.cache_clear()
    try:
        result = acceptance.check_fejer_contraction()
        invariance = acceptance.check_criterion_invariance()
    finally:
        acceptance._invariance_runs.cache_clear()
    (worst,) = _numbers(r"worst relative violation (\S+)", result.detail)
    assert worst > 1.0
    assert not result.passed
    assert invariance.passed


def test_theta_acceleration_rejects_a_zero_over_relaxation(monkeypatch):
    # a kernel cap of 0 makes the adaptive run the theta = 0 run, whose
    # equal median the old test median_adaptive <= median_0 accepted
    monkeypatch.setattr(hpe_core, "THETA_CAP", 0.0)
    acceptance._padmm_qp_runs.cache_clear()
    try:
        result = acceptance.check_theta_acceleration()
    finally:
        acceptance._padmm_qp_runs.cache_clear()
    med_a, med_0 = _numbers(r"adaptive (\d+) vs theta=0 (\d+)",
                            result.detail)
    assert med_a == med_0
    assert not result.passed


def test_pointwise_bounds_rejects_a_short_correction(monkeypatch):
    # a correction of 1% of the certified (1 + theta) c M^-1 v still meets
    # the criterion at every step, but the iterate creeps towards the
    # solution, and its best ||v|| soon exceeds the pointwise bound
    def short_step(x, cert):
        return x - 0.01 * (1.0 + cert.theta) * cert.step

    monkeypatch.setattr(hpe_core, "extragradient_step", short_step)
    result = acceptance.check_pointwise_bounds()
    (worst,) = _numbers(r"max best_v/bound_v (\S+),", result.detail)
    assert worst > 1.0
    assert not result.passed


def test_bb_acceleration_rejects_a_frozen_metric(monkeypatch):
    # a BB update that keeps the previous scalars leaves the start metric in
    # place whatever xi0 is: the run at the default xi0 is the xi0 = 0 run,
    # whose equal median the gate must reject
    monkeypatch.setattr(padmm_ebb, "bb_metric_update",
                        lambda prev, nums, dens, xi_k: list(prev))
    acceptance._padmm_qp_runs.cache_clear()
    try:
        result = acceptance.check_bb_acceleration()
    finally:
        acceptance._padmm_qp_runs.cache_clear()
    med_bb, med_0 = _numbers(r"xi0=1 ([\d.]+) vs xi0=0 ([\d.]+)",
                             result.detail)
    assert med_bb == med_0
    assert not result.passed


def test_prox_correctness_rejects_a_scaled_nuclear_prox(monkeypatch):
    # a nuclear prox 1e-6 too long breaks the Moreau identity
    real = acceptance.prox_nuclear
    monkeypatch.setattr(acceptance, "prox_nuclear",
                        lambda t, V: (1.0 + 1e-6) * real(t, V))
    result = acceptance.check_prox_correctness()
    (worst,) = _numbers(r"worst residual (\S+)", result.detail)
    assert worst > 1e-10
    assert not result.passed


def test_padmm_qp_equivalence_rejects_an_under_reported_residual(monkeypatch):
    # a stop test that reads the residual 20 times too small ends every run
    # early, yet max |z - z*| (3.6e-7) stays under its 1e-6 bound: only the
    # KKT residual recomputed from the final point (2.0e-7) catches it
    real = padmm_ebb.pkkt_residual

    def under_reported(xs, y, problem, grads=None, tol=None, Ay=None):
        res, norm = real(xs, y, problem, grads=grads, Ay=Ay)
        return res, norm / 20.0

    monkeypatch.setattr(padmm_ebb, "pkkt_residual", under_reported)
    acceptance._padmm_qp_runs.cache_clear()
    try:
        result = acceptance.check_padmm_qp_equivalence()
    finally:
        acceptance._padmm_qp_runs.cache_clear()
    err, kkt = _numbers(r"max \|z - z\*\| (\S+), max KKT residual (\S+),",
                        result.detail)
    assert err <= 1e-6
    assert kkt > 1e-8
    assert not result.passed


def test_direct_vs_kernel_rejects_a_scaled_step(monkeypatch):
    # a kernel correction 1e-9 too long drifts from the native Condat-Vu
    # updates by about 4e-10 relative, far past the 1e-12 bound
    def scaled_step(x, cert):
        return x - (1.0 + 1e-9) * (1.0 + cert.theta) * cert.step

    monkeypatch.setattr(hpe_core, "extragradient_step", scaled_step)
    result = acceptance.check_direct_vs_kernel()
    (worst,) = _numbers(r"max relative deviation (\S+)", result.detail)
    assert worst > 1e-12
    assert not result.passed


def test_ergodic_rate_rejects_an_accumulator_without_the_yv_sum(monkeypatch):
    # eps_bar without sum w <y, v> stays nonnegative and the slopes hold, so
    # the old gate passed it; the two-pass sum is off by more than 100%
    real = hpe_core.ErgodicAccumulator.add

    def dropping_add(self, cert):
        real(self, cert)
        self.eps_bars[-1] -= self.sum_wyv / self.sum_w

    monkeypatch.setattr(hpe_core.ErgodicAccumulator, "add", dropping_add)
    result = acceptance.check_ergodic_rate()
    devs = _numbers(r"alpha=1: .*deviation (\S+); alpha=k: .*deviation (\S+)",
                    result.detail)
    assert min(devs) > 1.0
    assert not result.passed


def test_criterion_invariance_rejects_a_theta_past_its_bound(monkeypatch):
    # the criterion check reports its failures without raising, and the
    # three bounded splitters' steps set their theta explicitly, 1 above the
    # criterion's root at the battery's sigma, which the kernel takes as it
    # is: their certificates break the criterion, and only the gate can say
    # so
    check = hpe_core.check_criterion

    def reporting(x, cert, M, sigma):
        try:
            return check(x, cert, M, sigma)
        except hpe_core.CriterionViolation as exc:
            assert str(exc).startswith("criterion failed")
            return exc.report

    def past_the_root(real):
        def step(x, p, theta=None):
            cert = real(x, p)
            cert.theta = hpe_core.criterion_root(x, cert, p.metric(),
                                                 0.5) + 1.0
            return cert
        return step

    monkeypatch.setattr(hpe_core, "check_criterion", reporting)
    for name in ("fbhf_step", "ppg_step", "condat_vu_step"):
        monkeypatch.setattr(splitters, name,
                            past_the_root(getattr(splitters, name)))
    acceptance._invariance_runs.cache_clear()
    try:
        result = acceptance.check_criterion_invariance()
    finally:
        acceptance._invariance_runs.cache_clear()
    (worst,) = _numbers(r"min relative slack (\S+),", result.detail)
    assert worst < -1.0
    assert not result.passed


def test_lrr_desk_scale_rejects_a_long_nuclear_threshold(monkeypatch):
    # a nuclear prox thresholding at 1.001 t converges to its own fixed
    # point: the solve's residual still reads 9.85e-4 after 388 iterations,
    # and only the one recomputed with the spectral-ball projection (9.0e-3)
    # sees it
    real = prox_problems.prox_nuclear
    monkeypatch.setattr(prox_problems, "prox_nuclear",
                        lambda t, V: real(1.001 * t, V))
    result = acceptance.check_lrr_desk_scale()
    own, recomputed = _numbers(r"residual (\S+) \(recomputed (\S+)\)",
                               result.detail)
    assert own <= 1e-3 < recomputed
    assert not result.passed
