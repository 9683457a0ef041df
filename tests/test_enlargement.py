"""Exact enlargement check of the splitters' eps on the QP codings.

Each QP coding's operator is affine, so the smallest eps that certifies
v in T^eps(y) has a closed form, eps* = (1/4) r^T S^+ r (``support``'s dense
references).  Every certified step of fbhf, ppg, Condat-Vu and afbas-pd on
QP seeds 0-9 at sigma 0.5 and 0.9 must carry an eps at least eps*, up to
rounding, and r must lie in range(S), where eps* is finite.
"""

import numpy as np
import pytest

from opsplit import hpe_core, splitters
from opsplit.hpe_core import HpeConfig
from opsplit.prox_problems import gen_qp

from support import fbhf_enlargement, ppg_enlargement, primal_dual_enlargement

REFERENCES = {"fbhf": lambda inst, prob: fbhf_enlargement(inst),
              "ppg": lambda inst, prob: ppg_enlargement(prob),
              "condat-vu": lambda inst, prob: primal_dual_enlargement(inst),
              "afbas-pd": lambda inst, prob: primal_dual_enlargement(inst)}


def _worst(scheme, sigma, seeds=range(10), max_iters=5000):
    """(largest eps* excess over the allowance, largest off-range part) of
    every certificate ``scheme``'s steps hand the kernel on the QP seeds,
    in at most ``max_iters`` iterations;
    the excess is (eps* - eps (1 + 1e-9)) / (1e-14 (1 + ||r||^2)), over
    the allowance where it exceeds 1.  A run an uncertified step aborts
    still counts the certificates before it and that step's own."""
    worst_excess = worst_off = -np.inf
    for seed in seeds:
        inst = gen_qp(seed, p=2, n_i=5, m=3)
        prob, ref = splitters.SCHEMES[scheme].build(inst, sigma)
        eps_star = REFERENCES[scheme](inst, prob)
        certs = []

        def oracle(x, M, cfg):
            cert = splitters.SCHEMES[scheme].step(x, prob, cfg.sigma)
            certs.append(cert)
            return cert

        try:
            hpe_core.run(oracle, np.zeros(ref.size), prob.metric(),
                         HpeConfig(sigma=sigma, max_iters=max_iters,
                                   tol_residual=1e-8))
        except (hpe_core.CriterionViolation, ValueError):
            pass
        for cert in filter(None, certs):
            eps, r_norm, off = eps_star(cert.y, cert.v)
            worst_excess = max(worst_excess, (eps - cert.eps * (1.0 + 1e-9))
                               / (1e-14 * (1.0 + r_norm ** 2)))
            worst_off = max(worst_off, off)
    return worst_excess, worst_off


@pytest.mark.parametrize("sigma", [0.5, 0.9])
@pytest.mark.parametrize("scheme", ["fbhf", "ppg", "condat-vu", "afbas-pd"])
def test_every_certified_eps_covers_the_exact_enlargement(scheme, sigma):
    # fbhf, ppg and Condat-Vu price eps by the Hessian, which is eps*
    # itself in exact arithmetic; afbas-pd's (L/4)||dx||^2 lies above it
    excess, off = _worst(scheme, sigma)
    assert excess <= 1.0, excess
    assert off <= 1e-12, off


@pytest.mark.parametrize("mutant", [lambda eps: 0.25 * eps, lambda eps: -eps],
                         ids=["quarter-eps", "flipped-sign"])
@pytest.mark.parametrize("scheme", ["fbhf", "ppg", "condat-vu"])
def test_the_enlargement_check_rejects_a_short_eps(monkeypatch, scheme,
                                                   mutant):
    # a quarter of the curvature eps, or its negative, no longer covers
    # eps*: the check fails within 20 steps of the first seed
    real = splitters._curvature_eps
    monkeypatch.setattr(splitters, "_curvature_eps",
                        lambda d, Q, L: mutant(real(d, Q, L)))
    excess, _ = _worst(scheme, 0.9, seeds=range(1), max_iters=20)
    assert excess > 1.0, excess
