"""Two-pass ergodic aggregates over stored certificates: the reference that
the online :class:`opsplit.hpe_core.ErgodicAccumulator` is tested against."""

import numpy as np

from opsplit.linops import BlockPoint


class CertificateRecorder:
    """Stands in for an accumulator and keeps everything a loop hands it."""

    def __init__(self):
        self.certs = []

    def add(self, cert):
        self.certs.append(cert)


def ergodic_aggregate(certs, alpha):
    """Weighted aggregates (y_bar, v_bar, eps_bar) with weights (1+theta_i) c_i alpha_i.

    eps_bar adds the inner-product correction sum_i w_i <y_i - y_bar, v_i - v_bar>
    and is nonnegative in exact arithmetic.
    """
    if len(certs) == 0:
        raise ValueError("empty trace")
    weights = [(1.0 + c.theta) * c.c * float(a) for c, a in zip(certs, alpha)]
    total = sum(weights)
    if total <= 0:
        raise ValueError("total weight must be positive")
    layout = certs[0].y.layout
    y_bar = np.zeros(layout.dim)
    v_bar = np.zeros(layout.dim)
    for w, cert in zip(weights, certs):
        y_bar += w * cert.y.data
        v_bar += w * cert.v.data
    y_bar /= total
    v_bar /= total
    eps_bar = 0.0
    for w, cert in zip(weights, certs):
        eps_bar += w * (cert.eps + float(np.dot(cert.y.data - y_bar,
                                                cert.v.data - v_bar)))
    eps_bar /= total
    return (BlockPoint(y_bar, layout), BlockPoint(v_bar, layout), eps_bar)

