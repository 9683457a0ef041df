"""Two-pass ergodic aggregates over stored certificates: the reference that
the online :class:`opsplit.hpe_core.ErgodicAccumulator` is tested against."""

import numpy as np

from opsplit.linops import BlockPoint


class CertificateRecorder:
    """Stands in for an accumulator and keeps everything a loop hands it."""

    def __init__(self):
        self.certs = []
        self.eps_blocks = []

    def add(self, cert):
        self.certs.append(cert)
        self.eps_blocks.append(cert.eps_blocks)


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


def ergodic_kkt_certificates(certs, eps_blocks, alpha):
    """(x_bar blocks, y_bar, per-block eps_bar) of multi-block certificates,
    weights (1 + theta_i) alpha_i, in two passes over the stored run."""
    alpha = [float(a) for a in alpha]
    weights = [(1.0 + c.theta) * a for c, a in zip(certs, alpha)]
    total = sum(weights)
    if total <= 0:
        raise ValueError("total weight must be positive")
    layout = certs[0].y.layout
    p = layout.nblocks - 1
    ybar = np.zeros(layout.dim)
    vbar = np.zeros(layout.dim)
    for wgt, c in zip(weights, certs):
        ybar += wgt * c.y.data
        vbar += wgt * c.v.data
    ybar /= total
    vbar /= total
    ybar_pt = BlockPoint(ybar, layout)
    eps_bar = np.zeros(p)
    for wgt, c, eb in zip(weights, certs, eps_blocks):
        for j in range(p):
            sl = layout.block_slice(j)
            eps_bar[j] += wgt * (eb[j] + float(
                np.dot(c.y.data[sl] - ybar[sl], c.v.data[sl] - vbar[sl])))
    eps_bar /= total
    x_bar = [ybar_pt.block(j).copy() for j in range(p)]
    y_bar = ybar_pt.block(p).copy()
    return x_bar, y_bar, eps_bar
