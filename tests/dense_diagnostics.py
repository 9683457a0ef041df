"""Dense assemblies of the multi-block correction operator U and of the
direction-independent over-relaxation bound theta_bar: an offline diagnostic
that the solver never runs, kept to test U and the step-size range against."""

import numpy as np
import scipy.linalg

from support import to_dense


def u_dense(U) -> np.ndarray:
    """The matrix of ``U.apply`` on the full layout, block by block."""
    pr = U.problem
    sizes = pr.full_layout.sizes
    off = pr.full_layout.offsets
    n = pr.full_layout.dim
    Ud = np.zeros((n, n))
    a_dense = [to_dense(a) for a in pr.A]          # n_i x m  (dual -> block)
    astar = [ad.T for ad in a_dense]                # m x n_i
    s0 = slice(off[0], off[1])
    Ud[s0, s0] = U.etas[0] * np.eye(sizes[0]) - U.beta * a_dense[0] @ astar[0]
    for i in range(1, pr.p):
        si = slice(off[i], off[i + 1])
        Ud[si, si] = U.etas[i] * np.eye(sizes[i])
        for j in range(1, i):
            sj = slice(off[j], off[j + 1])
            Ud[si, sj] = U.beta * a_dense[i] @ astar[j]
    sd = slice(off[pr.p], off[pr.p + 1])
    for j in range(1, pr.p):
        sj = slice(off[j], off[j + 1])
        Ud[sd, sj] = astar[j]
    Ud[sd, sd] = np.eye(pr.m) / U.beta
    return Ud


def dense_theta_bar(theta_adap, U, M, sigma_bar, problem, power_iters=100,
                    seed=0):
    """theta_bar = -1 + 1/lambda for the top generalized eigenvalue lambda of
    (U* M^-1 U, Gamma), estimated by power iteration and never below the
    directional ratio 1/(1 + theta_adap), so theta_bar <= theta_adap."""
    Ud_dense = u_dense(U)
    Mdiag = np.repeat(np.asarray(M.scalars), M.layout.sizes)
    Gamma = Ud_dense + Ud_dense.T + (sigma_bar - 1.0) * np.diag(Mdiag) \
        - 0.5 * np.diag(problem.d_weights)
    Amat = Ud_dense.T @ (Ud_dense / Mdiag[:, None])
    eig_min = scipy.linalg.eigvalsh(Gamma)[0]
    if eig_min <= 0:
        raise ValueError("Gamma indefinite (min eigenvalue %.3e)" % eig_min)
    lu = scipy.linalg.lu_factor(Gamma)
    rng = np.random.default_rng(seed)
    wvec = rng.standard_normal(Gamma.shape[0])
    lam = 0.0
    for _ in range(power_iters):
        wvec = scipy.linalg.lu_solve(lu, Amat @ wvec)
        nrm = np.linalg.norm(wvec)
        if nrm == 0:
            break
        wvec /= nrm
        lam = float(wvec @ Amat @ wvec) / float(wvec @ Gamma @ wvec)
    # direction-independent bound must not exceed the directional ratio
    lam_hat = max(lam, 1.0 / (1.0 + theta_adap)) * 1.01
    return -1.0 + 1.0 / lam_hat
