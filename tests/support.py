"""Helpers only the tests use: an SVD call counter, the report of a failing
criterion check, dense matrices to and from
:class:`~opsplit.linops.LinearMap`, a randomized adjoint check, the dense KKT
operator of a QP, and the writers of MatrixMarket matrices and LRR manifests
that ``opsplit.linops.read_matrix`` and
``opsplit.prox_problems.load_lrr_instance`` read back."""

import json
import pathlib
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.io

from opsplit.hpe_core import CriterionViolation, check_criterion
from opsplit.linops import LinearMap


def count_svds(monkeypatch):
    """Count ``np.linalg.svd`` calls from now on; returns a one-element list
    holding the count, and ``np.linalg.svd`` itself."""
    original, calls = np.linalg.svd, [0]

    def counted_svd(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls, original


def failed_criterion(x, cert, M, sigma):
    """The report that ``check_criterion``'s "criterion failed" carries: the
    test fails unless the inequality itself rejects ``cert``."""
    with pytest.raises(CriterionViolation, match="criterion failed") as exc:
        check_criterion(x, cert, M, sigma)
    assert exc.value.report.lhs > exc.value.report.rhs
    return exc.value.report


def from_dense(matrix: np.ndarray) -> LinearMap:
    """The :class:`~opsplit.linops.LinearMap` of a dense matrix."""
    matrix = np.asarray(matrix, dtype=float)
    m, n = matrix.shape
    return LinearMap(apply=lambda v: matrix @ v,
                     adjoint_apply=lambda u: matrix.T @ u,
                     domain_dim=n, codomain_dim=m)


def to_dense(A: LinearMap) -> np.ndarray:
    """The dense matrix of a map, assembled column by column."""
    cols = [A.apply(e) for e in np.eye(A.domain_dim)]
    if not cols:
        return np.zeros((A.codomain_dim, 0))
    return np.column_stack(cols)


@dataclass
class AdjointReport:
    max_residual: float
    ok: bool
    probes: int


def adjoint_check(A, probes: int = 20, seed: int = 0,
                  tol: float = 1e-8) -> AdjointReport:
    """Randomized check of the adjoint identity <Av,u> = <v,A*u> of a
    :class:`~opsplit.linops.LinearMap`."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        v = rng.standard_normal(A.domain_dim)
        u = rng.standard_normal(A.codomain_dim)
        Av = A.apply(v)
        Atu = A.adjoint_apply(u)
        num = abs(float(np.dot(Av, u)) - float(np.dot(v, Atu)))
        den = 1.0 + float(np.linalg.norm(Av)) * float(np.linalg.norm(u))
        worst = max(worst, num / den)
    return AdjointReport(max_residual=worst, ok=worst <= tol, probes=probes)


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a dense matrix to a MatrixMarket file."""
    scipy.io.mmwrite(str(path), np.atleast_2d(np.asarray(matrix, dtype=float)))


def save_lrr_instance(inst, directory) -> None:
    """Serialize an LRR instance to a JSON manifest plus MatrixMarket files."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, mat in (("X", inst.X), ("L_Z", inst.L_Z), ("L_G", inst.L_G)):
        write_matrix(directory / (name + ".mtx"), mat)
    manifest = {"kind": "lrr", "lam": inst.lam, "mu": inst.mu,
                "gamma": inst.gamma, "orientation": inst.orientation,
                "matrices": {"X": "X.mtx", "L_Z": "L_Z.mtx", "L_G": "L_G.mtx"}}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


def kkt_operator(inst):
    """Dense (K, q) of a :class:`~opsplit.prox_problems.QpInstance`, with KKT
    map T(z) = K z - q (rows: stationarity; b - Gx)."""
    m = inst.b.size
    K = np.block([[inst.Q, inst.G.T], [-inst.G, np.zeros((m, m))]])
    q = np.concatenate([-inst.c, -inst.b])
    return K, q


def worst_case_theta(problem, sigma: float) -> float:
    """The direction-independent bound on a splitter's over-relaxation when
    its eps is the Lipschitz one (no Hessian): FBHF (sigma - gamma^2 L^2 -
    gamma/(2 beta)) / (1 + gamma^2 L^2), PPG sigma - L alpha/2, primal-dual
    sigma - L/(2 curvature margin).  Every direction's criterion root lies
    at or above it."""
    from opsplit.splitters import FbhfProblem, PpgProblem
    if isinstance(problem, FbhfProblem):
        g2L2 = problem.gamma ** 2 * problem.L ** 2
        coco = (problem.gamma / (2.0 * problem.beta)
                if problem.B1 is not None else 0.0)
        return (sigma - g2L2 - coco) / (1.0 + g2L2)
    if isinstance(problem, PpgProblem):
        return sigma - problem.L * problem.alpha / 2.0
    return sigma - problem.L / (2.0 * problem.curvature_margin)


def psd_enlargement(S: np.ndarray, r: np.ndarray):
    """(eps*, off) of a residual r = T(y) - v of an affine monotone T with
    symmetric part S: eps* = (1/4) r^T S^+ r is the smallest eps with
    v in T^eps(y), since inf_h <r, h> + h^T S h = -eps*, and off is the
    norm of r's part outside range(S), where that infimum is -inf."""
    S_pinv = np.linalg.pinv(S, rcond=1e-12, hermitian=True)
    return (0.25 * float(r @ S_pinv @ r),
            float(np.linalg.norm(r - S @ (S_pinv @ r))))


def fbhf_enlargement(inst):
    """eps*(y, v) -> (eps*, ||r||, off) of the FBHF operator
    T = Q x + c + N_V(x) on V = {G x = b}.  On V the normal cone drops out
    of <T(z) - v, z - y>, so in an orthonormal basis N of null(G) the
    residual is r = N^T (Q y + c - v) against N^T Q N.  off is y's
    distance from V relative to ||G|| ||y|| + ||b||, the size the rounding
    of G y - b is relative to."""
    _, svals, vt = np.linalg.svd(inst.G)
    N = vt[int(np.sum(svals > 1e-12 * svals.max())) if svals.size else 0:].T
    S = N.T @ inst.Q @ N
    gnorm = float(svals.max()) if svals.size else 0.0

    def eps_star(y, v):
        r = N.T @ (inst.Q @ y + inst.c - v)
        eps, _ = psd_enlargement(S, r)
        off = float(np.linalg.norm(inst.G @ y - inst.b))
        return eps, float(np.linalg.norm(r)), off / (
            1.0 + gnorm * float(np.linalg.norm(y)) + np.linalg.norm(inst.b))

    return eps_star


def primal_dual_enlargement(inst):
    """eps*(w, v) -> (eps*, ||r||, off) of the saddle operator T(x, y) =
    (Q x + c + G* y, b - G x) of the QP (:func:`kkt_operator`), whose
    symmetric part is diag(Q, 0): off is the norm of r's dual block,
    outside that range, relative to ||K|| ||w|| + ||q||, the size the
    rounding of T(w) is relative to."""
    K, q = kkt_operator(inst)
    S = 0.5 * (K + K.T)
    knorm = float(np.linalg.norm(K, 2))

    def eps_star(w, v):
        r = K @ w - q - v
        eps, off = psd_enlargement(S, r)
        return eps, float(np.linalg.norm(r)), off / (
            1.0 + knorm * float(np.linalg.norm(w)) + np.linalg.norm(q))

    return eps_star


def ppg_enlargement(problem):
    """eps*(y, v) -> (eps*, ||r||, off) of PPG's operator on a QP coding
    (g_i = 0, f_i with Hessian Q, affine prox_r).  The step with each
    grad f_i taken at the copy's own new point x_n,i, (I + alpha Q) x_n,i =
    2 x_c - z_i - alpha c with c = grad f_i(0), is a Douglas-Rachford map
    R(z) = z + x_n - x_c, firmly nonexpansive, so the resolvent of
    S = R^-1 - I, whose graph is {(R u, u - R u)}.  R is affine,
    R u = P u + t.  With z = y + v, e = y - R z and u = z + h,
    <v' - v, y - y'> over the graph is ||e||^2 + g^T h - h^T W h,
    g = (I - 2 P)^T e and W the symmetric part of (I - P)^T P, so
    eps* = ||e||^2 + (1/4) g^T W^+ g, with r = g; off is g's part outside
    range(W) relative to 1 + ||z||."""
    n, dim, alpha, Q = problem.n, problem.dim, problem.alpha, problem.Q
    c = problem.grad_f[0](np.zeros(dim))
    inner = np.linalg.inv(np.eye(dim) + alpha * Q)

    def resolvent(z):
        zs = z.reshape(n, dim)
        xc = problem.prox_r.evaluate(alpha, sum(zs) / n)
        return np.concatenate([zi + inner @ (2.0 * xc - zi - alpha * c) - xc
                               for zi in zs])

    t = resolvent(np.zeros(n * dim))
    P = np.column_stack([resolvent(e) - t for e in np.eye(n * dim)])
    W = 0.5 * ((np.eye(n * dim) - P).T @ P + P.T @ (np.eye(n * dim) - P))
    I_2P = np.eye(n * dim) - 2.0 * P

    def eps_star(y, v):
        z = y + v
        e = y - resolvent(z)
        g = I_2P.T @ e
        eps, off = psd_enlargement(W, g)
        return (float(e @ e) + eps, float(np.linalg.norm(g)),
                off / (1.0 + float(np.linalg.norm(z))))

    return eps_star
