"""Helpers only the tests use: an SVD call counter, dense matrices to and
from :class:`~opsplit.linops.LinearMap`, a randomized adjoint check, the
dense KKT operator of a QP, and the writers of MatrixMarket matrices and LRR
manifests that ``opsplit.linops.read_matrix`` and
``opsplit.prox_problems.load_lrr_instance`` read back."""

import json
import pathlib
from dataclasses import dataclass

import numpy as np
import scipy.io

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
