"""Proximal operators and problem builders.

Provides the scalar proxes used by the solvers (soft-threshold, singular-value
thresholding, nonnegative projection), graph-Laplacian construction, the
five-block low-rank-representation instance, and seeded synthetic QPs with a
dense KKT reference solution.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .linops import LinearMap, read_matrix
from .padmm_ebb import MultiBlockProblem


# ---------------------------------------------------------------------------
# Elementary proximal operators
# ---------------------------------------------------------------------------


def prox_l1(t: float, lam: float, v: np.ndarray) -> np.ndarray:
    """Soft threshold with threshold t * lam."""
    if t <= 0 or lam < 0:
        raise ValueError("need t > 0 and lam >= 0")
    v = np.asarray(v, dtype=float)
    thr = t * lam
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def prox_nuclear(t: float, V: np.ndarray) -> np.ndarray:
    """Singular-value soft thresholding via a full SVD."""
    if t <= 0:
        raise ValueError("need t > 0")
    V = np.asarray(V, dtype=float)
    u, s, vt = np.linalg.svd(V, full_matrices=False)
    return (u * np.maximum(s - t, 0.0)) @ vt


def proj_nonneg(v: np.ndarray) -> np.ndarray:
    """Componentwise projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


# ---------------------------------------------------------------------------
# ProxFn wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProxFn:
    """A convex function given through its prox map and its value.

    ``evaluate(t, v)`` returns argmin_u g(u) + ||u - v||^2 / (2t); ``value``
    may return ``inf``.  Both take and return flat arrays; a matrix-valued
    function (``shape`` set) reshapes column-major inside its own closures.
    """

    evaluate_fn: Callable[[float, np.ndarray], np.ndarray]
    value_fn: Callable[[np.ndarray], float]
    name: str = ""
    shape: Optional[Tuple[int, int]] = None

    def evaluate(self, t: float, v: np.ndarray) -> np.ndarray:
        if t <= 0:
            raise ValueError("prox step must be positive")
        return np.asarray(self.evaluate_fn(t, np.asarray(v, dtype=float)),
                          dtype=float)

    def value(self, v: np.ndarray) -> float:
        return float(self.value_fn(np.asarray(v, dtype=float)))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def l1(lam: float) -> "ProxFn":
        if not lam >= 0:
            raise ValueError("l1 weight must be >= 0, got %r" % (lam,))
        return ProxFn(lambda t, v: prox_l1(t, lam, v),
                      lambda v: lam * float(np.abs(v).sum()),
                      name="l1(%g)" % lam)

    @staticmethod
    def nuclear(shape: Tuple[int, int]) -> "ProxFn":
        shape = tuple(shape)

        def matrix(v):
            return v.reshape(shape, order="F")

        return ProxFn(lambda t, v: prox_nuclear(t, matrix(v)).ravel(order="F"),
                      lambda v: float(np.linalg.svd(matrix(v),
                                                    compute_uv=False).sum()),
                      name="nuclear", shape=shape)

    @staticmethod
    def nonneg() -> "ProxFn":
        def value(v):
            return 0.0 if v.min(initial=0.0) >= -1e-12 else float("inf")
        return ProxFn(lambda t, v: proj_nonneg(v), value, name="nonneg")

    @staticmethod
    def zero() -> "ProxFn":
        return ProxFn(lambda t, v: np.array(v, dtype=float, copy=True),
                      lambda v: 0.0, name="zero")

    @staticmethod
    def constant(target: np.ndarray) -> "ProxFn":
        """Indicator of the single point ``target``."""
        tgt = np.asarray(target, dtype=float)
        tol = 1e-9 * (1.0 + np.linalg.norm(tgt))
        return ProxFn(lambda t, v: tgt.copy(),
                      lambda v: 0.0 if np.linalg.norm(v - tgt) <= tol
                      else float("inf"), name="constant")


# ---------------------------------------------------------------------------
# Graph Laplacians
# ---------------------------------------------------------------------------


def knn_heat_affinity(samples: np.ndarray, k: int = 5) -> np.ndarray:
    """Symmetric k-nearest-neighbor heat-kernel affinity of the sample rows.

    Bandwidth is the median pairwise distance; the affinity is symmetrized by
    the elementwise maximum and has zero diagonal.  One argsort of the
    distance matrix orders every row's neighbours.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be a 2-D array, got %d-D" % samples.ndim)
    if k < 1:
        raise ValueError("need k >= 1 neighbours, got %r" % (k,))
    n = samples.shape[0]
    W = np.zeros((n, n))
    if n <= 1:
        return W
    sq = np.sum(samples * samples, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * samples @ samples.T, 0.0)
    dists = np.sqrt(d2)
    h = float(np.median(dists[~np.eye(n, dtype=bool)]))
    if h <= 0:
        h = 1.0
    rows = np.arange(n)[:, None]
    order = np.argsort(dists, axis=1)
    neigh = order[order != rows].reshape(n, n - 1)[:, :min(k, n - 1)]
    W[rows, neigh] = np.exp(-d2[rows, neigh] / (2.0 * h * h))
    W = np.maximum(W, W.T)
    np.fill_diagonal(W, 0.0)
    return W


def build_graph_laplacian(W: np.ndarray) -> np.ndarray:
    """Unnormalized graph Laplacian L = D - W of a symmetric affinity."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("affinity must be square")
    if not np.allclose(W, W.T, atol=1e-10):
        raise ValueError("affinity must be symmetric")
    if W.min(initial=0.0) < -1e-12:
        raise ValueError("affinity weights must be nonnegative")
    return np.diag(W.sum(axis=1)) - W


# ---------------------------------------------------------------------------
# LRR instance (five blocks: Z, G, E, H, F)
# ---------------------------------------------------------------------------


@dataclass
class LrrInstance:
    """Low-rank-representation program with slack blocks.

        min ||H||_* + ||F||_* + lam ||E||_1
            + (mu/2) tr(Z L_Z Z^T) + (gamma/2) tr(G L_G G^T)
        s.t. X = XZ + GX + E,  Z = H,  G = F,  Z >= 0,  G >= 0.
    """

    X: np.ndarray
    L_Z: np.ndarray
    L_G: np.ndarray
    lam: float
    mu: float
    gamma: float
    orientation: str
    problem: MultiBlockProblem = field(repr=False, default=None)


def _vec(M: np.ndarray) -> np.ndarray:
    return np.asarray(M, dtype=float).ravel(order="F")


def _check_laplacian_psd(L: np.ndarray, name: str):
    """(L as floats, its largest eigenvalue) if L is symmetric PSD."""
    L = np.asarray(L, dtype=float)
    if not np.allclose(L, L.T, atol=1e-9):
        raise ValueError("%s must be symmetric" % name)
    w = np.linalg.eigvalsh(L)
    if w[0] < -1e-8 * max(1.0, abs(w[-1])):
        raise ValueError("%s must be PSD (min eigenvalue %.3e)" % (name, w[0]))
    return L, float(w[-1])


def build_lrr(X: np.ndarray, L_Z: Optional[np.ndarray] = None,
              L_G: Optional[np.ndarray] = None, lam: float = 1e3,
              mu: float = 1e4, gamma: float = 1e4,
              orientation: str = "rows") -> LrrInstance:
    """Assemble the five-block LRR problem for the multi-block solver.

    If the Laplacians are omitted they are built from k-NN heat-kernel
    affinities: L_Z over the columns of X, L_G over its rows.  ``orientation``
    selects the quadratic coupling: "rows" means tr(Z L Z^T) (grad mu*Z*L),
    "cols" means tr(Z^T L Z) (grad mu*L*Z).
    """
    X = np.asarray(X, dtype=float)
    d, n = X.shape
    if d == 0 or n == 0:
        raise ValueError("X must have d >= 1 rows and n >= 1 columns, got "
                         "d=%d, n=%d" % (d, n))
    if orientation not in ("rows", "cols"):
        raise ValueError("orientation must be 'rows' or 'cols'")
    if L_Z is None:
        L_Z = build_graph_laplacian(knn_heat_affinity(X.T))
    if L_G is None:
        L_G = build_graph_laplacian(knn_heat_affinity(X))
    L_Z, lz_norm = _check_laplacian_psd(L_Z, "L_Z")
    L_G, lg_norm = _check_laplacian_psd(L_G, "L_G")
    if L_Z.shape != (n, n) or L_G.shape != (d, d):
        raise ValueError("Laplacian shapes must match X")

    m1, m2, m3 = d * n, n * n, d * d
    mdim = m1 + m2 + m3
    s1, s2, s3 = slice(0, m1), slice(m1, m1 + m2), slice(m1 + m2, mdim)

    def split_dual(y):
        return (y[s1].reshape(d, n, order="F"), y[s2].reshape(n, n, order="F"),
                y[s3].reshape(d, d, order="F"))

    def dual(*parts):
        """The dual vector holding each (slice, flat values) pair, else 0."""
        out = np.zeros(mdim)
        for sl, val in parts:
            out[sl] = val
        return out

    def lm(apply_fn, adjoint_fn, nblk):
        return LinearMap(apply=apply_fn, adjoint_apply=adjoint_fn,
                         domain_dim=mdim, codomain_dim=nblk)

    def a_z(y):
        Y1, Y2, _ = split_dual(y)
        return _vec(X.T @ Y1 + Y2)

    def a_g(y):
        Y1, _, Y3 = split_dual(y)
        return _vec(Y1 @ X.T + Y3)

    A_Z = lm(a_z, lambda z: dual((s1, _vec(X @ z.reshape(n, n, order="F"))),
                                 (s2, z)), n * n)
    A_G = lm(a_g, lambda g: dual((s1, _vec(g.reshape(d, d, order="F") @ X)),
                                 (s3, g)), d * d)
    A_E = lm(lambda y: y[s1], lambda e: dual((s1, e)), d * n)
    A_H = lm(lambda y: -y[s2], lambda h: dual((s2, -h)), n * n)
    A_F = lm(lambda y: -y[s3], lambda f: dual((s3, -f)), d * d)

    b = dual((s1, _vec(X)))

    def grad_f(xs):
        Z = xs[0].reshape(n, n, order="F")
        G = xs[1].reshape(d, d, order="F")
        if orientation == "rows":
            gz, gg = mu * (Z @ L_Z), gamma * (G @ L_G)
        else:
            gz, gg = mu * (L_Z @ Z), gamma * (L_G @ G)
        return [_vec(gz), _vec(gg), np.zeros(d * n),
                np.zeros(n * n), np.zeros(d * d)]

    def f_value(xs):
        Z = xs[0].reshape(n, n, order="F")
        G = xs[1].reshape(d, d, order="F")
        if orientation == "rows":
            return 0.5 * mu * float(np.trace(Z @ L_Z @ Z.T)) \
                + 0.5 * gamma * float(np.trace(G @ L_G @ G.T))
        return 0.5 * mu * float(np.trace(Z.T @ L_Z @ Z)) \
            + 0.5 * gamma * float(np.trace(G.T @ L_G @ G))

    problem = MultiBlockProblem(
        gs=[ProxFn.nonneg(), ProxFn.nonneg(), ProxFn.l1(lam),
            ProxFn.nuclear((n, n)), ProxFn.nuclear((d, d))],
        grad_f=grad_f, L=[mu * lz_norm, gamma * lg_norm, 0.0, 0.0, 0.0],
        A=[A_Z, A_G, A_E, A_H, A_F], b=b, f_value=f_value)
    return LrrInstance(X=X, L_Z=L_Z, L_G=L_G, lam=lam, mu=mu, gamma=gamma,
                       orientation=orientation, problem=problem)


def load_lrr_instance(directory: Union[str, pathlib.Path]) -> LrrInstance:
    directory = pathlib.Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if manifest.get("kind") != "lrr":
        raise ValueError("manifest does not describe an LRR instance")
    mats = {k: read_matrix(directory / v)
            for k, v in manifest["matrices"].items()}
    return build_lrr(mats["X"], mats["L_Z"], mats["L_G"], lam=manifest["lam"],
                     mu=manifest["mu"], gamma=manifest["gamma"],
                     orientation=manifest["orientation"])


# ---------------------------------------------------------------------------
# Synthetic QP instances
# ---------------------------------------------------------------------------


def _block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    offs = np.cumsum([0] + [len(B) for B in blocks])
    out = np.zeros((offs[-1], offs[-1]))
    for B, lo, hi in zip(blocks, offs, offs[1:]):
        out[lo:hi, lo:hi] = B
    return out


@dataclass
class QpInstance:
    """Block-separable strongly convex QP with linear equality coupling.

        min sum_i (1/2) x_i^T Q_i x_i + c_i^T x_i   s.t.  sum_i G_i x_i = b

    stored dense: ``Q`` is the block-diagonal matrix of the Q_i, ``c`` the
    stacked c_i and ``G = [G_1 ... G_p]``, with the reference (x*, y*) of a
    dense KKT solve, ``x_star`` one flat array over every block.
    """

    Q: np.ndarray
    c: np.ndarray
    G: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    y_star: np.ndarray
    problem: MultiBlockProblem = field(repr=False, default=None)

    @property
    def z_star(self) -> np.ndarray:
        return np.concatenate([self.x_star, self.y_star])

    def kkt_residual(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.asarray(x, dtype=float).ravel()
        stat = self.Q @ x + self.c + self.G.T @ y
        feas = self.G @ x - self.b
        return float(np.linalg.norm(np.concatenate([stat, feas])))


def gen_qp(seed: int, p: int = 2, n_i: int = 5, m: int = 3) -> QpInstance:
    """Seeded random QP with p blocks of n_i entries and m constraints;
    regenerates until the constraints are full row rank."""
    if not (p >= 1 and n_i >= 1 and 0 <= m <= p * n_i):
        raise ValueError("need p >= 1, n_i >= 1 and 0 <= m <= p*n_i, got "
                         "p=%d, n_i=%d, m=%d" % (p, n_i, m))
    for attempt in range(50):
        rng = np.random.default_rng(seed + 1_000_003 * attempt)
        Qs, cs, Gs = [], [], []
        for _ in range(p):
            B = rng.standard_normal((n_i, n_i))
            Qs.append(B @ B.T / n_i + 0.5 * np.eye(n_i))
            cs.append(rng.standard_normal(n_i))
            Gs.append(rng.standard_normal((m, n_i)))
        b = rng.standard_normal(m)
        Gf = np.hstack(Gs)
        if m and np.linalg.svd(Gf, compute_uv=False)[-1] < 1e-6:
            continue
        Qf, cf = _block_diag(Qs), np.concatenate(cs)
        kkt = np.block([[Qf, Gf.T], [Gf, np.zeros((m, m))]])
        sol = np.linalg.solve(kkt, np.concatenate([-cf, b]))
        x_star, y_star = sol[:p * n_i], sol[p * n_i:]

        A = [LinearMap(apply=(lambda Gi: lambda y: Gi.T @ y)(Gi),
                       adjoint_apply=(lambda Gi: lambda x: Gi @ x)(Gi),
                       domain_dim=m, codomain_dim=n_i)
             for Gi in Gs]
        Ls = [float(np.linalg.eigvalsh(Qi)[-1]) for Qi in Qs]

        def grad_f(xs, Qs=Qs, cs=cs):
            return [Qi @ x + ci for Qi, ci, x in zip(Qs, cs, xs)]

        def f_value(xs, Qs=Qs, cs=cs):
            return sum(0.5 * float(x @ Qi @ x) + float(ci @ x)
                       for Qi, ci, x in zip(Qs, cs, xs))

        problem = MultiBlockProblem(
            gs=[ProxFn.zero() for _ in range(p)], grad_f=grad_f, L=Ls,
            A=A, b=b, f_value=f_value)
        inst = QpInstance(Q=Qf, c=cf, G=Gf, b=b, x_star=x_star,
                          y_star=y_star, problem=problem)
        if inst.kkt_residual(x_star, y_star) <= 1e-10:
            return inst
    raise RuntimeError("could not generate a well-posed QP instance")
