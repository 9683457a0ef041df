"""Block layouts, linear maps, SPD metrics, and spectral estimation.

Everything downstream (solver kernels, step oracles, problem builders) is written
against the small vocabulary defined here: a point of a product space is one
flat float64 array, which a :class:`BlockLayout` slices into its blocks where
blocks are addressed; a :class:`LinearMap` has an explicit adjoint, and a
:class:`Metric` (self-adjoint positive definite operator) with ``apply`` access
and spectral bounds; only the block-diagonal metric, which the multi-block
solver inverts, also solves.  All storage is dense; problem sizes are desk
scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Block layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockLayout:
    """Sizes of the blocks of a product space."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        # derived once; plain attributes, not fields, so ==, hash and repr
        # still see only sizes
        offsets = (0,) + tuple(itertools.accumulate(sizes))
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "dim", offsets[-1])
        object.__setattr__(self, "slices", tuple(
            slice(a, b) for a, b in zip(offsets, offsets[1:])))

    @property
    def nblocks(self) -> int:
        return len(self.sizes)

    def split(self, x: np.ndarray) -> list:
        """The blocks of the flat point ``x``, as views (writing into one
        mutates ``x``)."""
        return [x[s] for s in self.slices]


def norm(x: np.ndarray) -> float:
    """np.linalg.norm of a flat float64 array, bit for bit, in one call."""
    return math.sqrt(float(np.dot(x, x)))


# ---------------------------------------------------------------------------
# Linear maps
# ---------------------------------------------------------------------------


@dataclass
class LinearMap:
    """A linear operator given by matching forward/adjoint callables.

    ``apply`` maps a flat array of length ``domain_dim`` to one of length
    ``codomain_dim``; ``adjoint_apply`` goes the other way and must satisfy
    <A v, u> = <v, A* u>.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]
    domain_dim: int
    codomain_dim: int


def spectral_upper_bound(A: LinearMap) -> float:
    """Safe upper estimate of the largest singular value of A.

    100 power iterations on A*A from a start vector seeded with 0, inflated
    by a 5% safety factor.  Returns 0 for the zero map.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.domain_dim)
    nv = norm(v)
    if nv == 0.0 or A.domain_dim == 0:
        return 0.0
    v /= nv
    lam = 0.0
    for _ in range(100):
        w = A.adjoint_apply(A.apply(v))
        nw = norm(w)
        if nw == 0.0:
            return 0.0
        lam = float(np.dot(v, w))
        v = w / nw
    # lam is a Rayleigh quotient for A*A; nw >= lam is also an estimate of the
    # top eigenvalue and is never below the Rayleigh quotient.
    lam = max(lam, nw)
    return float(np.sqrt(lam)) * 1.05


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class Metric:
    """Self-adjoint positive definite operator with apply access.

    Only :class:`BlockDiagonalMetric` overrides ``solve``: the splitters
    hand the kernel their own c M^-1 v, and only the multi-block solver's BB
    metric is ever inverted.
    Subclasses must set ``omega_lower``/``omega_upper`` such that
    omega_lower * I <= M <= omega_upper * I, and ``dim``, the dimension of
    the space M acts on.  ``dim`` is None only for scalar multiples of the
    identity, which act on every space alike.
    """

    omega_lower: float
    omega_upper: float
    dim: Optional[int] = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def solve(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class IdentityMetric(Metric):
    def __init__(self):
        self.omega_lower = 1.0
        self.omega_upper = 1.0

    def apply(self, v):
        return np.asarray(v, dtype=float)


class BlockDiagonalMetric(Metric):
    """Metric that is d_i times the identity on block i.

    ``scalars`` are the metric scalars d_i themselves; use
    :meth:`from_inverse_scalars` when the quantities at hand parameterize
    the inverse metric.
    """

    def __init__(self, scalars: Sequence[float], layout: BlockLayout):
        scalars = [float(s) for s in scalars]
        if len(scalars) != layout.nblocks:
            raise ValueError("one scalar per block required")
        for i, s in enumerate(scalars):
            if not 0.0 < s < math.inf:  # a NaN fails here, not in min()
                raise ValueError("metric scalar %d is %r, not finite and "
                                 "positive" % (i, s))
        self.scalars = tuple(scalars)
        self.layout = layout
        self.dim = layout.dim
        self._weights = np.repeat(np.asarray(scalars), layout.sizes)
        self.omega_lower = min(scalars)
        self.omega_upper = max(scalars)

    @classmethod
    def from_inverse_scalars(cls, inv_scalars: Sequence[float],
                             layout: BlockLayout) -> "BlockDiagonalMetric":
        inv = [float(s) for s in inv_scalars]
        if 0.0 in inv:  # -0.0 too; 1 / 0 would raise ZeroDivisionError
            i = inv.index(0.0)
            raise ValueError("inverse metric scalar %d is %r, not positive"
                             % (i, inv[i]))
        return cls([1.0 / s for s in inv], layout)

    def apply(self, v):
        return np.asarray(v, dtype=float) * self._weights

    def solve(self, v):
        return np.asarray(v, dtype=float) / self._weights


class DenseMetric(Metric):
    """Metric backed by an explicit SPD matrix (desk-scale only)."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("square matrix required")
        if np.max(np.abs(matrix - matrix.T)) > 1e-10 * (1 + np.max(np.abs(matrix))):
            raise ValueError("matrix is not symmetric")
        self.matrix = 0.5 * (matrix + matrix.T)
        self.dim = matrix.shape[0]
        eigs = np.linalg.eigvalsh(self.matrix)
        if eigs[0] <= 0:
            raise ValueError("matrix is not positive definite")
        self.omega_lower = float(eigs[0])
        self.omega_upper = float(eigs[-1])

    def apply(self, v):
        return self.matrix @ np.asarray(v, dtype=float)


def weighted_norm_sq(M: Metric, v) -> float:
    """<v, M v> for a flat array."""
    x = np.asarray(v, dtype=float)
    return float(np.dot(x, M.apply(x)))


# ---------------------------------------------------------------------------
# MatrixMarket input
# ---------------------------------------------------------------------------


def read_matrix(path) -> np.ndarray:
    """Read a MatrixMarket file as a dense ndarray."""
    import scipy.io
    m = scipy.io.mmread(str(path))
    if hasattr(m, "toarray"):
        m = m.toarray()
    return np.asarray(m, dtype=float)
