import dataclasses

import numpy as np
import pytest

from opsplit.linops import (BlockDiagonalMetric, BlockLayout, DenseMetric,
                            IdentityMetric, LinearMap,
                            read_matrix, spectral_upper_bound,
                            weighted_norm_sq)

from support import (AdjointReport, adjoint_check, from_dense,
                     write_matrix)


def test_layout_offsets_and_slices():
    lay = BlockLayout((2, 3, 4))
    assert lay.dim == 9
    assert lay.offsets == (0, 2, 5, 9)
    assert lay.slices == (slice(0, 2), slice(2, 5), slice(5, 9))


def test_layout_keeps_equality_hash_and_derived_sizes():
    for sizes in [(), (3,), (2, 3, 4), (400, 1, 0, 16)]:
        lay = BlockLayout(sizes)
        # offsets and dim are computed once and stored, and agree with sums
        assert {"offsets", "dim"} <= set(vars(lay))
        assert lay.dim == sum(sizes)
        assert lay.offsets == tuple(sum(sizes[:i]) for i in range(len(sizes) + 1))
    a = BlockLayout((2, 6))
    b = BlockLayout([2, 6])
    assert a == b and hash(a) == hash(b)
    assert a != BlockLayout((6, 2))
    assert repr(a) == "BlockLayout(sizes=(2, 6))"
    assert [f.name for f in dataclasses.fields(a)] == ["sizes"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.dim = 3


def test_layout_split_returns_views_of_the_blocks():
    lay = BlockLayout((3, 0, 2))
    x = np.arange(5, dtype=float)
    blocks = lay.split(x)
    assert [b.tolist() for b in blocks] == [[0.0, 1.0, 2.0], [], [3.0, 4.0]]
    assert all(np.shares_memory(b, x) for b in blocks if b.size)
    blocks[2][0] = 7.0  # a view: writing into a block writes into x
    assert x[3] == 7.0


def test_adjoint_check_passes_for_true_adjoint():
    rng = np.random.default_rng(1)
    A = from_dense(rng.standard_normal((7, 4)))
    rep = adjoint_check(A)
    assert isinstance(rep, AdjointReport)
    assert rep.ok and rep.max_residual < 1e-12


def test_adjoint_check_catches_wrong_adjoint():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((5, 5))
    bad = LinearMap(apply=lambda v: M @ v, adjoint_apply=lambda u: M @ u,
                    domain_dim=5, codomain_dim=5)
    assert not adjoint_check(bad).ok


def test_spectral_upper_bound_brackets_true_norm():
    rng = np.random.default_rng(3)
    for _ in range(5):
        mat = rng.standard_normal((6, 9))
        true = np.linalg.svd(mat, compute_uv=False)[0]
        est = spectral_upper_bound(from_dense(mat))
        assert true <= est <= 1.06 * true


def test_spectral_upper_bound_zero_map():
    assert spectral_upper_bound(from_dense(np.zeros((3, 4)))) == 0.0


def test_block_diagonal_metric_apply_solve_roundtrip():
    lay = BlockLayout((2, 3))
    M = BlockDiagonalMetric([2.0, 0.5], lay)
    v = np.arange(1, 6, dtype=float)
    assert np.allclose(M.apply(v), v * np.array([2, 2, 0.5, 0.5, 0.5]))
    assert np.allclose(M.solve(M.apply(v)), v)
    assert M.omega_lower == 0.5 and M.omega_upper == 2.0
    Minv = BlockDiagonalMetric.from_inverse_scalars([0.5, 2.0], lay)
    assert Minv.scalars == M.scalars


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_block_diagonal_metric_rejects_a_scalar_not_finite_and_positive(bad):
    # a NaN used to construct, with omega_lower NaN: min(...) <= 0 is false
    with pytest.raises(ValueError, match="metric scalar 1 is %r, not finite "
                                         "and positive" % bad):
        BlockDiagonalMetric([2.0, bad], BlockLayout((2, 3)))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_zero_inverse_scalar_is_named(zero):
    # both zeros used to raise ZeroDivisionError, naming neither
    with pytest.raises(ValueError, match="inverse metric scalar 1 is %r, not "
                                         "positive" % zero):
        BlockDiagonalMetric.from_inverse_scalars([2.0, zero],
                                                 BlockLayout((2, 3)))


def test_dense_metric_solve_and_bounds():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((5, 5))
    mat = B @ B.T + np.eye(5)
    M = DenseMetric(mat)
    w = np.linalg.eigvalsh(mat)
    assert np.isclose(M.omega_lower, w[0]) and np.isclose(M.omega_upper, w[-1])
    with pytest.raises(ValueError):
        DenseMetric(np.diag([1.0, -1.0]))  # indefinite


def test_scaled_and_callable_metrics():
    M = DenseMetric(3.0 * np.eye(2))
    v = np.array([1.0, -2.0])
    assert np.allclose(M.apply(v), 3.0 * v)
    assert M.omega_lower == M.omega_upper == 3.0
    assert np.isclose(weighted_norm_sq(M, v), 3.0 * np.dot(v, v))
    assert np.isclose(weighted_norm_sq(IdentityMetric(), v), np.dot(v, v))


@pytest.mark.parametrize("metric", [IdentityMetric(), DenseMetric(np.eye(2))],
                         ids=lambda m: type(m).__name__)
def test_apply_only_metrics_raise_on_solve(metric):
    # the splitters hand the kernel their own c M^-1 v
    with pytest.raises(NotImplementedError):
        metric.solve(np.ones(2))


def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((4, 6))
    path = tmp_path / "m.mtx"
    write_matrix(path, mat)
    back = read_matrix(path)
    assert np.allclose(back, mat)
