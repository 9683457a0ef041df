import dataclasses

import numpy as np
import pytest

from opsplit.linops import (AdjointReport, BlockDiagonalMetric, BlockLayout,
                            BlockPoint, CallableMetric, DenseMetric,
                            IdentityMetric, LinearMap, ScaledIdentityMetric,
                            adjoint_check, read_matrix, spectral_upper_bound,
                            weighted_norm, weighted_norm_sq, write_matrix)


def test_layout_offsets_and_slices():
    lay = BlockLayout((2, 3, 4))
    assert lay.dim == 9
    assert lay.offsets == (0, 2, 5, 9)
    assert lay.block_slice(1) == slice(2, 5)


def test_layout_keeps_equality_hash_and_derived_sizes():
    for sizes in [(), (3,), (2, 3, 4), (400, 1, 0, 16)]:
        lay = BlockLayout(sizes)
        # offsets and dim are computed once and stored, and agree with sums
        assert {"offsets", "dim"} <= set(vars(lay))
        assert lay.dim == sum(sizes)
        assert lay.offsets == tuple(sum(sizes[:i]) for i in range(len(sizes) + 1))
    a = BlockLayout((2, 6), shapes=(None, (2, 3)))
    b = BlockLayout([2, 6], shapes=[None, (2, 3)])
    assert a == b and hash(a) == hash(b)
    assert a != BlockLayout((2, 6)) and a != BlockLayout((6, 2))
    assert repr(a) == "BlockLayout(sizes=(2, 6), shapes=(None, (2, 3)))"
    assert [f.name for f in dataclasses.fields(a)] == ["sizes", "shapes"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.dim = 3


def test_layout_rejects_bad_shape():
    with pytest.raises(ValueError):
        BlockLayout((4,), shapes=((2, 3),))


def test_blockpoint_matrix_blocks_are_column_major():
    M = np.arange(6, dtype=float).reshape(2, 3)
    p = BlockPoint.from_blocks([M, np.array([7.0])])
    assert np.array_equal(p.block_mat(0), M)
    # column-major flattening
    assert np.array_equal(p.block(0), M.ravel(order="F"))
    p.set_block(0, 2 * M)
    assert np.array_equal(p.block_mat(0), 2 * M)


def test_blockpoint_arithmetic():
    lay = BlockLayout((3, 2))
    rng = np.random.default_rng(0)
    a = BlockPoint(rng.standard_normal(5), lay)
    b = BlockPoint(rng.standard_normal(5), lay)
    assert np.allclose((a + b).data, a.data + b.data)
    assert np.allclose((a - b).data, a.data - b.data)
    assert np.allclose((2.5 * a).data, 2.5 * a.data)
    assert np.isclose(a.inner(b), np.dot(a.data, b.data))
    assert np.isclose(a.norm(), np.linalg.norm(a.data))
    c = a.copy()
    c.data[0] += 1
    assert a.data[0] != c.data[0]


def test_adjoint_check_passes_for_true_adjoint():
    rng = np.random.default_rng(1)
    A = LinearMap.from_dense(rng.standard_normal((7, 4)))
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
        est = spectral_upper_bound(LinearMap.from_dense(mat))
        assert true <= est <= 1.06 * true


def test_spectral_upper_bound_zero_map():
    assert spectral_upper_bound(LinearMap.zero(4, 3)) == 0.0


def test_block_diagonal_metric_apply_solve_roundtrip():
    lay = BlockLayout((2, 3))
    M = BlockDiagonalMetric([2.0, 0.5], lay)
    v = np.arange(1, 6, dtype=float)
    assert np.allclose(M.apply(v), v * np.array([2, 2, 0.5, 0.5, 0.5]))
    assert np.allclose(M.solve(M.apply(v)), v)
    assert M.omega_lower == 0.5 and M.omega_upper == 2.0
    Minv = BlockDiagonalMetric.from_inverse_scalars([0.5, 2.0], lay)
    assert Minv.scalars == M.scalars


def test_dense_metric_solve_and_bounds():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((5, 5))
    mat = B @ B.T + np.eye(5)
    M = DenseMetric(mat)
    v = rng.standard_normal(5)
    assert np.allclose(M.apply(M.solve(v)), v)
    w = np.linalg.eigvalsh(mat)
    assert np.isclose(M.omega_lower, w[0]) and np.isclose(M.omega_upper, w[-1])
    with pytest.raises(ValueError):
        DenseMetric(np.diag([1.0, -1.0]))  # indefinite


def test_scaled_and_callable_metrics():
    M = ScaledIdentityMetric(3.0)
    v = np.array([1.0, -2.0])
    assert np.allclose(M.solve(M.apply(v)), v)
    C = CallableMetric(lambda u: 3.0 * u, lambda u: u / 3.0, 3.0, 3.0, dim=2)
    assert np.allclose(C.apply(v), M.apply(v))
    assert np.isclose(weighted_norm_sq(C, v), 3.0 * np.dot(v, v))
    assert np.isclose(weighted_norm(IdentityMetric(), v), np.linalg.norm(v))


def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((4, 6))
    path = tmp_path / "m.mtx"
    write_matrix(path, mat)
    back = read_matrix(path)
    assert np.allclose(back, mat)
