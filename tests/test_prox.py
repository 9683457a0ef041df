import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsplit import prox_problems
from opsplit.prox_problems import (ProxFn, QpInstance, build_graph_laplacian,
                                   build_lrr, gen_qp, knn_heat_affinity,
                                   load_lrr_instance, prox_l1, prox_nuclear,
                                   proj_nonneg)
from opsplit.splitters import SCHEMES

from support import (adjoint_check, kkt_operator, save_lrr_instance,
                     to_dense)


# ---------------------------------------------------------------------------
# Scalar proxes
# ---------------------------------------------------------------------------


def test_prox_l1_hand_values():
    out = prox_l1(1.0, 1.0, np.array([2.0, -0.5, 0.0]))
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0]))
    v = np.array([3.0, -2.0, 0.25])
    assert np.array_equal(prox_l1(1.0, 0.0, v), v)  # lam = 0 is the identity
    with pytest.raises(ValueError):
        prox_l1(0.0, 1.0, v)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=12),
       st.floats(0.01, 5.0), st.floats(0.01, 5.0))
def test_prox_l1_subgradient_optimality(vals, t, lam):
    v = np.array(vals)
    u = prox_l1(t, lam, v)
    # optimality: v - u in t*lam * sign(u) componentwise
    on = u != 0
    assert np.all(np.abs(v[on] - u[on] - t * lam * np.sign(u[on])) <= 1e-10)
    assert np.all(np.abs(v[~on]) <= t * lam + 1e-10)


def test_prox_nuclear_hand_values():
    out = prox_nuclear(1.0, np.diag([3.0, 1.0]))
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)
    V = np.random.default_rng(0).standard_normal((5, 4))
    smax = np.linalg.svd(V, compute_uv=False)[0]
    assert np.allclose(prox_nuclear(smax + 1.0, V), 0.0, atol=1e-12)


def test_prox_nuclear_moreau_identity():
    # prox of the nuclear norm plus t * projection onto the spectral ball
    # recovers the argument
    rng = np.random.default_rng(1)
    for _ in range(20):
        V = rng.standard_normal((8, 6))
        t = float(rng.uniform(0.1, 4.0))
        u, s, vt = np.linalg.svd(V / t, full_matrices=False)
        proj = (u * np.minimum(s, 1.0)) @ vt
        assert np.allclose(prox_nuclear(t, V) + t * proj, V, atol=1e-10)


def test_proj_nonneg_basics():
    assert np.array_equal(proj_nonneg(np.array([-1.0, 0.0, 2.0])),
                          np.array([0.0, 0.0, 2.0]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=10))
def test_proj_nonneg_idempotent_and_complementary(vals):
    w = np.array(vals)
    p = proj_nonneg(w)
    assert np.array_equal(proj_nonneg(p), p)
    assert np.all(p >= 0)
    assert np.all(p * (p - w) <= 1e-12)


def test_proxfn_firm_nonexpansiveness():
    rng = np.random.default_rng(2)
    fns = [ProxFn.l1(0.7), ProxFn.nonneg(), ProxFn.zero(),
           ProxFn.nuclear((4, 3)), ProxFn.constant(rng.standard_normal(12))]
    for fn in fns:
        dim = 12
        for _ in range(25):
            a = rng.standard_normal(dim)
            b = rng.standard_normal(dim)
            t = float(rng.uniform(0.1, 3.0))
            pa, pb = fn.evaluate(t, a), fn.evaluate(t, b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10, fn.name


def test_proxfn_matrix_reshape_roundtrip():
    fn = ProxFn.nuclear((3, 2))
    flat = np.arange(6, dtype=float)
    out = fn.evaluate(0.5, flat)
    # same computation through the matrix route
    direct = prox_nuclear(0.5, flat.reshape(3, 2, order="F"))
    assert np.allclose(out, direct.ravel(order="F"))


def test_proxfn_values():
    assert ProxFn.l1(2.0).value(np.array([1.0, -3.0])) == pytest.approx(8.0)
    assert ProxFn.nonneg().value(np.array([0.0, 1.0])) == 0.0
    assert ProxFn.nonneg().value(np.array([-1.0])) == float("inf")
    nuc = ProxFn.nuclear((2, 2))
    assert nuc.value(np.eye(2).ravel(order="F")) == pytest.approx(2.0)


def test_l1_weight_is_checked_when_built():
    # a negative weight used to pass here and abort the solve at its first
    # prox call; lam = 0 is the zero function's prox
    with pytest.raises(ValueError, match=">= 0"):
        ProxFn.l1(-1.0)
    with pytest.raises(ValueError):
        ProxFn.l1(float("nan"))
    v = np.array([2.0, -0.5])
    assert np.array_equal(ProxFn.l1(0.0).evaluate(1.0, v), v)


# ---------------------------------------------------------------------------
# Graph Laplacians
# ---------------------------------------------------------------------------


def test_laplacian_two_node_graph():
    L = build_graph_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(L, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_psd_and_null_vector():
    rng = np.random.default_rng(3)
    W = np.abs(rng.standard_normal((9, 9)))
    W = np.maximum(W, W.T)
    np.fill_diagonal(W, 0.0)
    L = build_graph_laplacian(W)
    assert np.allclose(L @ np.ones(9), 0.0, atol=1e-12)
    assert np.linalg.eigvalsh(L)[0] >= -1e-10


def test_laplacian_input_validation():
    with pytest.raises(ValueError):
        build_graph_laplacian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        build_graph_laplacian(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        build_graph_laplacian(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_knn_affinity_shape_and_symmetry():
    samples = np.random.default_rng(4).standard_normal((12, 3))
    W = knn_heat_affinity(samples, k=4)
    assert W.shape == (12, 12)
    assert np.allclose(W, W.T)
    assert np.all(np.diag(W) == 0.0)
    assert W.min() >= 0.0
    assert np.all((W > 0).sum(axis=1) >= 4)  # each row keeps its k neighbors


def _knn_heat_affinity_per_row(samples, k):
    """The per-row construction that knn_heat_affinity's single sort
    replaced: one argsort, list comprehension and row write per sample."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    sq = np.sum(samples * samples, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * samples @ samples.T, 0.0)
    dists = np.sqrt(d2)
    off = dists[~np.eye(n, dtype=bool)]
    h = float(np.median(off)) if off.size else 1.0
    if h <= 0:
        h = 1.0
    W = np.zeros((n, n))
    kk = min(k, n - 1)
    for i in range(n):
        order = np.argsort(dists[i])
        neigh = [j for j in order if j != i][:kk]
        W[i, neigh] = np.exp(-d2[i, neigh] / (2.0 * h * h))
    W = np.maximum(W, W.T)
    np.fill_diagonal(W, 0.0)
    return W


@pytest.mark.parametrize("n,k", sorted({(n, k) for n in (1, 2, 3, 40)
                                         for k in (1, 5, n - 1, n + 3)
                                         if k >= 1}))
@pytest.mark.parametrize("rounded", [False, True], ids=["random", "ties"])
def test_knn_affinity_is_bitwise_the_per_row_construction(n, k, rounded):
    # rounding to a coarse grid puts many equal distances in every row, so
    # the order among ties must come out of the sort as it did per row
    samples = np.random.default_rng(n).standard_normal((n, 3))
    if rounded:
        samples = np.round(samples)
    W = knn_heat_affinity(samples, k=k)
    assert W.tobytes() == _knn_heat_affinity_per_row(samples, k).tobytes()


def test_knn_affinity_rejects_k_below_one_and_non_matrix_samples():
    samples = np.random.default_rng(6).standard_normal((6, 2))
    for k in (0, -1):
        # k = -1 used to drop each row's farthest point: a near-complete graph
        with pytest.raises(ValueError, match="k >= 1"):
            knn_heat_affinity(samples, k=k)
    for bad in (samples.ravel(), samples[None]):
        with pytest.raises(ValueError, match="2-D"):
            knn_heat_affinity(bad)
    assert np.array_equal(knn_heat_affinity(samples[:1]), np.zeros((1, 1)))
    assert knn_heat_affinity(samples[:0]).shape == (0, 0)


def test_lrr_build_sorts_once_per_graph(monkeypatch):
    # the per-row construction called np.argsort once per sample: 80 times
    # for the two graphs of a 40 x 40 instance
    real, calls = np.argsort, [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    build_lrr(np.random.default_rng(0).standard_normal((40, 40)))
    assert calls[0] == 2


# ---------------------------------------------------------------------------
# LRR instance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lrr_small():
    X = np.random.default_rng(5).standard_normal((6, 8))
    return build_lrr(X, lam=2.0, mu=3.0, gamma=4.0)


def test_lrr_constraint_maps_have_true_adjoints(lrr_small):
    for i, a in enumerate(lrr_small.problem.A):
        rep = adjoint_check(a)
        assert rep.ok, "constraint map %d: residual %.2e" % (i, rep.max_residual)


def test_lrr_maps_match_kronecker_assembly():
    # dual space (Y1, Y2, Y3) of sizes (d x n, n x n, d x d), column-major;
    # vec(X Z) = (I_n kron X) vec(Z) and vec(G X) = (X^T kron I_d) vec(G)
    d, n = 4, 3
    X = np.random.default_rng(8).standard_normal((d, n))
    prob = build_lrr(X).problem
    eye, zero = np.eye, np.zeros
    adjoints = [
        np.vstack([np.kron(eye(n), X), eye(n * n), zero((d * d, n * n))]),
        np.vstack([np.kron(X.T, eye(d)), zero((n * n, d * d)), eye(d * d)]),
        np.vstack([eye(d * n), zero((n * n, d * n)), zero((d * d, d * n))]),
        np.vstack([zero((d * n, n * n)), -eye(n * n), zero((d * d, n * n))]),
        np.vstack([zero((d * n, d * d)), zero((n * n, d * d)), -eye(d * d)]),
    ]
    for i, (a, K) in enumerate(zip(prob.A, adjoints)):
        assert adjoint_check(a).ok, "constraint map %d" % i
        assert np.allclose(to_dense(a), K.T, atol=1e-12), "A_%d" % i
        cols = [a.adjoint_apply(e) for e in np.eye(a.codomain_dim)]
        assert np.allclose(np.column_stack(cols), K, atol=1e-12), "A_%d*" % i
    assert np.array_equal(prob.b, np.concatenate(
        [X.ravel(order="F"), np.zeros(n * n + d * d)]))


def test_lrr_feasibility_encodes_the_constraints(lrr_small):
    # choose E = X - XZ - GX, H = Z, F = G; the residual must vanish
    X = lrr_small.X
    d, n = X.shape
    rng = np.random.default_rng(6)
    Z = rng.standard_normal((n, n))
    G = rng.standard_normal((d, d))
    E = X - X @ Z - G @ X
    xs = [Z.ravel(order="F"), G.ravel(order="F"), E.ravel(order="F"),
          Z.ravel(order="F"), G.ravel(order="F")]
    assert np.linalg.norm(lrr_small.problem.feasibility(xs)) < 1e-10
    # breaking one constraint shows up in the residual
    xs[3] = xs[3] + 1.0
    assert np.linalg.norm(lrr_small.problem.feasibility(xs)) > 1.0


def test_lrr_gradient_matches_finite_differences(lrr_small):
    prob = lrr_small.problem
    rng = np.random.default_rng(7)
    xs = [rng.standard_normal(s) for s in prob.full_layout.sizes[:prob.p]]
    grads = prob.grad_f(xs)
    f0 = prob.f_value(xs)
    h = 1e-6
    for i in (0, 1):  # only the first two blocks are smooth-coupled
        direction = rng.standard_normal(xs[i].size)
        direction /= np.linalg.norm(direction)
        xs_p = [x.copy() for x in xs]
        xs_m = [x.copy() for x in xs]
        xs_p[i] += h * direction
        xs_m[i] -= h * direction
        fd = (prob.f_value(xs_p) - prob.f_value(xs_m)) / (2 * h)
        an = float(np.dot(grads[i], direction))
        assert fd == pytest.approx(an, rel=1e-6, abs=1e-8)
    for i in (2, 3, 4):
        assert np.all(grads[i] == 0.0)
    assert f0 >= 0.0  # PSD Laplacian quadratics


def test_lrr_lipschitz_constants(lrr_small):
    prob = lrr_small.problem
    lz = np.linalg.eigvalsh(lrr_small.L_Z)[-1]
    lg = np.linalg.eigvalsh(lrr_small.L_G)[-1]
    assert prob.L[0] == pytest.approx(3.0 * lz, rel=1e-12)
    assert prob.L[1] == pytest.approx(4.0 * lg, rel=1e-12)
    assert prob.L[2:] == [0.0, 0.0, 0.0]


def test_lrr_orientation_flag():
    X = np.random.default_rng(8).standard_normal((5, 7))
    rows = build_lrr(X, mu=2.0, gamma=2.0, orientation="rows")
    cols = build_lrr(X, mu=2.0, gamma=2.0, orientation="cols")
    xs = [np.random.default_rng(9).standard_normal(s)
          for s in rows.problem.full_layout.sizes[:rows.problem.p]]
    gz_rows = rows.problem.grad_f(xs)[0].reshape(7, 7, order="F")
    gz_cols = cols.problem.grad_f(xs)[0].reshape(7, 7, order="F")
    Z = xs[0].reshape(7, 7, order="F")
    assert np.allclose(gz_rows, 2.0 * Z @ rows.L_Z)
    assert np.allclose(gz_cols, 2.0 * cols.L_Z @ Z)
    with pytest.raises(ValueError):
        build_lrr(X, orientation="diag")


def test_lrr_save_load_roundtrip(tmp_path, lrr_small):
    save_lrr_instance(lrr_small, tmp_path / "inst")
    back = load_lrr_instance(tmp_path / "inst")
    assert np.allclose(back.X, lrr_small.X)
    assert np.allclose(back.L_Z, lrr_small.L_Z)
    assert np.allclose(back.L_G, lrr_small.L_G)
    assert (back.lam, back.mu, back.gamma) == (2.0, 3.0, 4.0)
    assert back.orientation == lrr_small.orientation


# ---------------------------------------------------------------------------
# Synthetic QPs
# ---------------------------------------------------------------------------


def test_qp_kkt_hand_example():
    # min (1/2)||x||^2  s.t.  x = e1  has x* = e1 and multiplier y* = -e1
    n = 3
    e1 = np.eye(n)[0]
    inst = QpInstance(Q=np.eye(n), c=np.zeros(n), G=np.eye(n), b=e1,
                      x_star=e1, y_star=-e1)
    assert inst.kkt_residual(e1, -e1) <= 1e-14
    K, q = kkt_operator(inst)
    z = np.concatenate([e1, -e1])
    assert np.allclose(K @ z - q, 0.0, atol=1e-14)


def test_gen_qp_reference_solves_the_kkt_system():
    for seed in range(6):
        inst = gen_qp(seed, p=2, n_i=4, m=3)
        assert inst.kkt_residual(inst.x_star, inst.y_star) <= 1e-10
        # strong convexity of each block: Q is block diagonal
        assert np.linalg.eigvalsh(inst.Q)[0] >= 0.5 - 1e-12


def test_a_qp_builds_its_dense_blocks_once(monkeypatch):
    # gen_qp keeps the Q, c and G of its KKT solve; the four splitter setups
    # and kkt_residual read them instead of rebuilding Q (7 builds in all)
    original, calls = prox_problems._block_diag, []

    def counted(blocks):
        calls.append(len(blocks))
        return original(blocks)

    monkeypatch.setattr(prox_problems, "_block_diag", counted)
    inst = gen_qp(0, p=2, n_i=5, m=3)
    for scheme in SCHEMES.values():
        scheme.setup(inst, 0.5)
    inst.kkt_residual(inst.x_star, inst.y_star)
    assert len(SCHEMES) == 4 and calls == [2]


def test_gen_qp_is_deterministic():
    a = gen_qp(11, p=3, n_i=4, m=2)
    b = gen_qp(11, p=3, n_i=4, m=2)
    for field in ("Q", "c", "G", "b", "x_star", "y_star"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_gen_qp_input_validation():
    with pytest.raises(ValueError, match="got p=1, n_i=2, m=5"):
        gen_qp(0, p=1, n_i=2, m=5)
