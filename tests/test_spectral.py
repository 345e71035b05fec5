import numpy as np
import pytest
from scipy.linalg import solve_triangular

import trlbfgs.spectral as spectral
from trlbfgs.pairs import PairBuffer
from trlbfgs.spectral import solve_upper

from oracles import (
    bfgs_recursion,
    dense_B0_hat,
    dense_compact,
    explicit_P_par,
    fill_buffer,
    random_pairs,
)


def single_pair_buffer():
    buf = PairBuffer(2, 2)
    assert buf.try_push([1.0, 0.0], [2.0, 0.0])
    return buf


def test_build_middle_single_pair_hand_values():
    M = spectral.build_middle(single_pair_buffer(), gamma=2.0)
    assert np.allclose(M, [[-0.5, 0.0], [0.0, 0.5]])


def test_build_middle_single_pair_is_diagonal_any_gamma():
    buf = single_pair_buffer()
    for gamma in (0.3, 1.0, 7.5):
        M = spectral.build_middle(buf, gamma)
        assert M[0, 1] == 0.0 and M[1, 0] == 0.0


def test_build_middle_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        spectral.build_middle(single_pair_buffer(), gamma=0.0)


def test_build_middle_of_no_pairs_is_empty():
    # As build_inverse's M_hat: no stored pair, no low-rank part.
    assert spectral.build_middle(PairBuffer(3, 2), gamma=1.0).shape == (0, 0)


def test_build_middle_matches_the_split_formulas_at_every_count(monkeypatch):
    # build_middle splits S^T Y itself.  Its bracket, with the -0.0 that -D
    # has off its diagonal, and its result must be bitwise those of
    # np.tril(., -1) and np.diag at every count from 1 to m and after evictions.
    brackets = []
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: brackets.append(a.copy()) or real_inv(a))
    rng = np.random.default_rng(35)
    n, m, gamma = 11, 4, 1.7
    buf = PairBuffer(n, m)
    for s, y in random_pairs(rng, n, 2 * m + 1):
        assert buf.try_push(s, y)
        SY = buf.gram_SY
        L, D = np.tril(SY, -1), np.diag(np.diag(SY))
        bracket = np.block([[gamma * buf.gram_SS, L], [L.T, -D]])
        M = -real_inv(bracket)
        got = spectral.build_middle(buf, gamma)
        assert brackets.pop().tobytes() == bracket.tobytes()
        assert got.tobytes() == (0.5 * (M + M.T)).tobytes()


def test_compact_representation_matches_dense_recursion():
    rng = np.random.default_rng(42)
    n, k, gamma = 10, 3, 1.3
    buf = fill_buffer(rng, n, k)
    pairs = zip(buf.S.T, buf.Y.T)
    B_ref = bfgs_recursion(gamma * np.eye(n), pairs)
    M = spectral.build_middle(buf, gamma)
    Psi = np.hstack([gamma * buf.S, buf.Y])
    B = gamma * np.eye(n) + Psi @ M @ Psi.T
    assert np.abs(B - B_ref).max() <= 1e-9


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("trans", [0, 1])
@pytest.mark.parametrize("size", [1, 10])
@pytest.mark.parametrize("columns", [None, 3])
def test_solve_upper_matches_solve_triangular_bitwise(order, trans, size, columns):
    rng = np.random.default_rng(7)
    # Entries below the diagonal must be ignored, as scipy ignores them.
    U = rng.standard_normal((size, size)) + size * np.eye(size)
    U = np.asarray(U, order=order)
    b = rng.standard_normal(size if columns is None else (size, columns))
    got = solve_upper(U, b, trans)
    assert np.array_equal(got, solve_triangular(U, b, trans=trans, lower=False))
    assert got.shape == b.shape


@pytest.mark.parametrize("layout", ["C", "F", "corner"])
@pytest.mark.parametrize("trans", [0, 1])
@pytest.mark.parametrize("k", range(1, 6))
def test_solve_upper_ignores_the_strictly_lower_triangle_bitwise(layout, trans, k):
    # build_inverse passes the stored S^T Y block for its upper triangle T.
    # "corner" is the leading k-by-k corner of a C-ordered 5-by-5 array, as
    # PairBuffer.gram_SY is below capacity: neither C- nor F-contiguous for k < 5.
    rng = np.random.default_rng(10 * k + trans)
    T = np.triu(rng.standard_normal((k, k))) + k * np.eye(k)
    b = rng.standard_normal((k, 3))

    def laid_out(A):
        if layout == "corner":
            block = rng.standard_normal((5, 5))
            block[:k, :k] = A
            return block[:k, :k]
        return np.asarray(A, order=layout)

    filled = laid_out(T + np.tril(1e3 * rng.standard_normal((k, k)), -1))
    want = solve_upper(laid_out(T), b, trans)
    assert solve_upper(filled, b, trans).tobytes() == want.tobytes()
    if layout == "corner":
        # ... and to the C-ordered triangle that np.triu returns.
        assert want.tobytes() == solve_upper(np.ascontiguousarray(T), b, trans).tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_upper_zero_diagonal_raises(order):
    U = np.asarray(np.triu(np.ones((4, 4))), order=order)
    U[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
        solve_upper(U, np.ones(4))


def test_factorize_single_pair_example():
    buf = single_pair_buffer()
    fac = spectral.factorize(buf, gamma=1.0)
    assert fac.rank == 1
    # dense oracle: one update from the identity gives diag(2, 1)
    B = bfgs_recursion(np.eye(2), [([1.0, 0.0], [2.0, 0.0])])
    assert np.allclose(B, np.diag([2.0, 1.0]))
    assert fac.lambdas == pytest.approx([2.0], abs=1e-12)


def test_factorize_collinear_duplicates_truncate_to_rank_one():
    rng = np.random.default_rng(5)
    s = rng.standard_normal(6)
    buf = PairBuffer(6, 3)
    assert buf.try_push(s, 2.0 * s)
    assert buf.try_push(s, 2.0 * s)
    fac = spectral.factorize(buf, gamma=1.0)
    assert fac.rank == 1


def test_factorize_rejects_an_empty_buffer():
    # With no pair stored the driver takes B as a multiple of the identity.
    with pytest.raises(ValueError, match="no pair"):
        spectral.factorize(PairBuffer(4, 2), gamma=1.0)


def test_eigenvalues_match_dense_oracle():
    rng = np.random.default_rng(20)
    n, k, gamma = 20, 5, 2.1
    buf = fill_buffer(rng, n, k)
    fac = spectral.factorize(buf, gamma)
    lam_ours = np.sort(np.concatenate([fac.lambdas, np.full(n - fac.rank, gamma)]))
    lam_ref = np.sort(np.linalg.eigvalsh(dense_compact(buf.S, buf.Y, gamma)))
    scale = max(1.0, np.abs(lam_ref).max())
    assert np.abs(lam_ours - lam_ref).max() <= 1e-9 * scale


def test_apply_P_par_T_annihilates_orthogonal_complement_of_span():
    rng = np.random.default_rng(8)
    n, k, gamma = 20, 3, 1.5
    buf = fill_buffer(rng, n, k)
    fac = spectral.factorize(buf, gamma)
    V = np.hstack([buf.S, buf.Y])
    x = rng.standard_normal(n)
    x -= V @ np.linalg.lstsq(V, x, rcond=None)[0]  # project out the span
    g_par = spectral.apply_P_par_T(fac, buf.vt_dot(x))
    assert np.abs(g_par).max() <= 1e-10 * np.linalg.norm(x)


def test_apply_P_par_T_recovers_basis_coordinates():
    rng = np.random.default_rng(9)
    buf = fill_buffer(rng, 15, 4)
    gamma = 0.8
    fac = spectral.factorize(buf, gamma)
    P = explicit_P_par(fac, buf)
    e1 = np.zeros(fac.rank)
    e1[0] = 1.0
    got = spectral.apply_P_par_T(fac, buf.vt_dot(P[:, 0]))
    assert np.abs(got - e1).max() <= 1e-10


def test_apply_P_par_T_is_a_contraction():
    rng = np.random.default_rng(10)
    buf = fill_buffer(rng, 25, 5)
    gamma = 3.0
    fac = spectral.factorize(buf, gamma)
    for _ in range(20):
        x = rng.standard_normal(25)
        assert np.linalg.norm(spectral.apply_P_par_T(fac, buf.vt_dot(x))) <= (1 + 1e-12) * np.linalg.norm(x)


def test_apply_P_par_columns_are_unit_eigenvectors():
    rng = np.random.default_rng(12)
    n, gamma = 20, 1.7
    buf = fill_buffer(rng, n, 4)
    fac = spectral.factorize(buf, gamma)
    B = dense_compact(buf.S, buf.Y, gamma)
    for i in range(fac.rank):
        e = np.zeros(fac.rank)
        e[i] = 1.0
        col = spectral.apply_P_par(fac, buf, e)
        assert abs(np.linalg.norm(col) - 1.0) <= 1e-10
        lam = fac.lambdas[i]
        assert np.abs(B @ col - lam * col).max() <= 1e-9 * max(1.0, abs(lam))


def test_apply_roundtrip_is_identity_on_coordinates():
    rng = np.random.default_rng(14)
    buf = fill_buffer(rng, 18, 4)
    gamma = 2.4
    fac = spectral.factorize(buf, gamma)
    v = rng.standard_normal(fac.rank)
    back = spectral.apply_P_par_T(fac, buf.vt_dot(spectral.apply_P_par(fac, buf, v)))
    assert np.abs(back - v).max() <= 1e-10 * max(1.0, np.abs(v).max())


def test_adjoint_consistency():
    rng = np.random.default_rng(15)
    buf = fill_buffer(rng, 22, 5)
    gamma = 1.1
    fac = spectral.factorize(buf, gamma)
    for _ in range(10):
        x = rng.standard_normal(22)
        v = rng.standard_normal(fac.rank)
        lhs = spectral.apply_P_par(fac, buf, v) @ x
        rhs = v @ spectral.apply_P_par_T(fac, buf.vt_dot(x))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_perp_norm_sq_zero_on_retained_span():
    rng = np.random.default_rng(16)
    buf = fill_buffer(rng, 16, 3)
    gamma = 1.9
    fac = spectral.factorize(buf, gamma)
    x = spectral.apply_P_par(fac, buf, rng.standard_normal(fac.rank))
    g_par = spectral.apply_P_par_T(fac, buf.vt_dot(x))
    assert spectral.perp_norm_sq(float(x @ x), g_par) <= 1e-10 * (x @ x)


def test_perp_norm_sq_rank_zero_is_full_norm():
    x = np.array([3.0, 4.0])
    assert spectral.perp_norm_sq(float(x @ x), np.empty(0)) == pytest.approx(25.0)


def test_perp_norm_sq_matches_explicit_projector():
    rng = np.random.default_rng(18)
    n, gamma = 20, 1.4
    buf = fill_buffer(rng, n, 4)
    fac = spectral.factorize(buf, gamma)
    P = explicit_P_par(fac, buf)
    proj = np.eye(n) - P @ P.T
    for _ in range(10):
        x = rng.standard_normal(n)
        ref = float(np.linalg.norm(proj @ x) ** 2)
        got = spectral.perp_norm_sq(float(x @ x), spectral.apply_P_par_T(fac, buf.vt_dot(x)))
        assert abs(got - ref) <= 1e-10 * max(1.0, ref)


def test_sc_norm_of_scaled_basis_column():
    rng = np.random.default_rng(19)
    buf = fill_buffer(rng, 14, 3)
    gamma = 2.2
    fac = spectral.factorize(buf, gamma)
    e = np.zeros(fac.rank)
    e[1] = 1.0
    col = spectral.apply_P_par(fac, buf, e)
    assert spectral.sc_norm(3.0 * col, fac, buf) == pytest.approx(3.0, abs=1e-9)


def test_sc_norm_ratio_bounds():
    rng = np.random.default_rng(21)
    buf = fill_buffer(rng, 30, 5)
    gamma = 0.9
    fac = spectral.factorize(buf, gamma)
    bound = np.sqrt(fac.rank + 1)
    for _ in range(200):
        x = rng.standard_normal(30)
        ratio = np.linalg.norm(x) / spectral.sc_norm(x, fac, buf)
        assert 1.0 - 1e-9 <= ratio <= bound * (1.0 + 1e-9)


def test_sc_norm_axioms_sampled():
    rng = np.random.default_rng(22)
    buf = fill_buffer(rng, 12, 4)
    gamma = 1.6
    fac = spectral.factorize(buf, gamma)

    def norm(x):
        return spectral.sc_norm(x, fac, buf)

    for _ in range(25):
        x = rng.standard_normal(12)
        y = rng.standard_normal(12)
        a = rng.standard_normal()
        assert norm(a * x) == pytest.approx(abs(a) * norm(x), rel=1e-12, abs=1e-14)
        assert norm(x + y) <= norm(x) + norm(y) + 1e-12
    assert norm(np.zeros(12)) == 0.0


def test_two_scale_eigendecomposition_identity():
    # recursion from the explicit two-scale initial matrix reproduces
    # P (Lam_hat + gamma I) P^T + gamma_perp (I - P P^T)
    rng = np.random.default_rng(23)
    n, k, gamma, gamma_perp = 12, 4, 1.5, 4.0
    buf = fill_buffer(rng, n, k)
    fac = spectral.factorize(buf, gamma)
    P = explicit_P_par(fac, buf)
    B0 = dense_B0_hat(P, gamma, gamma_perp, n)
    B_rec = bfgs_recursion(B0, zip(buf.S.T, buf.Y.T))
    B_eig = P @ np.diag(fac.lambdas) @ P.T + gamma_perp * (np.eye(n) - P @ P.T)
    assert np.abs(B_rec - B_eig).max() <= 1e-9


def test_parallel_eigenvalues_independent_of_gamma_perp():
    rng = np.random.default_rng(24)
    n, k, gamma = 12, 4, 2.0
    buf = fill_buffer(rng, n, k)
    fac = spectral.factorize(buf, gamma)
    P = explicit_P_par(fac, buf)
    spectra = []
    for gamma_perp in (0.5 * gamma, gamma, 10.0 * gamma):
        B0 = dense_B0_hat(P, gamma, gamma_perp, n)
        B = bfgs_recursion(B0, zip(buf.S.T, buf.Y.T))
        spectra.append(np.sort(np.linalg.eigvalsh(P.T @ B @ P)))
    for lam in spectra[1:]:
        assert np.abs(lam - spectra[0]).max() <= 1e-12 * max(1.0, np.abs(spectra[0]).max())
