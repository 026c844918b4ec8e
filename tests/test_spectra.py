import numpy as np
import pytest

from curvkit import (
    NonFiniteError,
    NotEliminableError,
    schur_minimize,
    schur_minimizer,
    smallest_eigenvalue,
)
from oracles import cholesky_schur, rayleigh_matrix_minimum


def _random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return 0.5 * (m + m.T)


def test_identity_matrix():
    lam, vec = smallest_eigenvalue(np.eye(3))
    assert lam == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_diagonal_matrix():
    lam, vec = smallest_eigenvalue(np.diag([2.0, -1.0, 5.0]))
    assert lam == pytest.approx(-1.0, abs=1e-14)
    assert np.allclose(np.abs(vec), [0.0, 1.0, 0.0], atol=1e-12)


def test_dimension_one():
    lam, vec = smallest_eigenvalue(np.array([[-4.5]]))
    assert lam == -4.5 and vec.tolist() == [1.0]


def test_zero_and_offdiagonal_matrices():
    lam, _ = smallest_eigenvalue(np.zeros((3, 3)))
    assert lam == 0.0
    lam, _ = smallest_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert lam == pytest.approx(-1.0, abs=1e-12)


def test_extreme_scale_matrix():
    rng = np.random.default_rng(21)
    base = _random_symmetric(rng, 5)
    for scale in (1e200, 1e-200):
        lam, vec = smallest_eigenvalue(base * scale)
        assert lam == pytest.approx(float(np.linalg.eigvalsh(base)[0]) * scale,
                                    rel=1e-9)
        # residual on the unscaled matrix: the scaled norm would overflow
        norm = np.linalg.norm(base)
        assert np.linalg.norm(base @ vec - (lam / scale) * vec) <= 1e-9 * norm


def test_random_matrices_vs_rayleigh_oracle():
    rng = np.random.default_rng(7)
    for trial in range(4):
        m = _random_symmetric(rng, 6)
        lam, vec = smallest_eigenvalue(m)
        oracle = rayleigh_matrix_minimum(m, restarts=100000, seed=trial)
        assert abs(lam - oracle) <= 1e-6
        # residual contract
        norm = np.linalg.norm(m)
        assert np.linalg.norm(m @ vec - lam * vec) <= 1e-9 * norm
        # extra cross-check against a library eigensolver
        assert abs(lam - float(np.linalg.eigvalsh(m)[0])) <= 1e-9 * max(norm, 1.0)


def test_eigenvalue_shift_property():
    rng = np.random.default_rng(8)
    m = _random_symmetric(rng, 5)
    base, _ = smallest_eigenvalue(m)
    for c in (-3.2, 0.6, 11.0):
        shifted, _ = smallest_eigenvalue(m + c * np.eye(5))
        assert abs(shifted - (base + c)) <= 1e-9


def test_determinism():
    rng = np.random.default_rng(9)
    m = _random_symmetric(rng, 7)
    lam1, vec1 = smallest_eigenvalue(m)
    lam2, vec2 = smallest_eigenvalue(m)
    assert lam1 == lam2
    assert (vec1 == vec2).all()


def test_non_finite_rejected():
    m = np.eye(3)
    m[1, 1] = np.nan
    with pytest.raises(NonFiniteError):
        smallest_eigenvalue(m)
    m[1, 1] = np.inf
    with pytest.raises(NonFiniteError):
        schur_minimize(m, [0])


def test_not_symmetric_rejected():
    with pytest.raises(ValueError):
        smallest_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_shape_rejected():
    with pytest.raises(ValueError, match="expected a square matrix"):
        smallest_eigenvalue(np.ones((2, 3)))
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        smallest_eigenvalue(np.zeros((0, 0)))


def test_schur_arguments_rejected():
    with pytest.raises(ValueError, match="keep index 5 out of range"):
        schur_minimize(np.eye(3), [5])
    with pytest.raises(ValueError, match="cannot eliminate every coordinate"):
        schur_minimize(np.eye(2), [])
    with pytest.raises(ValueError, match=r"u has shape \(2,\), expected \(1,\)"):
        schur_minimizer(np.eye(3), [0], np.ones(2))


def test_schur_empty_elimination_returns_input():
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    s = schur_minimize(m, [0, 1])
    assert np.array_equal(s, m)


def test_schur_two_by_two_closed_form():
    a, b, d = 3.0, 1.5, 4.0
    m = np.array([[a, b], [b, d]])
    s = schur_minimize(m, [0])
    assert s.shape == (1, 1)
    assert s[0, 0] == pytest.approx(a - b * b / d, abs=1e-14)


def test_schur_cycle_curvature_form_vanishes():
    # At dimension 2 on a 6-cycle vertex the curvature form over
    # (v1, v2, w1, w2) is sum_i [v_i^2/4 - v_i w_i/4 + w_i^2/16];
    # eliminating w gives the zero form (minimum at w = 2v).
    m = np.zeros((4, 4))
    for i in range(2):
        m[i, i] = 0.25
        m[2 + i, 2 + i] = 1.0 / 16.0
        m[i, 2 + i] = m[2 + i, i] = -0.125
    s = schur_minimize(m, [0, 1])
    assert np.max(np.abs(s)) <= 1e-15
    w = schur_minimizer(m, [0, 1], np.array([1.0, -2.0]))
    assert np.allclose(w, [2.0, -4.0], atol=1e-12)


def _random_form(rng, diagonal):
    """Random symmetric 7x7 form, 3 kept coordinates, with a strictly
    positive-definite (optionally diagonal) eliminated block."""
    dim, keep_count = 7, 3
    keep = sorted(rng.choice(dim, size=keep_count, replace=False).tolist())
    elim = [i for i in range(dim) if i not in keep]
    m = _random_symmetric(rng, dim)
    if diagonal:
        block = np.diag(rng.uniform(0.1, 3.0, size=len(elim)))
    else:
        q = rng.normal(size=(len(elim), len(elim)))
        block = q @ q.T + 0.5 * np.eye(len(elim))
    m[np.ix_(elim, elim)] = block
    return m, keep, elim


def _check_variational(rng, m, keep, elim, s, minimizer):
    """u^T S u is the minimum over w of [u; w]^T m [u; w], attained at
    minimizer(u)."""
    full = np.zeros(m.shape[0])
    for _ in range(100):
        u = rng.normal(size=len(keep))
        quad_s = u @ s @ u
        w_star = minimizer(u)
        full[keep] = u
        full[elim] = w_star
        assert quad_s == pytest.approx(full @ m @ full, abs=1e-9)
        for _ in range(2):
            full[elim] = w_star + rng.normal(size=len(elim))
            assert full @ m @ full >= quad_s - 1e-9


def test_schur_variational_property():
    rng = np.random.default_rng(11)
    # dense eliminated blocks: the general Cholesky reference
    for _ in range(5):
        m, keep, elim = _random_form(rng, diagonal=False)
        s, w_map = cholesky_schur(m, keep)
        _check_variational(rng, m, keep, elim, s, lambda u: w_map @ u)
    # diagonal eliminated blocks: the division route, which must agree
    # with the reference
    for _ in range(5):
        m, keep, elim = _random_form(rng, diagonal=True)
        s = schur_minimize(m, keep)
        assert np.allclose(s, cholesky_schur(m, keep)[0], rtol=1e-12, atol=1e-12)
        _check_variational(rng, m, keep, elim, s, lambda u: schur_minimizer(m, keep, u))


def test_schur_not_eliminable():
    m = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, -2.0, 0.0],
            [0.0, 0.0, 3.0],
        ]
    )
    with pytest.raises(NotEliminableError):
        schur_minimize(m, [0])
    # pivot exactly at the floor is rejected too
    m[1, 1] = 1e-13
    with pytest.raises(NotEliminableError):
        schur_minimize(m, [0])
    # indefinite eliminated block with a positive diagonal
    m = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 2.0],
            [0.0, 2.0, 1.0],
        ]
    )
    with pytest.raises(NotEliminableError):
        schur_minimize(m, [0])
    with pytest.raises(NotEliminableError):
        schur_minimizer(m, [0], np.array([1.0]))
    # positive definite but not diagonal: outside the division route
    m[1:, 1:] = [[2.0, 1.0], [1.0, 2.0]]
    with pytest.raises(NotEliminableError):
        schur_minimize(m, [0])
    with pytest.raises(NotEliminableError):
        schur_minimizer(m, [0], np.array([1.0]))
