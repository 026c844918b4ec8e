"""Small dense symmetric-matrix utilities.

The matrices here are the local quadratic forms of the curvature
computation, so their dimension is bounded by the 2-ball size. The
numerics are numpy's LAPACK bindings: the eigensolve is ``np.linalg.eigh``
and Schur elimination checks the eliminated block with a Cholesky
factorization against a fixed pivot floor before ``np.linalg.solve``.
Results are deterministic for a given numpy/LAPACK build.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

PIVOT_FLOOR = 1e-12


class NonFiniteError(ValueError):
    """Matrix contains NaN or infinity."""


class NotEliminableError(ValueError):
    """Eliminated block is not strictly positive definite.

    For a quadratic form this means unconstrained minimization over the
    eliminated coordinates is unbounded below (or degenerate).
    """


def check_symmetric(m: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
    """Validate and return a float64 symmetric matrix (exactly symmetrized)."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix entries must be finite")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if float(np.max(np.abs(a - a.T))) > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (a + a.T)


def smallest_eigenvalue(m: np.ndarray | Sequence[Sequence[float]]) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector, by ``np.linalg.eigh``.

    Deterministic for identical input on a given numpy/LAPACK build; the
    eigenvector sign is fixed so its largest-magnitude component is
    positive.
    """
    values, vectors = np.linalg.eigh(check_symmetric(m))
    vec = vectors[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec
    return float(values[0]), vec


def _partition(m: np.ndarray, keep: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    n = m.shape[0]
    keep_idx = np.asarray(keep, dtype=np.intp)
    outside = keep_idx[(keep_idx < 0) | (keep_idx >= n)]
    if outside.size:
        raise ValueError(f"keep index {outside.min()} out of range 0..{n - 1}")
    kept = np.zeros(n, dtype=bool)
    kept[keep_idx] = True
    return np.flatnonzero(kept), np.flatnonzero(~kept)


def _solve_eliminated(m_ee: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M_ee^{-1} rhs, after checking M_ee is positive definite above the floor."""
    try:
        pivot = float(np.min(np.diag(np.linalg.cholesky(m_ee)))) ** 2
    except np.linalg.LinAlgError:
        raise NotEliminableError("eliminated block is not positive definite") from None
    if pivot <= PIVOT_FLOOR:
        raise NotEliminableError(
            f"smallest Cholesky pivot {pivot:.3e} is below the floor {PIVOT_FLOOR}"
        )
    return np.linalg.solve(m_ee, rhs)


def schur_minimize(m: np.ndarray | Sequence[Sequence[float]], keep: Sequence[int]) -> np.ndarray:
    """Schur complement of m onto the kept coordinates.

    For every vector u on the kept coordinates,
    u^T S u = min over w of [u; w]^T m [u; w], the minimum running over the
    eliminated coordinates. Requires the eliminated block to be strictly
    positive definite (NotEliminableError otherwise).
    """
    a = check_symmetric(m)
    keep_idx, elim = _partition(a, keep)
    if not elim.size:
        return a.copy()
    if not keep_idx.size:
        raise ValueError("cannot eliminate every coordinate")
    m_ee = a[np.ix_(elim, elim)]
    m_ek = a[np.ix_(elim, keep_idx)]
    m_kk = a[np.ix_(keep_idx, keep_idx)]
    s = m_kk - m_ek.T @ _solve_eliminated(m_ee, m_ek)
    return 0.5 * (s + s.T)


def schur_minimizer(
    m: np.ndarray | Sequence[Sequence[float]], keep: Sequence[int], u: np.ndarray
) -> np.ndarray:
    """Argmin over eliminated coordinates: w* = -M_ee^{-1} M_ek u."""
    a = check_symmetric(m)
    keep_idx, elim = _partition(a, keep)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (keep_idx.size,):
        raise ValueError(f"u has shape {u.shape}, expected ({keep_idx.size},)")
    if not elim.size:
        return np.zeros(0)
    m_ee = a[np.ix_(elim, elim)]
    m_ek = a[np.ix_(elim, keep_idx)]
    return -(_solve_eliminated(m_ee, m_ek) @ u)
