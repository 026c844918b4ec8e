"""Small dense symmetric-matrix utilities.

The matrices here are the local quadratic forms of the curvature
computation, so their dimension is bounded by the 2-ball size. The
eigensolve is numpy's LAPACK ``np.linalg.eigh``. Schur elimination
handles only a diagonal eliminated block, the one the curvature forms
have (sphere 2 is never coupled to itself): it checks that the block is
exactly diagonal with every entry above a fixed pivot floor and then
divides by it. Results are deterministic for a given numpy/LAPACK build.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

PIVOT_FLOOR = 1e-12


class NonFiniteError(ValueError):
    """Matrix contains NaN or infinity."""


class NotEliminableError(ValueError):
    """Eliminated block is not diagonal with entries above the pivot floor.

    A non-positive entry means unconstrained minimization over the
    eliminated coordinates is unbounded below (or degenerate); a
    non-diagonal block is outside what the division route handles.
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


def _eliminate(
    m: np.ndarray | Sequence[Sequence[float]], keep: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split m into (kept block, eliminated-kept block, eliminated diagonal,
    kept indices), after checking the eliminated block is diagonal with
    every entry above the pivot floor (its Cholesky pivots are the entries).
    """
    a = check_symmetric(m)
    keep_idx, elim = _partition(a, keep)
    rows = a.take(elim, axis=0)
    m_ee = rows.take(elim, axis=1)
    diag = np.diag(m_ee)
    # diagonal exactly when every nonzero of the block is on its diagonal
    if np.count_nonzero(m_ee) != np.count_nonzero(diag):
        raise NotEliminableError("eliminated block is not diagonal")
    if diag.size and diag.min() <= PIVOT_FLOOR:
        raise NotEliminableError(
            f"smallest pivot {diag.min():.3e} is not above the floor {PIVOT_FLOOR}"
        )
    m_kk = a.take(keep_idx, axis=0).take(keep_idx, axis=1)
    return m_kk, rows.take(keep_idx, axis=1), diag, keep_idx


def _complement(m_kk: np.ndarray, m_ek: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """S = M_kk - M_ek^T (M_ek / d), from one split by _eliminate."""
    s = m_kk - m_ek.T @ (m_ek / diag[:, None])
    return 0.5 * (s + s.T)


def _minimizer(m_ek: np.ndarray, diag: np.ndarray, u: np.ndarray) -> np.ndarray:
    """w* = -(M_ek u) / d, from one split by _eliminate."""
    return -(m_ek @ u) / diag


def schur_minimize(m: np.ndarray | Sequence[Sequence[float]], keep: Sequence[int]) -> np.ndarray:
    """Schur complement of m onto the kept coordinates.

    For every vector u on the kept coordinates,
    u^T S u = min over w of [u; w]^T m [u; w], the minimum running over the
    eliminated coordinates. The eliminated block must be diagonal with
    entries d above PIVOT_FLOOR (NotEliminableError otherwise); then
    S = M_kk - M_ek^T (M_ek / d).
    """
    m_kk, m_ek, diag, _ = _eliminate(m, keep)
    if diag.size and not m_kk.size:
        raise ValueError("cannot eliminate every coordinate")
    return _complement(m_kk, m_ek, diag)


def schur_minimizer(
    m: np.ndarray | Sequence[Sequence[float]], keep: Sequence[int], u: np.ndarray
) -> np.ndarray:
    """Argmin over eliminated coordinates: w* = -(M_ek u) / d, same contract
    as schur_minimize."""
    _, m_ek, diag, keep_idx = _eliminate(m, keep)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (keep_idx.size,):
        raise ValueError(f"u has shape {u.shape}, expected ({keep_idx.size},)")
    return _minimizer(m_ek, diag, u)
