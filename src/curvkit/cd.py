"""Exact pointwise curvature under the curvature-dimension inequality.

At a vertex x and dimension n the condition reads

    G_2(f)(x) >= (1/n)(Df)^2(x) + K * G(f)(x)     for all f,

and the curvature K(x, n) is the largest K for which it holds. All three
quantities depend only on f restricted to the 2-ball of x and are
invariant under adding a constant, so f(x) is normalized to 0 and the
condition becomes a generalized Rayleigh problem between two quadratic
forms over the sphere-1/sphere-2 coordinates. The sphere-2 block of the
numerator form is always diagonal with positive entries (no term of the
local formula couples two distance-2 vertices), so those coordinates are
eliminated by dividing by the diagonal sphere-2 block (a Schur complement)
and a small symmetric eigensolve on the sphere-1 block finishes the job:

    K(x, n) = 2 d_x * lambda_min( Schur complement onto sphere 1 ).

Dimension n may be math.inf, which drops the (1/n)(Df)^2 term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, LocalBall, VertexFunction, check_function
from .localforms import LocalEvaluator
from .operators import gamma, gamma2, laplacian
from .spectra import _complement, _eliminate, _minimizer, smallest_eigenvalue

# cd_curvature splits the form once and takes S and w* from that split;
# the validating public routes stay importable from this module
from .spectra import schur_minimize, schur_minimizer  # noqa: F401

CD_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class CdResult:
    """Pointwise curvature with the minimizing function as a witness.

    The witness attains equality at K = curvature_K and violates the
    inequality at any strictly larger K (it spans the minimal eigenspace
    direction); it is normalized to vanish at the vertex and outside the
    2-ball.
    """

    vertex: int
    dimension_n: float
    curvature_K: float
    minimizing_function: VertexFunction


def _check_dimension(n: float) -> float:
    n = float(n)
    if not n > 0:
        raise ValueError(f"dimension must be positive, got {n}")
    return n


def assemble_cd_forms(g: Graph, x: int, n: float) -> tuple[np.ndarray, np.ndarray, LocalBall]:
    """Quadratic forms of the curvature problem at x with f(x) = 0.

    Returns (A, B, ball) over the ball coordinates (sphere 1 first):
    A represents f -> G_2(f)(x) - (1/n)(Df)^2(x) and B represents
    f -> G(f)(x). A is the closed local formula of the localforms module;
    B is diagonal: 1/(2 d_x) on sphere-1 coordinates, 0 on sphere-2.
    """
    n = _check_dimension(n)
    ev = LocalEvaluator(g, x)
    p = len(ev.ball.sphere1)
    b_mat = np.zeros((ev.width - 1, ev.width - 1))
    b_mat[:p, :p] = np.eye(p) / (2.0 * ev.degree)
    return ev.cd_form(n), b_mat, ev.ball


def cd_curvature(g: Graph, x: int, n: float = 2.0) -> CdResult:
    """Largest K such that the curvature-dimension inequality holds at x."""
    a_mat, _b_mat, b = assemble_cd_forms(g, x, n)
    m_kk, m_ek, diag, _ = _eliminate(a_mat, range(len(b.sphere1)))
    lam, vec = smallest_eigenvalue(_complement(m_kk, m_ek, diag))
    curvature = 2.0 * g.degree(x) * lam

    values = np.zeros(g.vertex_count)
    values[list(b.sphere1)] = vec
    if b.sphere2:
        values[list(b.sphere2)] = _minimizer(m_ek, diag, vec)
    return CdResult(
        vertex=x,
        dimension_n=float(n),
        curvature_K=curvature,
        minimizing_function=VertexFunction(values),
    )


def cd_check(g: Graph, x: int, n: float, K: float, f) -> bool:
    """Does G_2(f)(x) >= (1/n)(Df)^2(x) + K*G(f)(x) hold for this f?

    Evaluated with the definitional operators; tolerance +1e-12 on the
    right-hand side.
    """
    n = _check_dimension(n)
    vals = check_function(g, f)
    lhs = gamma2(g, vals, x)
    lap = laplacian(g, vals, x)
    rhs = lap * lap / n + K * gamma(g, vals, vals, x)
    return lhs >= rhs - CD_CHECK_TOL
