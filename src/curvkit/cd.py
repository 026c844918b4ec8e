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

``cd_curvatures`` computes this for many vertices at once, without the
dense form (Cushing, Liu, Peyerimhoff, arXiv:1606.01496, write the
curvature this way). Consecutive vertices form a batch of up to
``_CD_BATCH`` 2-paths plus sphere-1 entries; a wider vertex is a batch of
its own. The batch's 2-balls, their columns and their 2-paths
x ~ y ~ z, come from ``graph.Balls``, which states the layout once.

At n = 2, where the 2-ball is a tree (``Balls.tree``: girth >= 5 at x),
K is known in closed form from the neighbour degrees d_i alone (README,
"The bounds the verify command checks"): 2 d_x times the Schur complement
is diag(a) + cJ, with a_i = (2 - d_i)/d_i, c = (1 - 2/n)/d_x and J all
ones, so c = 0 and K = min a_i, the bits of the CD bound itself. Sphere
1 runs by degree, so its last entry holds min a_i. The witness is 1 at
the first neighbour of the largest degree, and each sphere-2 vertex sits
at twice its parent's value.

At the other balls the entries of ``localforms.cd_entries`` over the
2-paths are scattered straight into the sphere-1 blocks, the sphere-2
pivots and the sphere-2/sphere-1 couplings; each sphere-2 vertex then
subtracts the products of its couplings over its pivot from its ball's
Schur complement (several parents where the ball has 4-cycles). One
stacked eigensolve per sphere-1 size finishes them. Each eigenvector's
sign is fixed so its largest-magnitude component is positive. The
batch's results are built together: one array holds every K, and one
gather lays out every ball's witness, sphere 1 then sphere 2, so each
result holds two slices of the batch's arrays. The vertex list is
checked and the batches are sized from the graph's CSR arrays, all
vertices at once. Results at tree balls at n = 2 depend on the degrees
only; the others are deterministic for a given numpy/LAPACK build.

The dense route, ``assemble_cd_forms`` with ``schur_minimize``,
``schur_minimizer`` and ``smallest_eigenvalue``, lives here only as the
tests' reference: it builds the whole form of one ball, checks that it is
finite and symmetric and that the sphere-2 block is exactly diagonal with
every pivot above ``PIVOT_FLOOR``, then divides by that block. It sums
every entry in the same order as the scatter, reads the same
``graph.Balls`` layout and shares its eigensolve, so at a ball that is
not a tree, or at any n other than 2, the two give the same bits; at a
tree ball at n = 2 they agree to rounding. It stays in this module, not
in ``tests/oracles.py``, because the benchmark's tracer
(``perfbench/tracer.py``) looks its names up here: moved out, the four
names join the tracer's missing list, and
``test_tracer_reports_a_removed_private_name_as_missing`` fails.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import (
    Balls, Graph, _BallWitness, _check_vertices, _firsts, _ranges, _two_paths, batches,
    check_function,
)
from .localforms import cd_entries
from .operators import gamma, gamma2, laplacian

CD_CHECK_TOL = 1e-12
PIVOT_FLOOR = 1e-12
# 2-paths plus sphere-1 entries (d_x^2) per batch, bounding its temporaries
_CD_BATCH = 1 << 13


class NonFiniteError(ValueError):
    """Matrix contains NaN or infinity."""


class NotEliminableError(ValueError):
    """Eliminated block is not diagonal with entries above the pivot floor.

    A non-positive entry means unconstrained minimization over the
    eliminated coordinates is unbounded below (or degenerate); a
    non-diagonal block is outside what the division route handles.
    """


@dataclass(frozen=True, eq=False)
class CdResult(_BallWitness):
    """Pointwise curvature with the minimizing function as a witness.

    The witness attains equality at K = curvature_K and violates the
    inequality at any strictly larger K (it spans the minimal eigenspace
    direction); it is normalized to vanish at the vertex and outside the
    2-ball, and the result holds it on sphere 1, then sphere 2.
    """

    curvature_K: float


# the smallest dimension accepted: from about 1e-308 down, the 1/n terms
# of the CD and CDE forms overflow to inf or break the eigensolve
DIM_FLOOR = 1e-300


def _check_dimension(n: float) -> float:
    n = float(n)
    if not n >= DIM_FLOOR:
        raise ValueError(f"dimension must be at least {DIM_FLOOR}, got {n}")
    return n


def cd_curvature(g: Graph, x: int, n: float = 2.0) -> CdResult:
    """Largest K such that the curvature-dimension inequality holds at x.

    The batch of one of ``cd_curvatures``, which gives the same result for
    x bit for bit whatever other vertices it computes alongside.
    """
    (result,) = cd_curvatures(g, [x], n)
    return result


def cd_curvatures(g: Graph, vertices: Iterable[int], n: float = 2.0) -> Iterator[CdResult]:
    """The curvature at each of these vertices, yielded in their order.

    Vertices are computed in batches of consecutive vertices (see the
    module docstring); a result's full-length witness is built on first
    read. At n = 2 and a ball that is a tree, K and the witness come from
    the closed form in the neighbour degrees, with no eigensolve. Anywhere
    else they equal bit for bit ``smallest_eigenvalue`` of ``schur_minimize``
    of the ``assemble_cd_forms`` form, times 2 d_x, with the witness's
    sphere-2 values from ``schur_minimizer``. Arguments are checked before
    the first result is requested.
    """
    n = _check_dimension(n)
    vertices = list(vertices)
    v = _check_vertices(g, vertices)
    # each ball's sphere-1 entries plus 2-paths, d_x^2 + the sum of its d_y
    dx = g.degrees[v]
    sized = zip(vertices, (dx * dx + _two_paths(g, v)).tolist())
    return chain.from_iterable(_batch(g, xs, n) for xs in batches(sized, _CD_BATCH))


def _batch(g: Graph, xs: list[int], n: float) -> Iterator[CdResult]:
    """The results at xs, in order: at n = 2 the closed form at the balls
    that are trees, the scatter and eigensolve at every other ball."""
    balls = Balls(g, xs)
    dx, s1_first, s2_first = balls.degree, balls.s1_first, balls.s2_first
    s2_count = balls.width - 1 - dx
    if n != 2.0:
        curvature, u, w = _eigen(balls, n)
    else:
        curvature, u, w = _closed_form(balls)
        other = np.flatnonzero(~balls.tree)
        if other.size:
            others = balls if other.size == len(xs) else Balls(g, [xs[i] for i in other])
            s1, _ = _ranges(s1_first[other], dx[other])
            s2, _ = _ranges(s2_first[other], s2_count[other])
            curvature[other], u[s1], w[s2] = _eigen(others, n)

    # every ball's sphere 1, then its sphere 2, ball after ball: result k
    # holds its slice
    entry, _ = _ranges(
        np.column_stack((s1_first, len(u) + s2_first)).ravel(),
        np.column_stack((dx, s2_count)).ravel(),
    )
    ball_vertices = np.concatenate((balls.sphere1, balls.sphere2))[entry]
    ball_values = np.concatenate((u, w))[entry]
    ends = np.cumsum(balls.width - 1).tolist()
    vertex_count = g.vertex_count
    for x, k, a, b in zip(xs, curvature.tolist(), [0] + ends, ends):
        yield CdResult(
            vertex=x,
            dimension_n=n,
            curvature_K=k,
            vertex_count=vertex_count,
            ball_vertices=ball_vertices[a:b],
            ball_values=ball_values[a:b],
        )


def _closed_form(balls: Balls) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K, the sphere-1 witness and its sphere-2 values of every ball at
    n = 2, from the sphere-1 degrees alone: right at the balls that are
    trees (see the module docstring), meaningless but finite at the others."""
    dx, first, degree = balls.degree, balls.s1_first, balls.s1_degree
    # sphere 1 runs by degree: the largest ends it, and its first neighbour
    # of that degree comes after the smaller ones
    top = degree[first + dx - 1]
    ball = np.repeat(np.arange(len(dx)), dx)
    lead = first + np.bincount(ball, degree < top[ball], len(dx)).astype(np.intp)
    u = np.zeros(len(degree))
    u[lead] = 1.0
    # each sphere-2 vertex at twice its parent
    s2_ball = np.repeat(np.arange(len(dx)), balls.width - 1 - dx)
    # min a_i, written as verify._cd_bounds writes it: the bound's own bits
    return (2.0 - top) / top, u, 2.0 * u[first[s2_ball] + balls.parent - 1]


def _eigen(balls: Balls, n: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K, the sphere-1 witness and its sphere-2 values of every ball, from
    its 2-paths scattered into its Schur complement and one stacked
    eigensolve per sphere-1 size."""
    dx, s1_first, s2_first = balls.degree, balls.s1_first, balls.s2_first
    df, rows, cols, values = cd_entries(balls.pair_y, balls.pair_z, balls.pair_w, dx, n)
    slot = np.repeat(balls.pair_ball, 4)
    p = dx[slot]
    s_first = _firsts(dx * dx)
    s = np.repeat(df, dx * dx)
    s1 = (rows >= 1) & (rows <= p) & (cols >= 1) & (cols <= p)
    np.add.at(s, s_first[slot[s1]] + (rows[s1] - 1) * p[s1] + cols[s1] - 1, values[s1])
    # sphere-2 pivots, and each sphere-2 vertex's couplings to sphere 1
    pivot = np.zeros(len(balls.sphere2))
    at = (rows == cols) & (rows > p)
    np.add.at(pivot, s2_first[slot[at]] + rows[at] - p[at] - 1, values[at])
    _check_pivots(pivot)
    at = np.flatnonzero((rows > p) & (cols <= p))
    e = s2_first[slot[at]] + rows[at] - p[at] - 1
    order = np.argsort(e, kind="stable")
    at, e = at[order], e[order]
    i, m = cols[at] - 1, values[at]
    # every pair (a, b) of couplings of one sphere-2 vertex, in vertex order
    per_vertex = np.bincount(e, minlength=len(pivot))
    b, a = _ranges(_firsts(per_vertex)[e], per_vertex[e])
    np.add.at(s, s_first[slot[at[a]]] + i[a] * p[at[a]] + i[b], -(m[a] * m[b]) / pivot[e[a]])

    lam = np.empty(len(dx))
    u = np.empty(len(balls.sphere1))
    for d in sorted(set(dx.tolist())):
        group = np.flatnonzero(dx == d)
        mats = s[s_first[group][:, None] + np.arange(d * d)].reshape(-1, d, d)
        lam[group], u[s1_first[group][:, None] + np.arange(d)] = _smallest_eigenpairs(mats)
    acc = np.zeros(len(pivot))
    np.add.at(acc, e, m * u[s1_first[slot[at]] + i])
    return 2.0 * dx * lam, u, -acc / pivot


def _smallest_eigenpairs(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue and unit eigenvector of each of a stack of
    symmetric matrices, by one ``np.linalg.eigh``, each eigenvector signed
    so its largest-magnitude component is positive."""
    values, vectors = np.linalg.eigh(mats)
    vec = vectors[:, :, 0]
    flip = vec[np.arange(len(vec)), np.argmax(np.abs(vec), axis=1)] < 0.0
    vec[flip] = -vec[flip]
    return values[:, 0], vec


def _check_pivots(diag: np.ndarray) -> None:
    if diag.size and diag.min() <= PIVOT_FLOOR:
        raise NotEliminableError(
            f"smallest pivot {diag.min():.3e} is not above the floor {PIVOT_FLOOR}"
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


# ---- the dense reference route ---------------------------------------------

def assemble_cd_forms(g: Graph, x: int, n: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic forms of the curvature problem at x with f(x) = 0.

    Returns (A, B, coordinates): coordinates holds the vertex behind each
    row of A and B, sphere 1 first, then sphere 2 in vertex order;
    A represents f -> G_2(f)(x) - (1/n)(Df)^2(x) and B represents
    f -> G(f)(x). A is scattered from the entries of ``cd_entries``;
    B is diagonal: 1/(2 d_x) on sphere-1 coordinates, 0 on sphere-2.
    """
    n = _check_dimension(n)
    balls = Balls(g, [x])
    p, width = int(balls.degree[0]), int(balls.width[0])
    # over the ball columns, center first; the entries that touch the
    # center column drop out with f(x) = 0
    df, rows, cols, values = cd_entries(balls.pair_y, balls.pair_z, balls.pair_w, p, n)
    a = np.zeros((width, width))
    a[1 : p + 1, 1 : p + 1] = df
    np.add.at(a, (rows, cols), values)
    b_mat = np.zeros((width - 1, width - 1))
    b_mat[:p, :p] = np.eye(p) / (2.0 * p)
    return a[1:, 1:], b_mat, np.concatenate([balls.sphere1, balls.sphere2])


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
    """Smallest eigenvalue and a unit eigenvector, signed as in
    ``cd_curvatures``: largest-magnitude component positive."""
    values, vectors = _smallest_eigenpairs(check_symmetric(m)[None])
    return float(values[0]), vectors[0]


def _eliminate(
    m: np.ndarray | Sequence[Sequence[float]], keep: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split m into (kept block, eliminated-kept block, eliminated diagonal,
    kept indices), after checking the eliminated block is diagonal with
    every entry above the pivot floor (its Cholesky pivots are the entries).
    """
    a = check_symmetric(m)
    n = a.shape[0]
    keep_idx = np.asarray(keep, dtype=np.intp)
    outside = keep_idx[(keep_idx < 0) | (keep_idx >= n)]
    if outside.size:
        raise ValueError(f"keep index {outside.min()} out of range 0..{n - 1}")
    kept = np.zeros(n, dtype=bool)
    kept[keep_idx] = True
    keep_idx, elim = np.flatnonzero(kept), np.flatnonzero(~kept)
    rows = a.take(elim, axis=0)
    m_ee = rows.take(elim, axis=1)
    diag = np.diag(m_ee)
    # diagonal exactly when every nonzero of the block is on its diagonal
    if np.count_nonzero(m_ee) != np.count_nonzero(diag):
        raise NotEliminableError("eliminated block is not diagonal")
    _check_pivots(diag)
    m_kk = a.take(keep_idx, axis=0).take(keep_idx, axis=1)
    return m_kk, rows.take(keep_idx, axis=1), diag, keep_idx


def schur_minimize(m: np.ndarray | Sequence[Sequence[float]], keep: Sequence[int]) -> np.ndarray:
    """Schur complement of m onto the kept coordinates.

    For every vector u on the kept coordinates,
    u^T S u = min over w of [u; w]^T m [u; w], the minimum running over the
    eliminated coordinates. The eliminated block must be diagonal with
    entries d above PIVOT_FLOOR (NotEliminableError otherwise); then
    S = M_kk - M_ek^T (M_ek / d). The eliminated rows are subtracted one
    after another, each as the products of its nonzero entries over its
    pivot, so S is exactly symmetric and every entry is summed in the order
    ``cd_curvatures`` scatters it: the two routes agree bit for bit.
    """
    m_kk, m_ek, diag, _ = _eliminate(m, keep)
    if diag.size and not m_kk.size:
        raise ValueError("cannot eliminate every coordinate")
    for row, d in zip(m_ek, diag):
        nz = np.flatnonzero(row)
        m_kk[np.ix_(nz, nz)] -= np.outer(row[nz], row[nz]) / d
    return m_kk


def schur_minimizer(
    m: np.ndarray | Sequence[Sequence[float]], keep: Sequence[int], u: np.ndarray
) -> np.ndarray:
    """Argmin over eliminated coordinates: w* = -(M_ek u) / d, same contract
    as schur_minimize; each row's products are summed in column order."""
    _, m_ek, diag, keep_idx = _eliminate(m, keep)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (keep_idx.size,):
        raise ValueError(f"u has shape {u.shape}, expected ({keep_idx.size},)")
    e, k = np.nonzero(m_ek)
    acc = np.zeros(diag.size)
    np.add.at(acc, e, m_ek[e, k] * u[k])
    return -acc / diag
