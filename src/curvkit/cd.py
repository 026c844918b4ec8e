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
its own. Every 2-path x ~ y ~ z of the batch is read from the adjacency
lists, z is classified as the center, a sphere-1 vertex (a triangle) or a
sphere-2 vertex, and the entries of ``localforms.cd_entries`` are
scattered straight into the sphere-1 blocks, the sphere-2 pivots and the
sphere-2/sphere-1 couplings; each sphere-2 vertex then subtracts the
products of its couplings over its pivot from its ball's Schur complement
(several parents where the ball has 4-cycles). One stacked eigensolve per
sphere-1 size finishes the batch. The dense route, ``assemble_cd_forms``
with ``schur_minimize``, ``schur_minimizer`` and ``smallest_eigenvalue``,
sums every entry in the same order and validates the form as it goes; it
gives the same bits and is what the tests compare against.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import Graph, LocalBall, VertexFunction, _check_vertex, check_function
from .localforms import LocalEvaluator, _firsts, cd_entries
from .operators import gamma, gamma2, laplacian
from .spectra import _check_pivots

# the validating dense route; importable from this module, where the
# benchmark's tracer looks these names up
from .spectra import schur_minimize, schur_minimizer, smallest_eigenvalue  # noqa: F401

CD_CHECK_TOL = 1e-12
# 2-paths plus sphere-1 entries (d_x^2) per batch, bounding its temporaries
_CD_BATCH = 1 << 13


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
    """Largest K such that the curvature-dimension inequality holds at x.

    The batch of one of ``cd_curvatures``, which gives the same result for
    x bit for bit whatever other vertices it computes alongside.
    """
    (result,) = cd_curvatures(g, [x], n)
    return result


def cd_curvatures(g: Graph, vertices: Iterable[int], n: float = 2.0) -> Iterator[CdResult]:
    """The curvature at each of these vertices, yielded in their order.

    Vertices are computed in batches of consecutive vertices (see the
    module docstring); a result's full-length witness is built only when
    it is yielded. Equal bit for bit to ``smallest_eigenvalue`` of
    ``schur_minimize`` of the ``assemble_cd_forms`` form, times 2 d_x, with
    the witness's sphere-2 values from ``schur_minimizer``. Arguments are
    checked before the first result is requested.
    """
    n = _check_dimension(n)
    vertices = list(vertices)
    for x in vertices:
        _check_vertex(g, x)
    return _curvatures(g, vertices, n)


def _curvatures(g: Graph, vertices: list[int], n: float) -> Iterator[CdResult]:
    adj = g.adjacency
    batch: list[int] = []
    size = 0
    for x in vertices:
        width = len(adj[x]) ** 2 + sum(len(adj[y]) for y in adj[x])
        if batch and size + width > _CD_BATCH:
            yield from _batch(g, batch, n)
            batch, size = [], 0
        batch.append(x)
        size += width
    if batch:
        yield from _batch(g, batch, n)


def _batch(g: Graph, xs: list[int], n: float) -> Iterator[CdResult]:
    """The results at xs, in order, from the batch's 2-paths."""
    adj, nv = g.adjacency, g.vertex_count
    dx = np.array([len(adj[x]) for x in xs], dtype=np.intp)
    y = np.fromiter(chain.from_iterable(adj[x] for x in xs), np.intp, dx.sum())
    dy = np.array([len(adj[v]) for v in y], dtype=np.intp)
    z = np.fromiter(chain.from_iterable(adj[v] for v in y), np.intp, dy.sum())
    # per 1-path x ~ y and per 2-path x ~ y ~ z: the batch slot of x
    s1_first = _firsts(dx)
    slot1 = np.repeat(np.arange(len(xs)), dx)
    edge = np.repeat(np.arange(len(y)), dy)
    slot = slot1[edge]
    ycol = 1 + np.arange(len(y)) - s1_first[slot1]
    w = 1.0 / (2.0 * dx[slot] * dy[edge])

    # ball columns as in LocalEvaluator: 0 the center, 1..d_x sphere 1,
    # then sphere 2 in vertex order
    key1 = slot1 * nv + y   # ascending
    key = slot * nv + z
    pos = np.minimum(np.searchsorted(key1, key), len(key1) - 1)
    in_s1 = key1[pos] == key
    in_s2 = ~in_s1 & (z != np.asarray(xs)[slot])
    # sphere 2 in (slot, vertex) order, by sorting: np.unique would import
    # numpy.ma, a megabyte of resident memory
    k2 = key[in_s2]
    order = np.argsort(k2, kind="stable")
    new = np.ones(len(k2), dtype=bool)
    new[1:] = k2[order[1:]] != k2[order[:-1]]
    s2_key = k2[order[new]]
    rank = np.empty_like(order)
    rank[order] = np.cumsum(new) - 1
    s2_count = np.bincount(s2_key // nv, minlength=len(xs))
    s2_first = _firsts(s2_count)
    zcol = np.zeros_like(z)
    zcol[in_s1] = 1 + pos[in_s1] - s1_first[slot[in_s1]]
    zcol[in_s2] = 1 + dx[slot[in_s2]] + rank - s2_first[slot[in_s2]]

    df, rows, cols, values = cd_entries(ycol[edge], zcol, w, dx, n)
    slot = np.repeat(slot, 4)
    p = dx[slot]
    s_first = _firsts(dx * dx)
    s = np.repeat(df, dx * dx)
    s1 = (rows >= 1) & (rows <= p) & (cols >= 1) & (cols <= p)
    np.add.at(s, s_first[slot[s1]] + (rows[s1] - 1) * p[s1] + cols[s1] - 1, values[s1])
    # sphere-2 pivots, and each sphere-2 vertex's couplings to sphere 1
    pivot = np.zeros(len(s2_key))
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
    parents = per_vertex[e]
    a = np.repeat(np.arange(len(e)), parents)
    b = _firsts(per_vertex)[e[a]] + np.arange(len(a)) - _firsts(parents)[a]
    np.add.at(s, s_first[slot[at[a]]] + i[a] * p[at[a]] + i[b], -(m[a] * m[b]) / pivot[e[a]])

    lam = np.empty(len(xs))
    u = np.empty(len(y))
    for d in sorted(set(dx.tolist())):
        group = np.flatnonzero(dx == d)
        mats = s[s_first[group][:, None] + np.arange(d * d)].reshape(-1, d, d)
        eig, vec = np.linalg.eigh(mats)
        vec = vec[:, :, 0]
        # sign rule of smallest_eigenvalue: largest-magnitude component positive
        flip = vec[np.arange(len(group)), np.argmax(np.abs(vec), axis=1)] < 0.0
        vec[flip] = -vec[flip]
        lam[group] = eig[:, 0]
        u[s1_first[group][:, None] + np.arange(d)] = vec
    acc = np.zeros(len(pivot))
    np.add.at(acc, e, m * u[s1_first[slot[at]] + i])
    w_star = -acc / pivot

    s2_vertex = s2_key % nv
    for k, x in enumerate(xs):
        f = np.zeros(nv)
        span = slice(s1_first[k], s1_first[k] + dx[k])
        f[y[span]] = u[span]
        span = slice(s2_first[k], s2_first[k] + s2_count[k])
        f[s2_vertex[span]] = w_star[span]
        yield CdResult(
            vertex=x,
            dimension_n=n,
            curvature_K=float(2.0 * dx[k] * lam[k]),
            minimizing_function=VertexFunction(f),
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
