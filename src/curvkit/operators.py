"""Normalized Laplacian and gradient forms on finite graphs.

Conventions (fixed package-wide):

* Laplacian:  Df(x) = (1/d_x) * sum_{y ~ x} (f(y) - f(x))      (unweighted,
  normalized: every edge has weight 1 and the vertex measure is the degree).
* Difference notation: the two-point difference of f along (x, y) is
  f(y) - f(x).
* Gradient form:  G(f,h)(x) = (D(fh) - f*Dh - h*Df)(x) / 2, with
  G(f) = G(f,f); iterates G_0(f,h) = f*h and
  G_{i+1}(f,h) = (D(G_i(f,h)) - G_i(f,Dh) - G_i(Df,h)) / 2, so that
  G_2(f) = D(G(f))/2 - G(f,Df).

Each form ships in two flavors: the definitional evaluation above and a
closed local formula over the 2-ball (for G_2, the one in the localforms
module). The two are algebraically equal and serve as mutual oracles;
tests cross-check them to 1e-12 relative. G(f, G(f)/f) keeps its
definitional route (``gamma_f_ratio``), cross-checked by the split form
``tests/oracles.gamma_f_ratio_split``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import Graph, VertexFunction, ball, check_function, _check_vertex
from .localforms import LocalEvaluator

FunctionLike = VertexFunction | Sequence[float] | np.ndarray

MAX_GAMMA_ITERATE = 4


class IterationTooDeepError(ValueError):
    """Gradient-form iteration index above the supported depth."""


class NonpositiveValueError(ValueError):
    def __init__(self, vertex: int, value: float):
        super().__init__(f"f({vertex}) = {value} is not positive")
        self.vertex = vertex
        self.value = value


def approx_equal(a: float, b: float, rel: float = 1e-10, floor: float = 1e-12) -> bool:
    """Relative comparison with an absolute floor (package-wide default)."""
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def laplacian(g: Graph, f: FunctionLike, x: int) -> float:
    """Df(x) = (1/d_x) sum_{y ~ x} (f(y) - f(x))."""
    vals = check_function(g, f)
    _check_vertex(g, x)
    nbrs = g.adjacency[x]
    fx = vals[x]
    acc = 0.0
    for y in nbrs:
        acc += vals[y] - fx
    return acc / len(nbrs)


def gamma(g: Graph, f: FunctionLike, h: FunctionLike, x: int) -> float:
    """Definitional gradient form G(f,h)(x) = (D(fh) - f*Dh - h*Df)(x)/2."""
    fv = check_function(g, f)
    hv = check_function(g, h)
    _check_vertex(g, x)
    nbrs = g.adjacency[x]
    fx, hx = fv[x], hv[x]
    lap_fh = 0.0
    lap_f = 0.0
    lap_h = 0.0
    for y in nbrs:
        lap_fh += fv[y] * hv[y] - fx * hx
        lap_f += fv[y] - fx
        lap_h += hv[y] - hx
    return 0.5 * (lap_fh - fx * lap_h - hx * lap_f) / len(nbrs)


def gamma_local(g: Graph, f: FunctionLike, x: int) -> float:
    """Local formula G(f)(x) = (1/(2 d_x)) sum_{y ~ x} (f(y) - f(x))^2."""
    vals = check_function(g, f)
    _check_vertex(g, x)
    nbrs = g.adjacency[x]
    fx = vals[x]
    acc = 0.0
    for y in nbrs:
        diff = vals[y] - fx
        acc += diff * diff
    return 0.5 * acc / len(nbrs)


def gamma_iterate(g: Graph, f: FunctionLike, h: FunctionLike, x: int, i: int) -> float:
    """Iterated form G_i(f,h)(x); i=1 matches gamma, i=2 (f=h) matches gamma2."""
    if i < 0:
        raise ValueError("iteration index must be non-negative")
    if i > MAX_GAMMA_ITERATE:
        raise IterationTooDeepError(f"iteration depth {i} exceeds {MAX_GAMMA_ITERATE}")
    fv = check_function(g, f)
    hv = check_function(g, h)
    _check_vertex(g, x)
    # every recursive term is G_j applied to iterated Laplacians of f and h,
    # so precompute D^0..D^i of both and memoize on (power_f, power_h, j, x)
    lap_f = [fv]
    lap_h = [hv]
    for _ in range(i):
        lap_f.append(_laplacian_all(g, lap_f[-1]))
        lap_h.append(_laplacian_all(g, lap_h[-1]))
    memo: dict[tuple[int, int, int, int], float] = {}

    def term(a: int, b: int, j: int, v: int) -> float:
        key = (a, b, j, v)
        if key in memo:
            return memo[key]
        if j == 0:
            value = float(lap_f[a][v] * lap_h[b][v])
        else:
            nbrs = g.adjacency[v]
            here = term(a, b, j - 1, v)
            acc = 0.0
            for y in nbrs:
                acc += term(a, b, j - 1, y) - here
            value = 0.5 * (
                acc / len(nbrs) - term(a, b + 1, j - 1, v) - term(a + 1, b, j - 1, v)
            )
        memo[key] = value
        return value

    return term(0, 0, i, x)


def _laplacian_all(g: Graph, vals: np.ndarray) -> np.ndarray:
    out = np.empty(g.vertex_count)
    for v, nbrs in enumerate(g.adjacency):
        acc = 0.0
        fv = vals[v]
        for y in nbrs:
            acc += vals[y] - fv
        out[v] = acc / len(nbrs)
    return out


def gamma2(g: Graph, f: FunctionLike, x: int) -> float:
    """Definitional iterated form G_2(f)(x) = D(G(f))(x)/2 - G(f, Df)(x).

    G(f) is evaluated definitionally on the 1-ball of x and Df wherever
    G(f, Df)(x) needs it; only values of f on the 2-ball enter.
    """
    vals = check_function(g, f)
    _check_vertex(g, x)
    nbrs = g.adjacency[x]
    gamma_x = gamma(g, vals, vals, x)
    acc = 0.0
    for y in nbrs:
        acc += gamma(g, vals, vals, y) - gamma_x
    lap = np.zeros(g.vertex_count)
    lap[x] = laplacian(g, vals, x)
    for y in nbrs:
        lap[y] = laplacian(g, vals, y)
    return 0.5 * acc / len(nbrs) - gamma(g, vals, lap, x)


def gamma2_local(g: Graph, f: FunctionLike, x: int) -> float:
    """Closed local formula for G_2(f)(x) over the 2-ball, evaluated as a
    one-row batch of ``LocalEvaluator.gamma2`` (the formula is stated there).
    """
    vals = check_function(g, f)
    ev = LocalEvaluator(g, x)
    return float(ev.gamma2(vals[ev.vertices][None, :])[0])


def _require_positive_two_ball(g: Graph, vals: np.ndarray, x: int) -> None:
    b = ball(g, x, 2)
    for v in (x,) + b.coordinates:
        if not vals[v] > 0.0:
            raise NonpositiveValueError(v, float(vals[v]))


def gamma_f_ratio(g: Graph, f: FunctionLike, x: int) -> float:
    """G(f, G(f)/f)(x), evaluated definitionally.

    Builds the quotient function G(f)/f on the 1-ball of x and applies the
    bilinear form. Requires f > 0 on the 2-ball of x.
    """
    vals = check_function(g, f)
    _check_vertex(g, x)
    _require_positive_two_ball(g, vals, x)
    quotient = np.zeros(g.vertex_count)
    for v in (x,) + g.adjacency[x]:
        quotient[v] = gamma(g, vals, vals, v) / vals[v]
    return gamma(g, vals, quotient, x)
