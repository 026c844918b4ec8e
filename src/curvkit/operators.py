"""Normalized Laplacian and gradient forms on finite graphs.

Conventions (fixed package-wide):

* Laplacian:  Df(x) = (1/d_x) * sum_{y ~ x} (f(y) - f(x))      (unweighted,
  normalized: every edge has weight 1 and the vertex measure is the degree).
* Difference notation: the two-point difference of f along (x, y) is
  f(y) - f(x).
* Gradient form:  G(f,h)(x) = (D(fh) - f*Dh - h*Df)(x) / 2, with
  G(f) = G(f,f); iterates G_0(f,h) = f*h and
  G_{i+1}(f,h) = (D(G_i(f,h)) - G_i(f,Dh) - G_i(Df,h)) / 2, so that
  G_2(f) = D(G(f))/2 - G(f,Df). The recursion's first step is evaluated
  in the equal difference form
  G_1(f,h)(x) = sum_{y ~ x} (f(y) - f(x))(h(y) - h(x)) / (2 d_x),
  which keeps its digits where f or h is near constant.

Each form ships in two flavors, algebraically equal and cross-checked by
the tests to 1e-12 relative: the definitional evaluation above and a
closed local formula over the 2-ball (for G and G_2, the ones in the
localforms module). The definitional route is the G_i recursion alone
(``gamma_iterate``); G and G_2 are its i = 1, 2 cases. G(f, G(f)/f) keeps
its definitional route (``gamma_f_ratio``), cross-checked by the split
form ``tests/oracles.gamma_f_ratio_split``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .graph import Balls, Graph, VertexFunction, check_function, _check_vertex
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
    return _laplacian_at(g, vals.__getitem__, x)


def _laplacian_at(g: Graph, value: Callable[[int], float], v: int) -> float:
    """D at v of the vertex function ``value``, summed in adjacency order."""
    nbrs = g.adjacency[v]
    here = value(v)
    acc = 0.0
    for y in nbrs:
        acc += value(y) - here
    return acc / len(nbrs)


def gamma(g: Graph, f: FunctionLike, h: FunctionLike, x: int) -> float:
    """Definitional gradient form G(f,h)(x) = G_1(f,h)(x)."""
    return gamma_iterate(g, f, h, x, 1)


def gamma_local(g: Graph, f: FunctionLike, x: int) -> float:
    """Local formula G(f)(x) = (1/(2 d_x)) sum_{y ~ x} (f(y) - f(x))^2,
    evaluated as a one-row batch of ``LocalEvaluator.gamma`` (the formula is
    stated there)."""
    vals = check_function(g, f)
    ev = LocalEvaluator(g, x)
    return float(ev.gamma(vals[ev.vertices][None, :])[0])


def gamma_iterate(g: Graph, f: FunctionLike, h: FunctionLike, x: int, i: int) -> float:
    """Iterated form G_i(f,h)(x) by the recursion in the module docstring.

    Reads the adjacency only within distance i - 1 of x: every term is
    G_j(D^a f, D^b h) at a vertex v with dist(x, v) + a + b + j <= i, and
    terms and iterated Laplacians are memoized and computed on demand.
    """
    if i < 0:
        raise ValueError("iteration index must be non-negative")
    if i > MAX_GAMMA_ITERATE:
        raise IterationTooDeepError(f"iteration depth {i} exceeds {MAX_GAMMA_ITERATE}")
    vals = (check_function(g, f), check_function(g, h))
    _check_vertex(g, x)
    h_index = 0 if h is f else 1
    powers: dict[tuple[int, int, int], float] = {}
    terms: dict[tuple[int, int, int, int], float] = {}

    def power(k: int, a: int, v: int) -> float:
        """D^a vals[k] at v."""
        if a == 0:
            return vals[k][v]
        if (k, a, v) not in powers:
            powers[k, a, v] = _laplacian_at(g, lambda y: power(k, a - 1, y), v)
        return powers[k, a, v]

    def term(a: int, b: int, j: int, v: int) -> float:
        """G_j(D^a f, D^b h)(v)."""
        if j == 0:
            return float(power(0, a, v) * power(h_index, b, v))
        if (a, b, j, v) not in terms and j == 1:
            # the equal difference form keeps the digits that
            # D(PQ) - P DQ - Q DP cancels where P and Q are near constant
            p, q, nbrs = power(0, a, v), power(h_index, b, v), g.adjacency[v]
            acc = sum((power(0, a, y) - p) * (power(h_index, b, y) - q) for y in nbrs)
            terms[a, b, j, v] = float(acc / (2 * len(nbrs)))
        elif (a, b, j, v) not in terms:
            terms[a, b, j, v] = 0.5 * (
                _laplacian_at(g, lambda y: term(a, b, j - 1, y), v)
                - term(a, b + 1, j - 1, v)
                - term(a + 1, b, j - 1, v)
            )
        return terms[a, b, j, v]

    return term(0, 0, i, x)


def gamma2(g: Graph, f: FunctionLike, x: int) -> float:
    """Definitional iterated form G_2(f)(x) = D(G(f))(x)/2 - G(f, Df)(x)."""
    return gamma_iterate(g, f, f, x, 2)


def gamma2_local(g: Graph, f: FunctionLike, x: int) -> float:
    """Closed local formula for G_2(f)(x) over the 2-ball, evaluated as a
    one-row batch of ``LocalEvaluator.gamma2`` (the formula is stated there).
    """
    vals = check_function(g, f)
    ev = LocalEvaluator(g, x)
    return float(ev.gamma2(vals[ev.vertices][None, :])[0])


def _require_positive_two_ball(g: Graph, vals: np.ndarray, x: int) -> None:
    """NonpositiveValueError at the first vertex of the 2-ball of x (centre,
    sphere 1, then sphere 2) where vals is not positive."""
    b = Balls(g, [x])
    for v in np.concatenate([b.centres, b.sphere1, b.sphere2]).tolist():
        if not vals[v] > 0.0:
            raise NonpositiveValueError(v, float(vals[v]))


def gamma_f_ratio(g: Graph, f: FunctionLike, x: int) -> float:
    """G(f, G(f)/f)(x), evaluated definitionally.

    Builds the quotient function G(f)/f on the 1-ball of x and applies the
    bilinear form. Requires f > 0 on the 2-ball of x.
    """
    vals = check_function(g, f)
    _require_positive_two_ball(g, vals, x)
    quotient = np.zeros(g.vertex_count)
    for v in (x,) + g.adjacency[x]:
        quotient[v] = gamma(g, vals, vals, v) / vals[v]
    return gamma(g, vals, quotient, x)
