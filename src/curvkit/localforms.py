"""The closed local formulas of the curvature quantities at one vertex.

The 2-ball structure, (y, z, weight) arrays over the pairs y ~ x, z ~ y,
comes from ``graph.Balls``; whole batches of candidate functions are
evaluated with numpy. The closed local G_2 formula is stated once: its
per-pair summand in ``_pair_form``, the CD form's entries in
``cd_entries`` (the cd module scatters them, for one ball or many at
once); ``operators.gamma_local`` and ``operators.gamma2_local`` are
one-row calls into this module. Both CDE evaluations, the ratio of full
rows (``LocalEvaluator.ratios``) and the reduced ratio R of sphere-1 rows
(``MoveScorer.ratios``), sum the per-pair summand psi_w below. The
definitional implementations in the operators module are the independent
route, and the only one the re-checks of a reported violation read
(``cd.cd_check``, ``cde.cde_ratio``); tests cross-check the two.

Batch layout: rows are candidate functions, columns are the ball columns
of ``graph.Balls``: [center, sphere1..., sphere2...].

The CDE numerator and the reduced ratio. Fix f(x) = 1, f(y) = t_y. With
w = 1/(2 d_x d_y) and h(y) = (f(y) - f(x)) G(f)(y) / f(y), the CDE
numerator G_2(f) - G(f, G(f)/f) - (1/n)(Df)^2 at x is

    sum over the pairs (y, z) of psi_w(t_y, f(z))
        + (1/2 - 1/n) Df(x)^2 + G(f)(x) Df(x) / 2,

    psi_w(t, s) = (w/2) [(s - t)^2 (1 + 1/t) - (s - 1)^2],

the pair's G_2 summand plus its share of -h(y) / (2 d_x) (``_reduced_pair``).
Df(x) = sum t / d_x - 1 and G(f)(x) = sum (t - 1)^2 / (2 d_x) do not hold
sphere 2, and psi_w(t, s) = (w/2)(s^2 / t - 2 t s) + (terms free of s), so
no term couples two distance-2 values: the numerator is smallest at
f(z)* = B_z / A_z, B_z = sum w t_y and A_z = sum w / t_y over the parents
y of z (``LocalEvaluator.fill``), the CDE counterpart of the Schur step of
CD (variable projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).
The reduced ratio R(t) is the ratio of the filled row, where G(f)(x) is
at least ``GRADIENT_FLOOR``, and +inf elsewhere. At a z with one
parent, f(z)* = t_y^2, and on a girth-5 ball every term of R belongs to
one sphere-1 value, so ``MoveScorer`` scores a one-coordinate move in
O(1). It reads every term from the pairs of one ``graph.Balls`` over the
centres of its rows.
"""

from __future__ import annotations

import numpy as np

from .graph import Balls, Graph, _firsts, _ranges

# MoveScorer evaluates a move in full where the row's terms outweigh the
# moved ratio's numerator and denominator by more than this factor: a delta
# carries a rounding error of a few ulps of the terms it updates, so up to
# this factor the ratio keeps a relative error of a few 1e-13
_DELTA_CANCEL = 256.0
# R is +inf where G(f)(x) (at f(x) = 1) is below this. Nearer a constant,
# the CDE ratio tends to a CD ratio, at least -1 at girth 5 and so above the
# CDE bound -d_x/2 - 1, while its definitional evaluation (the operators
# module) loses the digits that re-verify a candidate: its rounding error
# is a few ulps of f^2 over G(f)(x)
GRADIENT_FLOOR = 1e-3


class LocalEvaluator:
    """Vectorized Laplacian / gradient-form evaluation on a 2-ball, over
    the columns of its ``graph.Balls`` (``balls``): center, sphere 1, sphere 2."""

    def __init__(self, g: Graph, x: int):
        b = self.balls = Balls(g, [x])
        self.graph = g
        self.center = x
        d, width = int(b.degree[0]), int(b.width[0])
        self.degree, self.width = d, width
        self.s1_cols = np.arange(1, 1 + d)
        self.s2_cols = np.arange(1 + d, width)
        # the vertex behind each column
        self.vertices = np.concatenate([b.centres, b.sphere1, b.sphere2])
        self.pair_y, self.pair_z, self.pair_w = b.pair_y, b.pair_z, b.pair_w

    def laplacian(self, rows: np.ndarray) -> np.ndarray:
        return rows[:, self.s1_cols].sum(axis=1) / self.degree - rows[:, 0]

    def gamma(self, rows: np.ndarray) -> np.ndarray:
        diff = rows[:, self.s1_cols] - rows[:, [0]]
        return (diff * diff).sum(axis=1) / (2.0 * self.degree)

    def gamma2(self, rows: np.ndarray) -> np.ndarray:
        """Closed local formula for G_2(f) at the center:

            ( (Df)^2(x) + (1/d_x) sum_{y ~ x} (1/d_y) sum_{z ~ y}
                  [ (f(z)-f(y))^2 - (f(z)-f(x))^2 / 2 ] ) / 2

        The inner sum runs over every z ~ y, including z = x.
        """
        lap = self.laplacian(rows)
        dyz = rows[:, self.pair_z] - rows[:, self.pair_y]
        dxz = rows[:, self.pair_z] - rows[:, [0]]
        acc = _pair_form(dyz, dxz, self.pair_w).sum(axis=1)
        return 0.5 * lap * lap + acc

    def ratios(self, rows: np.ndarray, n: float) -> np.ndarray:
        """The CDE ratio of each strictly positive full row, +inf where
        G(f)(x) is below the gradient floor (the rule of R), scored at
        f(x) = 1: each row is divided by its centre value (the ratio is
        scale-invariant; dividing by 1.0 is exact), its numerator is the
        psi_w sum over the pairs plus the Df(x) terms (see the module
        docstring)."""
        rows = rows / rows[:, :1]
        t, fz, gx = rows[:, self.pair_y], rows[:, self.pair_z], self.gamma(rows)
        terms = _reduced_pair(t, fz - t, fz - 1.0, self.pair_w).sum(axis=1)
        return _ratio(_numerator(terms, self.laplacian(rows), gx, n), gx)

    def fill(self, t: np.ndarray) -> np.ndarray:
        """Rows with f(x) = 1, sphere 1 from the rows of t and each
        distance-2 value at its minimizer f(z)* = B_z / A_z."""
        count, d, nz = len(t), self.degree, len(self.s2_cols)
        rows = np.empty((count, self.width))
        rows[:, 0] = 1.0
        rows[:, self.s1_cols] = t
        s2 = self.pair_z > d
        w = self.pair_w[s2]
        key = (np.arange(count)[:, None] * nz + (self.pair_z[s2] - 1 - d)).ravel()
        ty = rows[:, self.pair_y[s2]]
        b = np.bincount(key, (w * ty).ravel(), count * nz)
        a = np.bincount(key, (w / ty).ravel(), count * nz)
        rows[:, self.s2_cols] = (b / a).reshape(count, nz)
        return rows


def _pair_form(yz, xz, w):
    """Per-pair summand of the closed G_2 of one function f,
    w [(f(z)-f(y))^2 - (f(z)-f(x))^2 / 2], given its differences
    yz = f(z) - f(y) and xz = f(z) - f(x)."""
    return (yz * yz - 0.5 * xz * xz) * w


def cd_entries(y, z, w, degree, n: float):
    """The CD form f -> G_2(f) - (1/n)(Df)^2 at a center of this degree,
    with f(center) = 0, as matrix entries over ball columns.

    Returns (df, rows, cols, values). Every pair of sphere-1 coordinates
    carries df = (1/2 - 1/n) / d_x^2, from (1/2 - 1/n)(Df)^2. Each pair
    (y, z) of weight w adds w (f(z) - f(y))^2 - (w/2) f(z)^2: w at (y, y),
    w/2 at (z, z) and -w at (y, z) and at (z, y). The entries come pair by
    pair, so each matrix entry sums its terms in pair order whoever
    scatters them, and the form is exactly symmetric. No pair couples two
    distance-2 vertices, so the sphere-2 block is diagonal.
    """
    df = (0.5 - 1.0 / n) / (degree * degree)
    rows = np.stack([y, z, y, z], axis=1).ravel()
    cols = np.stack([y, z, z, y], axis=1).ravel()
    values = np.stack([w, 0.5 * w, -w, -w], axis=1).ravel()
    return df, rows, cols, values


class MoveScorer:
    """The reduced CDE ratio R of sphere-1 rows, in full and after one
    coordinate moves, for the candidate rows of many vertices at once.

    A row holds the sphere-1 values t of a function with f(x) = 1 whose
    sphere 2 is at f(z)* (see the module docstring). R's numerator is a sum
    of terms plus the Df(x) terms. The own term of the i-th sphere-1 value
    holds its pair with the centre and its pairs to the distance-2 vertices
    of which it is the only parent, at f(z)* = t^2; the coupling terms are
    the triangle pairs (y, z both in sphere 1) and, for each distance-2
    vertex z with several parents, the pairs to z at f(z) = 0 together with
    -B_z^2 / (2 A_z). Moving one coordinate changes its own term, the
    coupling terms that hold it, and the sums of t and of (t - 1)^2 behind
    Df(x) and G(f)(x); on a girth-5 ball there are no coupling terms, so a
    move costs O(1).

    Ragged layout: ``balls`` holds the 2-balls of the rows' vertices (see
    ``graph.Balls``), and the rows of its i-th ball are counts[i] rows of
    that ball's degree; all rows lie one after another in one flat array of
    entries, the balls in order (``first`` holds where each row begins).
    Every term is read from the pairs of ``balls``. Every per-row sum is a
    segment or bin sum over that row's own entries and no row is padded,
    so a row's values do not depend on the rows beside it. A move array
    holds the K new values of each entry as (K, M), M the entries.
    """

    def __init__(self, balls: Balls, counts):
        self.balls = balls
        self.counts = np.asarray(counts, dtype=np.intp)
        self.degrees = balls.degree
        of = self.vertex_of = np.repeat(np.arange(len(self.counts)), self.counts)
        row_degree = self.degrees[of]
        entry, self.row_of = _ranges(balls.s1_first[of], row_degree)
        self.first = _firsts(row_degree)
        self.row_degree = row_degree.astype(np.float64)
        # by pair: its ball, and its distance-2 end as an index into sphere 2
        ball, y, z = balls.pair_ball, balls.pair_y, balls.pair_z
        d = balls.degree[ball]
        s2 = np.flatnonzero(z > d)
        col = balls.s2_first[ball[s2]] + z[s2] - 1 - d[s2]
        parents = np.bincount(col, minlength=len(balls.sphere2))
        several = parents[col] > 1
        # each sphere-1 value's weight and count of distance-2 vertices it
        # is the only parent of
        only = s2[~several]
        single = np.bincount(balls.s1_first[ball[only]] + y[only] - 1, minlength=len(balls.sphere1))
        self.w = balls.pair_w[_firsts(balls.s1_degree)][entry]
        self.single = single[entry].astype(np.float64)
        # the coupling lists of every row, their sphere-1 ends as entries;
        # the shared distance-2 vertices are numbered row after row
        tri = np.flatnonzero((z > 0) & (z <= d))
        self.tri_row, at = self._per_row(ball[tri])
        tri = tri[at]
        self.tri_w = balls.pair_w[tri]
        self.tri_y = self.first[self.tri_row] + y[tri] - 1
        self.tri_z = self.first[self.tri_row] + z[tri] - 1
        # before[i]: the shared distance-2 vertices before sphere-2 index i
        before = np.concatenate(([0], np.cumsum(parents > 1)))
        shared = s2[several]
        number = before[col[several]] - before[balls.s2_first[ball[shared]]]
        self.shared_row, at = self._per_row(ball[shared])
        shared = shared[at]
        self.shared_w = balls.pair_w[shared]
        self.shared_y = self.first[self.shared_row] + y[shared] - 1
        groups = np.diff(before[np.append(balls.s2_first, len(balls.sphere2))])[of]
        self.shared_z = _firsts(groups)[self.shared_row] + number[at]
        self.group_row = np.repeat(np.arange(len(of)), groups)

    def _per_row(self, ball: np.ndarray):
        """A list of pairs, ball after ball (ball holds the ball of each),
        once for every row of its ball: (row, index into the list) per copy."""
        if not len(ball):   # the usual case: spares a pass over every row
            return np.zeros((2, 0), dtype=np.intp)
        count = np.bincount(ball, minlength=len(self.counts))
        at, row = _ranges(_firsts(count)[self.vertex_of], count[self.vertex_of])
        return row, at

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """The rows of each ball, (count, degree) views into flat."""
        sizes = self.counts * self.degrees
        return [
            flat[a : a + size].reshape(count, degree)
            for a, size, count, degree in zip(_firsts(sizes), sizes, self.counts, self.degrees)
        ]

    def ratios(self, flat: np.ndarray, n: float) -> np.ndarray:
        """R of each row of flat (strictly positive)."""
        _, _, terms = self._terms(flat)
        lap, gx = self._gradients(flat)
        return _ratio(_numerator(terms, lap, gx, n), gx)

    def moves(
        self, flat: np.ndarray, values: np.ndarray, n: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """R and Df(x) of each row with one entry replaced.

        flat holds every row, strictly positive; values[k, m] is the k-th
        new value of the m-th entry, shape (K, M). Returns (ratio, Df(x),
        unmoved): the first two shaped like values, and the ratio of each
        row as it is. A move whose delta would lose accuracy (the row's
        terms outweigh the moved numerator and G(f)(x) by more than
        ``_DELTA_CANCEL``) is evaluated in full instead, on its own row,
        unless G(f)(x) is below the floor.
        """
        row, degree = self.row_of, self.row_degree[self.row_of]
        own, coupling, terms0 = self._terms(flat)
        lap0, gx0 = self._gradients(flat)
        # the scale of a delta's rounding error: the row's terms and G(f)(x)
        size = np.add.reduceat(np.abs(own), self.first)
        for at, value in coupling:
            size += np.bincount(at, np.abs(value), len(size))
        size += gx0

        terms = terms0[row] + (_own_terms(values, self.w, self.single) - own)
        if len(self.tri_y) or len(self.shared_y):
            terms += self._coupling_moves(flat, values)
        lap = lap0[row] + (values - flat) / degree
        c_new, c_old = values - 1.0, flat - 1.0
        gx = gx0[row] + (c_new * c_new - c_old * c_old) / (2.0 * degree)
        num = _numerator(terms, lap, gx, n)
        ratio = _ratio(num, gx)

        # a delta adds to the row's own terms and G(f)(x), so its rounding
        # error is relative to the size of those, not to the result's; below
        # the floor the ratio is +inf either way
        redo = (gx >= GRADIENT_FLOOR) & ~(size[row] <= _DELTA_CANCEL * np.maximum(gx, np.abs(num)))
        if redo.any():   # rare: each such move in full, on a row of its own
            m, k = np.nonzero(redo.T)   # by entry, so ball after ball
            rows, of = row[m], self.vertex_of[row[m]]
            sub = MoveScorer(self.balls, np.bincount(of, minlength=len(self.counts)))
            entry, _ = _ranges(self.first[rows], self.degrees[of])
            moved = flat[entry]
            moved[sub.first + m - self.first[rows]] = values[k, m]
            ratio[k, m] = sub.ratios(moved, n)
        return ratio, lap, _ratio(_numerator(terms0, lap0, gx0, n), gx0)

    def _terms(self, t: np.ndarray):
        """(own terms, coupling terms as ``_coupling`` yields them, and the
        numerator of each row but for its Df(x) terms, their sum)."""
        own = _own_terms(t, self.w, self.single)
        coupling = list(self._coupling(t))
        terms = np.add.reduceat(own, self.first)
        for at, value in coupling:
            terms += np.bincount(at, value, len(terms))
        return own, coupling, terms

    def _gradients(self, t: np.ndarray):
        """Df(x) and G(f)(x) of each row, at f(x) = 1."""
        c = t - 1.0
        lap = np.add.reduceat(t, self.first) / self.row_degree - 1.0
        return lap, np.add.reduceat(c * c, self.first) / (2.0 * self.row_degree)

    def _coupling(self, t: np.ndarray):
        """(row, value) of each coupling term of the rows of t."""
        if len(self.tri_y):
            ty, tz = t[self.tri_y], t[self.tri_z]
            yield self.tri_row, _reduced_pair(ty, tz - ty, tz - 1.0, self.tri_w)
        if len(self.shared_y):
            ty = t[self.shared_y]
            yield self.shared_row, _reduced_pair(ty, -ty, -1.0, self.shared_w)
            b, a = self._shared_sums(ty)
            yield self.group_row, -0.5 * b * b / a

    def _shared_sums(self, ty: np.ndarray):
        """B_z and A_z of each shared distance-2 vertex z, from the values
        ty of its parents."""
        count, w = len(self.group_row), self.shared_w
        return (np.bincount(self.shared_z, w * ty, count),
                np.bincount(self.shared_z, w / ty, count))

    def _coupling_moves(self, t: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The change of the coupling terms as each entry moves, like values."""
        k, m = values.shape
        out = np.zeros(k * m)
        keys = np.arange(k)[:, None] * m
        if len(self.tri_y):
            ty, tz, w = t[self.tri_y], t[self.tri_z], self.tri_w
            before = _reduced_pair(ty, tz - ty, tz - 1.0, w)
            vy, vz = values[:, self.tri_y], values[:, self.tri_z]
            for at, after in ((self.tri_y, _reduced_pair(vy, tz - vy, tz - 1.0, w)),
                              (self.tri_z, _reduced_pair(ty, vz - ty, vz - 1.0, w))):
                out += np.bincount((keys + at).ravel(), (after - before).ravel(), k * m)
        if len(self.shared_y):
            ty, w = t[self.shared_y], self.shared_w
            b, a = (s[self.shared_z] for s in self._shared_sums(ty))
            v = values[:, self.shared_y]
            b_new, a_new = b + w * (v - ty), a + w * (1.0 / v - 1.0 / ty)
            change = (_reduced_pair(v, -v, -1.0, w) - _reduced_pair(ty, -ty, -1.0, w)
                      - 0.5 * b_new * b_new / a_new + 0.5 * b * b / a)
            out += np.bincount((keys + self.shared_y).ravel(), change.ravel(), k * m)
        return out.reshape(k, m)


def _reduced_pair(t, dt, d1, w):
    """psi_w of one pair: its G_2 summand plus its share of -h(y) / (2 d_x),
    at f(x) = 1 and f(y) = t, given dt = f(z) - t and d1 = f(z) - 1."""
    return _pair_form(dt, d1, w) - 0.5 * w * ((t - 1.0) / t) * dt * dt


def _own_terms(t, w, single):
    """The own term of each sphere-1 value t, psi_w(t, 1) plus `single`
    times psi_w(t, t^2) (``_reduced_pair`` at f(z) = 1 and at f(z) = t^2),
    collapsed: (w/2)(t - 1)^2 [(1 + 1/t) - single (t + 1)]. The factor
    (t - 1)^2 stands apart, so nothing cancels near t = 1."""
    c = t - 1.0
    return (0.5 * w) * (c * c) * ((1.0 + 1.0 / t) - single * (t + 1.0))


def _numerator(terms, lap, gx, n: float):
    """R's numerator from its terms, Df(x) and G(f)(x), at f(x) = 1."""
    return terms + ((0.5 - 1.0 / n) * lap + 0.5 * gx) * lap


def _ratio(num: np.ndarray, gx: np.ndarray) -> np.ndarray:
    return np.divide(num, gx, out=np.full_like(num, np.inf), where=gx >= GRADIENT_FLOOR)
