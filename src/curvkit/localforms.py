"""The closed local formulas of the curvature quantities at one vertex.

The 2-ball structure is precomputed once, as (y, z, weight) arrays over
the pairs y ~ x, z ~ y, and whole batches of candidate functions are
evaluated with numpy. This is the only statement of the closed local G_2
formula: the CD quadratic form is assembled from the same arrays, the
scalar ``operators.gamma2_local`` is a one-row call into this module, and
``MoveTable`` updates the CDE ratio after one coordinate moves from the
same per-pair summand. The definitional implementations in the operators
module are the independent route; tests cross-check the two.

Batch layout: rows are candidate functions, columns are ball vertices in
the fixed order [center, sphere1..., sphere2...].
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, LocalBall, ball

# MoveTable evaluates a move in full where the row's terms outweigh the
# moved ratio's numerator and denominator by more than this factor: a delta
# carries a rounding error of a few ulps of the terms it updates, so up to
# this factor the ratio keeps a relative error of a few 1e-13
_DELTA_CANCEL = 256.0


class LocalEvaluator:
    """Vectorized Laplacian / gradient-form evaluation on a 2-ball."""

    def __init__(self, g: Graph, x: int):
        b = ball(g, x, 2)
        self.graph = g
        self.center = x
        self.ball: LocalBall = b
        self.degree = g.degree(x)
        # column 0 is the center; coordinates shift by one
        col = {v: i + 1 for v, i in b.index.items()}
        col[x] = 0
        self.width = 1 + b.size
        self.s1_cols = np.array([col[y] for y in b.sphere1], dtype=np.intp)
        self.s2_cols = np.array([col[z] for z in b.sphere2], dtype=np.intp)
        # the vertex behind each column
        self.vertices = np.array((x,) + b.coordinates, dtype=np.intp)

        pair_y: list[int] = []
        pair_z: list[int] = []
        pair_w: list[float] = []
        for y in b.sphere1:
            dy = g.degree(y)
            for z in g.adjacency[y]:
                pair_y.append(col[y])
                pair_z.append(col[z])
                pair_w.append(1.0 / (2.0 * self.degree * dy))
        self.pair_y = np.array(pair_y, dtype=np.intp)
        self.pair_z = np.array(pair_z, dtype=np.intp)
        self.pair_w = np.array(pair_w)
        # the pairs of the i-th sphere-1 vertex (their owner) are d_y
        # consecutive rows; (f(z)-f(y))^2 summed over them and scaled by
        # 1/(2 d_y) yields G(f)(y), here as a per-neighbor aggregation matrix
        self.s1_degree = np.array([g.degree(y) for y in b.sphere1], dtype=np.intp)
        owner = np.repeat(np.arange(len(self.s1_degree)), self.s1_degree)
        self.pair_owner = owner
        group = np.zeros((len(owner), len(self.s1_degree)))
        group[np.arange(len(owner)), owner] = 1.0 / (2.0 * self.s1_degree[owner])
        self.gamma_s1_weights = group

    def to_vertex_function_values(self, row: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Expand one ball row to a full vertex-value array."""
        out = np.full(self.graph.vertex_count, float(fill))
        out[self.vertices] = row
        return out

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
        acc = _pair_form(dyz, dxz, dyz, dxz, self.pair_w).sum(axis=1)
        return 0.5 * lap * lap + acc

    def cd_form(self, n: float) -> np.ndarray:
        """Matrix of f -> G_2(f) - (1/n)(Df)^2 at the center, with f(x) = 0.

        Over the ball coordinates (columns 1.. of the batch layout, sphere 1
        first). Each pair contributes w (f(z) - f(y))^2 - (w/2) f(z)^2; the
        entries that touch the center column drop out with f(x) = 0. The
        sphere-2 block is diagonal: no pair couples two distance-2 vertices.
        """
        y, z, w = self.pair_y, self.pair_z, self.pair_w
        p = len(self.s1_cols)
        a = np.zeros((self.width, self.width))
        # (1/2 - 1/n) (Df)^2 with Df(x) = (sum over sphere 1) / d_x;
        # sphere 1 is columns 1..p
        a[1 : p + 1, 1 : p + 1] = (0.5 - 1.0 / n) / (self.degree * self.degree)
        np.add.at(
            a,
            (np.concatenate([y, z, y, z]), np.concatenate([y, z, z, y])),
            np.concatenate([w, 0.5 * w, -w, -w]),
        )
        return a[1:, 1:]

    def gamma_at_s1(self, rows: np.ndarray) -> np.ndarray:
        """G(f)(y) for every sphere-1 vertex y, shape (B, |S1|)."""
        dyz = rows[:, self.pair_z] - rows[:, self.pair_y]
        return (dyz * dyz) @ self.gamma_s1_weights

    def gamma_f_ratio(self, rows: np.ndarray) -> np.ndarray:
        """G(f, G(f)/f) at the center; rows must be strictly positive."""
        u_center = self.gamma(rows) / rows[:, 0]
        u_s1 = self.gamma_at_s1(rows) / rows[:, self.s1_cols]
        diff_f = rows[:, self.s1_cols] - rows[:, [0]]
        diff_u = u_s1 - u_center[:, None]
        return (diff_f * diff_u).sum(axis=1) / (2.0 * self.degree)

    def cde_numerator(self, rows: np.ndarray, n: float) -> np.ndarray:
        """G_2(f) - G(f, G(f)/f) - (1/n)(Df)^2 at the center."""
        lap = self.laplacian(rows)
        return self.gamma2(rows) - self.gamma_f_ratio(rows) - lap * lap / n


def _pair_form(yz, xz, yz2, xz2, w):
    """Per-pair summand of the closed G_2, polarized:
    w [(f(z)-f(y))(g(z)-g(y)) - (f(z)-f(x))(g(z)-g(x)) / 2], given the
    differences of f (yz, xz) and of g (yz2, xz2); f = g gives the G_2 term.
    """
    return (yz * yz2 - 0.5 * xz * xz2) * w


class MoveTable:
    """The CDE ratio after one coordinate of a row moves, updated by delta.

    Moving column c from a to v changes only the pairs with c at either
    end, G(f)(y) for the owners y of those pairs and, when c is in sphere
    1, Df(x) and G(f)(x). Written as

        G(f, G(f)/f) = ( sum_{y ~ x} (f(y) - f(x)) G(f)(y)/f(y)
                         - (G(f)(x)/f(x)) d_x Df(x) ) / (2 d_x),

    every term of the ratio updates in O(pairs touching c), and a squared
    difference with c at one end changes by (v - a)(v + a - 2 f(other end)).
    Where c is a pair's y end, c owns the pair: those pairs are the
    consecutive block of c, summed with ``np.add.reduceat``, and both f(c)
    and G(f)(c) change. Where c is a z end, only G(f)(owner) changes and
    (f(y) - f(x))/f(y) stays put, so the update is linear in the per-pair
    changes; the z ends form an incidence from columns to pairs, summed per
    column in rounds of one z end per column (a column may be no pair's z
    end, and sits several pairs' z end only where the ball has 4-cycles or
    triangles).
    """

    def __init__(self, ev: LocalEvaluator):
        self.ev = ev
        p = len(ev.s1_cols)   # sphere 1 is columns 1..p
        ncols = ev.width - 1
        self.owner_start = np.concatenate([[0], np.cumsum(ev.s1_degree)[:-1]])
        self.owner_w = ev.pair_w[self.owner_start]   # 1/(2 d_x d_y)
        self.two_dy = 2.0 * ev.s1_degree
        # pair (y, z) with z != x moves with column z; the owners of each
        # column's z ends, in rounds (round j holds every column's j-th one)
        z_end = ev.pair_z > 0
        z_col = ev.pair_z[z_end] - 1
        order = np.argsort(z_col, kind="stable")
        z_col, z_owner = z_col[order], ev.pair_owner[z_end][order]
        w_z = ev.pair_w[z_end][order]
        rank = np.arange(len(z_col)) - np.searchsorted(z_col, z_col)
        rounds = rank.max() + 1 if len(rank) else 0
        self.z_owner = np.zeros((rounds, ncols), dtype=np.intp)
        self.z_owner[rank, z_col] = z_owner
        self.z_mask = np.zeros((rounds, ncols, 1))
        self.z_mask[rank, z_col] = 1.0
        # a pair term changes by (v - a) times the pair form of the moved
        # differences, (1, 0) at the y end and (1, 1) at the z end, against
        # (v + a - 2 f(other end), v + a - 2 f(x)); per column, the parts
        # proportional to v + a and to f(x)
        self.sum_coef = np.bincount(
            z_col, _pair_form(1.0, 1.0, 1.0, 1.0, w_z), ncols
        ).astype(np.float64)
        self.sum_coef[:p] += np.add.reduceat(
            _pair_form(1.0, 0.0, 1.0, 1.0, ev.pair_w), self.owner_start
        )
        self.center_coef = np.bincount(
            z_col, _pair_form(1.0, 1.0, 0.0, -2.0, w_z), ncols
        ).astype(np.float64)

    def _z_sums(self, per_owner: np.ndarray) -> np.ndarray:
        """Per column, the sum of per_owner (B, |S1|, 2) over the owners of
        the pairs with their z end at that column, shape (B, ncols, 2)."""
        sums = np.zeros((len(per_owner), self.z_owner.shape[1], 2))
        for owner, mask in zip(self.z_owner, self.z_mask):
            sums += np.take(per_owner, owner, axis=1) * mask
        return sums

    def ratios(
        self, rows: np.ndarray, values: np.ndarray, n: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CDE ratio and Df(x) of each row with one column replaced.

        rows are strictly positive, shape (B, width); values[k, b, c - 1] is
        the k-th new value of column c in row b, shape (K, B, width - 1).
        Returns (ratio, Df(x), unmoved): the first two shaped like values,
        the ratio +inf where G(f)(x) vanishes, and the ratio of each row as
        it is. A move whose delta would lose accuracy (the row's terms
        outweigh the moved numerator and G(f)(x) by more than
        ``_DELTA_CANCEL``) is evaluated in full instead.

        The numerator is base + (1/2 - 1/n) Df(x)^2 + G(f)(x) Df(x) / (2 f(x)),
        where base is the sum of the pair terms minus sum_y h(y) / (2 d_x),
        h(y) = (f(y) - f(x)) G(f)(y) / f(y).
        """
        ev = self.ev
        p = len(ev.s1_cols)
        scale = 1.0 / (2.0 * ev.degree)
        kappa = 0.5 - 1.0 / n
        fx = rows[:, :1]
        fy = rows[:, 1 : p + 1]
        fz = rows[:, ev.pair_z]
        dyz = fz - rows[:, ev.pair_y]
        dxz = fz - fx
        terms = _pair_form(dyz, dxz, dyz, dxz, ev.pair_w)
        gy2 = np.add.reduceat(dyz * dyz, self.owner_start, axis=1)   # 2 d_y G(f)(y)
        nbr = np.add.reduceat(fz, self.owner_start, axis=1)   # sum of f next to y
        dev = fy - fx
        dev2 = dev * dev
        dev_dy = dev / self.two_dy
        h = dev_dy * gy2 / fy
        fy_sum = fy.sum(axis=1)
        dev2_sum = dev2.sum(axis=1)
        lap0 = fy_sum / ev.degree - fx[:, 0]
        gx0 = dev2_sum * scale
        base = terms.sum(axis=1) - h.sum(axis=1) * scale
        size = np.abs(terms).sum(axis=1) + np.abs(h).sum(axis=1) * scale + gx0
        num0 = base + (kappa * lap0 + gx0 / (2.0 * fx[:, 0])) * lap0
        unmoved = np.divide(num0, gx0, out=np.full_like(num0, np.inf), where=gx0 > 0.0)

        # the pair terms and h change by (v - a)((v + a) quad + lin), apart
        # from the moved sphere-1 vertex's own h; at a pair's z end, the
        # owner's h changes by (f(y) - f(x)) / (2 d_y f(y)) times the change
        # of (f(z) - f(y))^2
        z_sums = self._z_sums(
            np.stack(
                [2.0 * scale * dev_dy - 2.0 * self.owner_w * fy, -scale * dev_dy / fy],
                axis=2,
            )
        )
        lin = fx * self.center_coef + z_sums[:, :, 0]
        lin[:, :p] -= 2.0 * self.owner_w * nbr
        quad = self.sum_coef + z_sums[:, :, 1]

        old = rows[:, 1:]
        delta = values - old
        num = delta * ((values + old) * quad + lin) + base[:, None]
        # a sphere-1 move also changes its own f and G(f), Df(x) and G(f)(x)
        dp, vp = delta[:, :, :p], values[:, :, :p]
        g_own = gy2 / self.two_dy + dp * (0.5 * (vp + fy) - nbr / ev.s1_degree)
        num[:, :, :p] -= ((vp - fx) * g_own / vp - h) * scale
        lap = np.empty_like(values)
        lap[:] = lap0[:, None]
        lap[:, :, :p] = ((fy_sum[:, None] - fy) + vp) / ev.degree - fx
        gx = np.empty_like(values)
        gx[:] = gx0[:, None]
        gx[:, :, :p] = ((dev2_sum[:, None] - dev2) + (vp - fx) ** 2) * scale
        num += (kappa * lap + gx / (2.0 * fx)) * lap
        ratio = np.divide(num, gx, out=np.full_like(num, np.inf), where=gx > 0.0)

        # the deltas add to the row's own pair terms, h and G(f)(x), so their
        # rounding error is relative to the size of those, not to the result's
        redo = ~(size[:, None] <= _DELTA_CANCEL * np.maximum(gx, np.abs(num)))
        if redo.any():
            k, b, c = np.nonzero(redo)
            full = rows[b]
            full[np.arange(len(b)), c + 1] = values[k, b, c]
            den = ev.gamma(full)
            num = ev.cde_numerator(full, n)
            ratio[k, b, c] = np.divide(num, den, out=np.full_like(den, np.inf), where=den > 0.0)
        return ratio, lap, unmoved
