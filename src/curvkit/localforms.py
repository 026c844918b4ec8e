"""The closed local formulas of the curvature quantities at one vertex.

The 2-ball structure is precomputed once, as (y, z, weight) arrays over
the pairs y ~ x, z ~ y, and whole batches of candidate functions are
evaluated with numpy. This is the only statement of the closed local G_2
formula: the CD quadratic form is assembled from the same arrays, and the
scalar ``operators.gamma2_local`` is a one-row call into this module. The
definitional implementations in the operators module are the independent
route; tests cross-check the two.

Batch layout: rows are candidate functions, columns are ball vertices in
the fixed order [center, sphere1..., sphere2...].
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, LocalBall, ball


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
        # per-neighbor aggregation matrix: (f(z)-f(y))^2 summed over z ~ y,
        # scaled by 1/(2 d_y), yields G(f)(y) for each sphere-1 vertex; the
        # pairs of the i-th sphere-1 vertex are d_y consecutive rows
        s1_degree = np.array([g.degree(y) for y in b.sphere1])
        owner = np.repeat(np.arange(len(s1_degree)), s1_degree)
        group = np.zeros((len(owner), len(s1_degree)))
        group[np.arange(len(owner)), owner] = 1.0 / (2.0 * s1_degree[owner])
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
        acc = ((dyz * dyz - 0.5 * dxz * dxz) * self.pair_w).sum(axis=1)
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

    def cd_numerator(self, rows: np.ndarray, n: float) -> np.ndarray:
        """G_2(f) - (1/n)(Df)^2 at the center."""
        lap = self.laplacian(rows)
        return self.gamma2(rows) - lap * lap / n

    def cde_numerator(self, rows: np.ndarray, n: float) -> np.ndarray:
        """G_2(f) - G(f, G(f)/f) - (1/n)(Df)^2 at the center."""
        lap = self.laplacian(rows)
        return self.gamma2(rows) - self.gamma_f_ratio(rows) - lap * lap / n
