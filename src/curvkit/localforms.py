"""The closed local formulas of the curvature quantities at one vertex.

The 2-ball structure, (y, z, weight) arrays over the pairs y ~ x, z ~ y,
comes from ``graph.Balls``; whole batches of candidate functions are
evaluated with numpy. This is the only statement of the closed local G_2
formula: the entries of the CD quadratic form are stated once, in
``cd_entries`` (the cd module scatters them, for one ball or many at
once), the scalar ``operators.gamma2_local`` is a one-row call into this
module, and ``MoveTable`` updates the CDE ratio after one coordinate moves
from the same per-pair summand. The definitional implementations in the
operators module are the independent route; tests cross-check the two.

Batch layout: rows are candidate functions, columns are the ball columns
of ``graph.Balls``: [center, sphere1..., sphere2...].
"""

from __future__ import annotations

import numpy as np

from .graph import Balls, Graph, _firsts

# MoveTable evaluates a move in full where the row's terms outweigh the
# moved ratio's numerator and denominator by more than this factor: a delta
# carries a rounding error of a few ulps of the terms it updates, so up to
# this factor the ratio keeps a relative error of a few 1e-13
_DELTA_CANCEL = 256.0


class LocalEvaluator:
    """Vectorized Laplacian / gradient-form evaluation on a 2-ball, over
    its ``graph.Balls`` columns: the center, sphere 1, then sphere 2."""

    def __init__(self, g: Graph, x: int):
        b = Balls(g, [x])
        self.graph = g
        self.center = x
        self.degree, self.width = int(b.degree[0]), int(b.width[0])
        self.s1_cols = np.arange(1, 1 + self.degree)
        self.s2_cols = np.arange(1 + self.degree, self.width)
        # the vertex behind each column
        self.vertices = np.concatenate([b.centres, b.sphere1, b.sphere2])
        self.pair_y, self.pair_z, self.pair_w = b.pair_y, b.pair_z, b.pair_w
        self.s1_degree = b.s1_degree
        # the pairs of the i-th sphere-1 vertex (their owner) are d_y
        # consecutive rows; (f(z)-f(y))^2 summed over them and scaled by
        # 1/(2 d_y) yields G(f)(y), here as a per-neighbor aggregation matrix
        owner = self.pair_owner = self.pair_y - 1
        group = np.zeros((len(owner), self.degree))
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


class MoveTable:
    """The CDE ratio after one coordinate of a row moves, updated by delta,
    for the candidate rows of many vertices at once.

    Moving column c from a to v changes only the pairs with c at either
    end, G(f)(y) for the owners y of those pairs and, when c is in sphere
    1, Df(x) and G(f)(x). Written as

        G(f, G(f)/f) = ( sum_{y ~ x} (f(y) - f(x)) G(f)(y)/f(y)
                         - (G(f)(x)/f(x)) d_x Df(x) ) / (2 d_x),

    every term of the ratio updates in O(pairs touching c), and a squared
    difference with c at one end changes by (v - a)(v + a - 2 f(other end)).
    Where c is a pair's y end, c owns the pair: those pairs are the
    consecutive block of c, and both f(c) and G(f)(c) change. Where c is a
    z end, only G(f)(owner) changes and (f(y) - f(x))/f(y) stays put, so
    the update is linear in the per-pair changes, summed per column with
    ``np.bincount`` (a column may be no pair's z end, and sits several
    pairs' z end only where the ball has 4-cycles or triangles).

    Ragged layout: the rows of the i-th evaluator are counts[i] rows of its
    own width, and all rows lie one after another in one flat array, the
    evaluators in order (``first`` holds where each row begins). The pairs,
    sphere-1 entries and non-center coordinates of every row are offset
    into flat gather arrays, so every per-row and per-owner sum is a
    segment sum over that row's own entries and no row is padded: a row's
    values do not depend on the rows beside it. A move array holds the K
    new values of each coordinate as (K, M), the M coordinates row after
    row, column 1 first.
    """

    def __init__(self, evs: list[LocalEvaluator], counts):
        self.evs = evs
        self.counts = np.asarray(counts, dtype=np.intp)
        # per evaluator, and its entries concatenated in evaluator order
        degree = np.array([ev.degree for ev in evs], dtype=np.intp)
        npairs = np.array([len(ev.pair_y) for ev in evs], dtype=np.intp)
        self.ncoords = np.array([ev.width - 1 for ev in evs], dtype=np.intp)
        pair_y = np.concatenate([ev.pair_y for ev in evs])
        pair_z = np.concatenate([ev.pair_z for ev in evs])
        pair_w = np.concatenate([ev.pair_w for ev in evs])
        pair_owner = np.concatenate([ev.pair_owner for ev in evs])
        s1_degree = np.concatenate([ev.s1_degree for ev in evs])
        owner_start = _firsts(s1_degree)   # each owner's first pair
        pair_first, s1_first, coord_first = (_firsts(a) for a in (npairs, degree, self.ncoords))
        s1_of = np.repeat(np.arange(len(evs)), degree)

        # a pair term changes by (v - a) times the pair form of the moved
        # differences, (1, 0) at the y end and (1, 1) at the z end, against
        # (v + a - 2 f(other end), v + a - 2 f(x)); per column, the parts
        # proportional to v + a and to f(x)
        z_end = pair_z > 0
        z_col = (coord_first[np.repeat(np.arange(len(evs)), npairs)] + pair_z - 1)[z_end]
        w_z = pair_w[z_end]
        total = int(self.ncoords.sum())
        sum_coef = np.bincount(z_col, _pair_form(1.0, 1.0, 1.0, 1.0, w_z), total)
        sum_coef = sum_coef.astype(np.float64)   # integer zeros where no pair has a z end
        # sphere 1 is columns 1..d_x, so also each vertex's first d_x coordinates
        s1_col = coord_first[s1_of] + np.arange(len(s1_of)) - s1_first[s1_of]
        sum_coef[s1_col] += np.add.reduceat(_pair_form(1.0, 0.0, 1.0, 1.0, pair_w), owner_start)
        center_coef = np.bincount(z_col, _pair_form(1.0, 1.0, 0.0, -2.0, w_z), total)

        # per row: its pairs, sphere-1 entries and coordinates
        of = np.repeat(np.arange(len(evs)), self.counts)
        self.vertex_of = of
        self.first = _firsts(self.ncoords[of] + 1)   # where each row starts: f(x)
        self.degree = degree[of].astype(np.float64)
        s_tpl, self.s_row, self.s_first, s_local = _ragged(s1_first, degree, of)
        p_tpl, self.p_row, self.p_first, _ = _ragged(pair_first, npairs, of)
        c_tpl, self.c_row, self.c_first, self.c_local = _ragged(coord_first, self.ncoords, of)
        self.s1_idx = self.first[self.s_row] + 1 + s_local
        self.s1_coord = self.c_first[self.s_row] + s_local
        self.s1_degree = s1_degree[s_tpl].astype(np.float64)
        self.owner_w = pair_w[owner_start][s_tpl]   # 1/(2 d_x d_y)
        self.owner_first = self.p_first[self.s_row] + (owner_start - pair_first[s1_of])[s_tpl]
        self.py_idx = self.first[self.p_row] + pair_y[p_tpl]
        self.pz_idx = self.first[self.p_row] + pair_z[p_tpl]
        self.pair_w = pair_w[p_tpl]
        # pairs with a z end other than the center, by column and owner
        z_end = np.flatnonzero(pair_z[p_tpl] > 0)
        self.z_coord = self.c_first[self.p_row[z_end]] + pair_z[p_tpl[z_end]] - 1
        self.z_owner = self.s_first[self.p_row[z_end]] + pair_owner[p_tpl[z_end]]
        self.coord_idx = self.first[self.c_row] + 1 + self.c_local
        self.sum_coef = sum_coef[c_tpl]
        self.center_coef = center_coef[c_tpl]

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """The rows of each evaluator, (count, width) views into flat."""
        sizes = self.counts * (self.ncoords + 1)
        return [
            flat[a : a + size].reshape(count, ev.width)
            for ev, a, size, count in zip(self.evs, _firsts(sizes), sizes, self.counts)
        ]

    def ratios(
        self, flat: np.ndarray, values: np.ndarray, n: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CDE ratio and Df(x) of each row with one column replaced.

        flat holds every row, strictly positive; values[k, m] is the k-th new
        value of the m-th coordinate, shape (K, M). Returns (ratio, Df(x),
        unmoved): the first two shaped like values, the ratio +inf where
        G(f)(x) vanishes, and the ratio of each row as it is. A
        move whose delta would lose accuracy (the row's terms outweigh the
        moved numerator and G(f)(x) by more than ``_DELTA_CANCEL``) is
        evaluated in full instead, on its own row.

        The numerator is base + (1/2 - 1/n) Df(x)^2 + G(f)(x) Df(x) / (2 f(x)),
        where base is the sum of the pair terms minus sum_y h(y) / (2 d_x),
        h(y) = (f(y) - f(x)) G(f)(y) / f(y).
        """
        s_row, c_row = self.s_row, self.c_row
        scale = 1.0 / (2.0 * self.degree)
        kappa = 0.5 - 1.0 / n
        fx = flat[self.first]
        fy = flat[self.s1_idx]
        fz = flat[self.pz_idx]
        dyz = fz - flat[self.py_idx]
        dxz = fz - fx[self.p_row]
        terms = _pair_form(dyz, dxz, dyz, dxz, self.pair_w)
        gy2 = np.add.reduceat(dyz * dyz, self.owner_first)   # 2 d_y G(f)(y)
        nbr = np.add.reduceat(fz, self.owner_first)   # sum of f next to y
        fx_s, scale_s, two_dy = fx[s_row], scale[s_row], 2.0 * self.s1_degree
        dev = fy - fx_s
        dev2 = dev * dev
        dev_dy = dev / two_dy
        h = dev_dy * gy2 / fy
        fy_sum = np.add.reduceat(fy, self.s_first)
        dev2_sum = np.add.reduceat(dev2, self.s_first)
        lap0 = fy_sum / self.degree - fx
        gx0 = dev2_sum * scale
        base = np.add.reduceat(terms, self.p_first) - np.add.reduceat(h, self.s_first) * scale
        size = (
            np.add.reduceat(np.abs(terms), self.p_first)
            + np.add.reduceat(np.abs(h), self.s_first) * scale
            + gx0
        )
        num0 = base + (kappa * lap0 + gx0 / (2.0 * fx)) * lap0
        unmoved = np.divide(num0, gx0, out=np.full_like(num0, np.inf), where=gx0 > 0.0)

        # the pair terms and h change by (v - a)((v + a) quad + lin), apart
        # from the moved sphere-1 vertex's own h; at a pair's z end, the
        # owner's h changes by (f(y) - f(x)) / (2 d_y f(y)) times the change
        # of (f(z) - f(y))^2
        ncoords = len(self.coord_idx)
        at_z = 2.0 * scale_s * dev_dy - 2.0 * self.owner_w * fy
        lin = fx[c_row] * self.center_coef + np.bincount(
            self.z_coord, at_z[self.z_owner], ncoords
        )
        lin[self.s1_coord] -= 2.0 * self.owner_w * nbr
        at_z = -scale_s * dev_dy / fy
        quad = self.sum_coef + np.bincount(self.z_coord, at_z[self.z_owner], ncoords)

        old = flat[self.coord_idx]
        delta = values - old
        num = delta * ((values + old) * quad + lin) + base[c_row]
        # a sphere-1 move also changes its own f and G(f), Df(x) and G(f)(x)
        dp, vp = delta[:, self.s1_coord], values[:, self.s1_coord]
        g_own = gy2 / two_dy + dp * (0.5 * (vp + fy) - nbr / self.s1_degree)
        num[:, self.s1_coord] -= ((vp - fx_s) * g_own / vp - h) * scale_s
        lap = np.empty_like(values)
        lap[:] = lap0[c_row]
        lap[:, self.s1_coord] = ((fy_sum[s_row] - fy) + vp) / self.degree[s_row] - fx_s
        gx = np.empty_like(values)
        gx[:] = gx0[c_row]
        gx[:, self.s1_coord] = ((dev2_sum[s_row] - dev2) + (vp - fx_s) ** 2) * scale_s
        num += (kappa * lap + gx / (2.0 * fx[c_row])) * lap
        ratio = np.divide(num, gx, out=np.full_like(num, np.inf), where=gx > 0.0)

        # the deltas add to the row's own pair terms, h and G(f)(x), so their
        # rounding error is relative to the size of those, not to the result's
        redo = ~(size[c_row] <= _DELTA_CANCEL * np.maximum(gx, np.abs(num)))
        for k, m in zip(*np.nonzero(redo)):   # rare: one row at a time
            ev = self.evs[self.vertex_of[c_row[m]]]
            start = self.first[c_row[m]]
            full = flat[None, start : start + ev.width].copy()
            full[0, self.c_local[m] + 1] = values[k, m]
            den = ev.gamma(full)[0]
            ratio[k, m] = ev.cde_numerator(full, n)[0] / den if den > 0.0 else np.inf
        return ratio, lap, unmoved


def _ragged(first: np.ndarray, length: np.ndarray, of: np.ndarray):
    """The entries first[i] .. first[i] + length[i] - 1 of each i in `of`,
    concatenated in that order. Returns (entry, segment, segment start,
    offset in segment) per output entry, except segment start, which is
    per segment."""
    lengths = length[of]
    seg = np.repeat(np.arange(len(of)), lengths)
    starts = _firsts(lengths)
    local = np.arange(len(seg)) - starts[seg]
    return first[of][seg] + local, seg, starts, local
