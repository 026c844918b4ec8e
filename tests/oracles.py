"""Independent oracles used by the test suite.

Deliberately different routes from the production code: girth by
exhaustive simple-path enumeration and by a full BFS plus a scan of every
edge (production runs a bridge pass and an early-stop BFS), curvature by random-restart
minimization of the defining ratio over function space (never touching
the quadratic-form assembly, Schur elimination, or eigensolver), and
Schur elimination of a general positive-definite block by Cholesky
factorization (production divides by a diagonal block), and the CDE
descent moves scored by building every proposal row and evaluating it in
full (production updates the ratio by delta). The counter-mode uniforms
are also given as one whole-array expression (production mixes in place,
block by block).
"""

from __future__ import annotations

from collections import deque
from math import inf

import numpy as np

from curvkit.cde import FEASIBILITY_MARGIN, _batch_ratios
from curvkit.graph import Graph
from curvkit.localforms import LocalEvaluator
from curvkit.rng import _MIX1, _MIX2, GOLDEN, MASK64, counter_uniforms, derive_stream


def brute_force_vertex_girth(g: Graph, x: int) -> float:
    """Shortest cycle through x by DFS over all simple paths from x."""
    best = inf
    adjacency = g.adjacency
    start_neighbors = set(adjacency[x])
    path = [x]
    on_path = {x}

    def extend(v: int) -> None:
        nonlocal best
        if len(path) + 1 > best:  # even closing now cannot beat best
            return
        for w in adjacency[v]:
            if w == x:
                if len(path) >= 3:
                    best = min(best, len(path))
                continue
            if w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            extend(w)
            path.pop()
            on_path.remove(w)

    for first in start_neighbors:
        path.append(first)
        on_path.add(first)
        extend(first)
        path.pop()
        on_path.remove(first)
    return best


def brute_force_graph_girth(g: Graph) -> float:
    return min(brute_force_vertex_girth(g, x) for x in range(g.vertex_count))


def full_scan_vertex_girth(g: Graph, x: int) -> float:
    """Shortest cycle through x from a full BFS and a scan of every edge.

    The BFS labels every vertex with its distance and its root branch (the
    first-hop neighbor its tree path uses); every edge {u, w} (u, w != x)
    joining different branches closes a cycle through x of length
    dist(u) + dist(w) + 1, and the minimum over all edges is exact. O(n + m)
    per vertex whatever the girth, with no bridge pass and no early stop.
    """
    n = g.vertex_count
    dist = [-1] * n
    branch = [-1] * n
    dist[x] = 0
    queue: deque[int] = deque()
    for y in g.adjacency[x]:
        dist[y] = 1
        branch[y] = y
        queue.append(y)
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                branch[w] = branch[u]
                queue.append(w)

    best = inf
    for u in range(n):
        if u == x:
            continue
        for w in g.adjacency[u]:
            if w <= u or w == x:
                continue
            if branch[u] != branch[w]:
                best = min(best, dist[u] + dist[w] + 1)
    return best


def cholesky_schur(m: np.ndarray, keep) -> tuple[np.ndarray, np.ndarray]:
    """Schur complement onto the kept coordinates and the minimizer map.

    Returns (S, W) with S = M_kk - M_ek^T M_ee^{-1} M_ek and
    W = -M_ee^{-1} M_ek, so the argmin over the eliminated coordinates is
    W @ u. The eliminated block may be any positive-definite matrix; it is
    factored as L L^T and the two triangular systems are solved.
    """
    m = np.asarray(m, dtype=np.float64)
    keep = np.asarray(keep, dtype=np.intp)
    elim = np.setdiff1d(np.arange(m.shape[0]), keep)
    m_ek = m[np.ix_(elim, keep)]
    chol = np.linalg.cholesky(m[np.ix_(elim, elim)])
    half = np.linalg.solve(chol, m_ek)  # L^{-1} M_ek
    schur = m[np.ix_(keep, keep)] - half.T @ half
    return 0.5 * (schur + schur.T), -np.linalg.solve(chol.T, half)


def min_ratio_descent(
    eval_nd, rows: np.ndarray, free_cols: np.ndarray, sweeps: int = 200
) -> float:
    """Exact coordinate descent on a ratio of quadratics.

    eval_nd maps a (B, width) batch to (numerator, denominator); both must
    be exactly quadratic in every single coordinate, so a 3-point fit per
    coordinate is exact and the 1-D minimizer solves a quadratic equation.
    Returns the best ratio over all rows after descent.
    """
    cur = np.array(rows, dtype=np.float64)
    count = len(cur)
    num0, den0 = eval_nd(cur)
    best = _safe_ratio(num0, den0)
    for _ in range(sweeps):
        improved = np.zeros(count, dtype=bool)
        for col in free_cols:
            plus = cur.copy()
            plus[:, col] += 1.0
            minus = cur.copy()
            minus[:, col] -= 1.0
            num0, den0 = eval_nd(cur)
            num_p, den_p = eval_nd(plus)
            num_m, den_m = eval_nd(minus)
            a = 0.5 * (num_p + num_m) - num0
            b = 0.5 * (num_p - num_m)
            aa = 0.5 * (den_p + den_m) - den0
            bb = 0.5 * (den_p - den_m)
            # stationary points of (a s^2 + b s + num0)/(aa s^2 + bb s + den0)
            alpha = a * bb - b * aa
            beta = 2.0 * (a * den0 - aa * num0)
            gamma_c = b * den0 - bb * num0
            for root in _quadratic_roots(alpha, beta, gamma_c):
                cand_num = a * root * root + b * root + num0
                cand_den = aa * root * root + bb * root + den0
                value = _safe_ratio(cand_num, cand_den)
                take = value < best - 1e-15
                if np.any(take):
                    cur[take, col] += root[take]
                    best = np.where(take, value, best)
                    improved |= take
        if not improved.any():
            break
    return float(best.min())


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    good = den > 1e-30
    return np.where(good, num / np.where(good, den, 1.0), np.inf)


def _quadratic_roots(alpha, beta, gamma_c):
    """Real roots of alpha s^2 + beta s + gamma_c = 0, vectorized.

    Returns two root arrays (entries NaN-free; degenerate cases fall back
    to the linear root or 0, which the caller's improvement test ignores).
    """
    linear = np.abs(alpha) < 1e-300
    safe_alpha = np.where(linear, 1.0, alpha)
    disc = beta * beta - 4.0 * safe_alpha * gamma_c
    sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
    # numerically stable pair
    q = -0.5 * (beta + np.sign(np.where(beta == 0.0, 1.0, beta)) * sqrt_disc)
    root1 = np.where(linear, _linear_root(beta, gamma_c), q / safe_alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        root2 = np.where(linear | (np.abs(q) < 1e-300), root1, gamma_c / q)
    root1 = np.where(np.isfinite(root1), root1, 0.0)
    root2 = np.where(np.isfinite(root2), root2, 0.0)
    return root1, root2


def _linear_root(beta, gamma_c):
    ok = np.abs(beta) > 1e-300
    return np.where(ok, -gamma_c / np.where(ok, beta, 1.0), 0.0)


def rayleigh_cd_minimum(
    g: Graph, x: int, n: float, restarts: int = 10000, seed: int = 0, top: int = 32
) -> float:
    """Random-restart minimization of (G_2(f) - (1/n)(Df)^2) / G(f) at x.

    Searches over functions on the 2-ball with f(x) = 0, evaluating the
    forms through their local formulas only; independent of the
    matrix/Schur/eigensolver route.
    """
    ev = LocalEvaluator(g, x)
    ncoords = ev.width - 1
    u = counter_uniforms(derive_stream(seed, x), 0, restarts * ncoords)
    rows = np.zeros((restarts, ev.width))
    rows[:, 1:] = 2.0 * u.reshape(restarts, ncoords) - 1.0

    def eval_nd(batch):
        lap = ev.laplacian(batch)
        return ev.gamma2(batch) - lap * lap / n, ev.gamma(batch)

    num, den = eval_nd(rows)
    ratios = _safe_ratio(num, den)
    order = np.argsort(ratios)[: min(top, restarts)]
    free_cols = np.arange(1, ev.width)
    return min_ratio_descent(eval_nd, rows[order], free_cols)


def rayleigh_matrix_minimum(
    m: np.ndarray, restarts: int = 100000, seed: int = 0, top: int = 16
) -> float:
    """Smallest eigenvalue by random-restart Rayleigh-quotient descent."""
    m = np.asarray(m, dtype=np.float64)
    dim = m.shape[0]
    u = counter_uniforms(seed, 0, restarts * dim)
    rows = 2.0 * u.reshape(restarts, dim) - 1.0

    def eval_nd(batch):
        return np.einsum("bi,ij,bj->b", batch, m, batch), (batch * batch).sum(axis=1)

    num, den = eval_nd(rows)
    ratios = _safe_ratio(num, den)
    order = np.argsort(ratios)[: min(top, restarts)]
    return min_ratio_descent(eval_nd, rows[order], np.arange(dim))


def proposal_tensor_moves(
    ev: LocalEvaluator, current: np.ndarray, step: np.ndarray, n: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One descent sweep's proposals, each built as a full row and scored.

    Proposal slot j of a candidate moves column j // 2 + 1 by the factor
    1 + step (even j) or 1 / (1 + step) (odd j), floored at the margin;
    a sphere-1 move is then shrunk by the excess of the sphere-1 sum over
    d_x (1 - margin), so Df(x) <= -margin. Returns (moved, values, dead,
    lap), each (count, 2 (width - 1)): the moved column's new value, the
    ratio by ``_batch_ratios`` (+inf where dead or Df(x) >= 0), the dead
    flags, and Df(x) of the proposal.
    """
    current = np.asarray(current, dtype=np.float64)
    count = len(current)
    nprops = 2 * (ev.width - 1)
    slot_col = np.repeat(np.arange(1, ev.width), 2)
    slot_is_s1 = np.isin(slot_col, ev.s1_cols)
    cand_idx = np.arange(count)[:, None]
    slot_idx = np.arange(nprops)[None, :]
    budget = ev.degree * (1.0 - FEASIBILITY_MARGIN)

    factors = np.empty((count, nprops))
    factors[:, 0::2] = (1.0 + step)[:, None]
    factors[:, 1::2] = (1.0 / (1.0 + step))[:, None]
    proposals = np.repeat(current[:, None, :], nprops, axis=1)
    moved = proposals[cand_idx, slot_idx, slot_col[None, :]] * factors
    moved = np.maximum(moved, FEASIBILITY_MARGIN)
    proposals[cand_idx, slot_idx, slot_col[None, :]] = moved
    s1_sum = proposals[:, :, ev.s1_cols].sum(axis=2)
    excess = np.where(slot_is_s1[None, :], s1_sum - budget, 0.0)
    moved = moved - np.maximum(excess, 0.0)
    final = np.maximum(moved, FEASIBILITY_MARGIN)
    proposals[cand_idx, slot_idx, slot_col[None, :]] = final
    dead = moved <= FEASIBILITY_MARGIN

    flat = proposals.reshape(count * nprops, ev.width)
    values = _batch_ratios(ev, flat, n).reshape(count, nprops)
    lap = ev.laplacian(flat).reshape(count, nprops)
    values = np.where(dead | ~(lap < 0.0), np.inf, values)
    return final, values, dead, lap


def whole_array_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Counter-mode SplitMix64 uniforms as one expression over all counters."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + idx * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
