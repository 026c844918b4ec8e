"""Independent oracles used by the test suite.

Deliberately different routes from the production code: girth by
exhaustive simple-path enumeration and by a full BFS plus a scan of every
edge (production runs a bridge pass and an early-stop BFS), curvature by random-restart
minimization of the defining ratio over function space (never touching
the quadratic-form assembly, Schur elimination, or eigensolver) and, at
girth >= 5, by a closed form in the neighbor degrees, and
Schur elimination of a general positive-definite block by Cholesky
factorization (production divides by a diagonal block), and the CDE
descent moves scored by building every proposal row and evaluating it in
full (production updates the ratio by delta). The counter-mode uniforms
are also given as one whole-array expression (production mixes in place,
block by block), the sampled CDE rows as whole-array expressions
(production computes them in place), the CDE refinement triggers by a heap walk over every
sampled ratio (production prefilters blocks against the current 10th
smallest), and the structured CDE rows by listing every configuration in
Python before the cap (production builds only the kept ones with numpy).
G(f, G(f)/f) is also given by the three-term split of its Laplacians
(production applies the bilinear form to the quotient function G(f)/f),
and the 2-ball layout by a set walk over the adjacency lists of one
center (production sorts the keys of many centres at once).
"""

from __future__ import annotations

import heapq
from collections import deque
from math import inf

import numpy as np

from curvkit.cde import (
    _GRID,
    _LOG_HALF_RANGE,
    _REFINE_CAP,
    _STRUCTURED_CAP,
    _STRUCTURED_STREAM_TAG,
    _TOP_K,
    FEASIBILITY_MARGIN,
    _batch_ratios,
)
from curvkit.graph import Graph, _check_vertex, check_function
from curvkit.localforms import LocalEvaluator
from curvkit.operators import _require_positive_two_ball, gamma_local, laplacian
from curvkit.rng import _MIX1, _MIX2, GOLDEN, MASK64, counter_uniforms, derive_stream


def walked_two_ball(g: Graph, x: int):
    """The 2-ball of x by a set walk, as vertex ids: (sphere 1, sphere 2
    ascending, pairs), the pairs (y, z, 1/(2 d_x d_y)) for every y ~ x and
    z ~ y in adjacency order."""
    s1 = g.adjacency[x]
    near = set(s1) | {x}
    second = set()
    pairs = []
    for y in s1:
        for z in g.adjacency[y]:
            if z not in near:
                second.add(z)
            pairs.append((y, z, 1.0 / (2.0 * len(s1) * len(g.adjacency[y]))))
    return s1, tuple(sorted(second)), pairs


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


def gamma_f_ratio_split(g: Graph, f, x: int) -> float:
    """G(f, G(f)/f)(x) via the three-term split

        I1 - I2 - I3 = D(G(f))(x)/2
                       - f(x) * D(G(f)/f)(x) / 2
                       - (G(f)(x)/f(x)) * Df(x) / 2

    (an independent evaluation path; must agree with gamma_f_ratio).
    """
    vals = check_function(g, f)
    _check_vertex(g, x)
    _require_positive_two_ball(g, vals, x)
    nbrs = g.adjacency[x]
    d = len(nbrs)
    gam = {v: gamma_local(g, vals, v) for v in (x,) + nbrs}
    i1 = 0.5 * sum(gam[y] - gam[x] for y in nbrs) / d
    i2 = 0.5 * vals[x] * sum(gam[y] / vals[y] - gam[x] / vals[x] for y in nbrs) / d
    i3 = 0.5 * (gam[x] / vals[x]) * laplacian(g, vals, x)
    return i1 - i2 - i3


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


def closed_form_cd_curvature(g: Graph, x: int, n: float) -> float:
    """K(x, n) at a vertex of girth >= 5, from its neighbor degrees alone.

    With no edge among the neighbors y and no shared vertex at distance 2,
    sphere 2 eliminates exactly and K(x, n) is 2 d_x times the smallest
    eigenvalue of diag((2 - d_y)/(2 d_x d_y)) + ((1/2 - 1/n)/d_x^2) 11^T.
    """
    d = g.degree(x)
    dy = np.array([g.degree(y) for y in g.adjacency[x]], dtype=np.float64)
    m = np.diag((2.0 - dy) / (2.0 * d * dy)) + (0.5 - 1.0 / n) / d**2
    return 2.0 * d * float(np.linalg.eigvalsh(m)[0])


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


def heap_trigger_rows(ratios: np.ndarray) -> list[int]:
    """Rows entering the running top-10 of ratios, by a heap over every row,
    cut at the refinement cap."""
    heap: list[float] = []   # max-heap via negation, the 10 smallest so far
    trigger_rows: list[int] = []
    for i, r in enumerate(ratios.tolist()):
        if len(heap) < _TOP_K:
            heapq.heappush(heap, -r)
            trigger_rows.append(i)
        elif r < -heap[0]:
            heapq.heappushpop(heap, -r)
            trigger_rows.append(i)
    return trigger_rows[:_REFINE_CAP]


def listed_structured_rows(ev: LocalEvaluator, stream: int) -> np.ndarray:
    """The structured CDE rows, every configuration listed as its own array
    before the list is cut at the cap, and the distance-2 columns filled
    one by one."""
    p = len(ev.s1_cols)
    grid = np.array(_GRID)
    k = len(grid)
    if k**p <= _STRUCTURED_CAP:
        mesh = np.stack(
            [a.ravel() for a in np.meshgrid(*([grid] * p), indexing="ij")], axis=1
        )
    else:
        configs = [np.full(p, t) for t in grid]
        for slot in range(p):
            for t_dev in grid:
                for t_rest in grid:
                    if t_dev == t_rest:
                        continue
                    row = np.full(p, t_rest)
                    row[slot] = t_dev
                    configs.append(row)
        room = _STRUCTURED_CAP - len(configs)
        if room > 0:
            sub = derive_stream(stream, _STRUCTURED_STREAM_TAG)
            u = counter_uniforms(sub, 0, room * p).reshape(room, p)
            configs.extend(grid[np.minimum((u * k).astype(int), k - 1)])
        mesh = np.array(configs[:_STRUCTURED_CAP])

    feasible = mesh[mesh.sum(axis=1) < p]   # Df(x) < 0
    rows = np.empty((len(feasible), ev.width))
    rows[:, 0] = 1.0
    rows[:, ev.s1_cols] = feasible
    if len(ev.s2_cols):
        sphere1, sphere2, _ = walked_two_ball(ev.graph, ev.center)
        for z, col in zip(sphere2, ev.s2_cols):
            parent = min(v for v in ev.graph.adjacency[z] if v in sphere1)
            rows[:, col] = rows[:, 1 + sphere1.index(parent)] ** 2
    return rows


def expression_sampled_rows(ev: LocalEvaluator, stream: int, samples: int) -> np.ndarray:
    """The sampled CDE rows as whole-array expressions over the draws."""
    width = ev.width
    u = counter_uniforms(stream, 0, samples * width).reshape(samples, width)
    raw = np.exp(_LOG_HALF_RANGE * (2.0 * u - 1.0))
    s1 = raw[:, ev.s1_cols]
    ceiling = (1.0 - u[:, 0]) ** (1.0 / ev.degree) * (1.0 - FEASIBILITY_MARGIN)
    raw[:, ev.s1_cols] = s1 * np.minimum(1.0, ceiling / s1.mean(axis=1))[:, None]
    raw[:, 0] = 1.0
    return raw
