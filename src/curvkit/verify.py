"""End-to-end verification of the girth-5 curvature bounds.

For every vertex x whose girth gate passes (girth at x >= 5, infinite
girth included; the hypothesis under which the paper proves both bounds):

* CD bound: the computed pointwise curvature K(x, 2) must be at least
  min_i (2 - k_i)/k_i over the neighbor degrees k_i.
* CDE bound: the sampled minimum of the exponential-type ratio must be at
  least -d_x/2 - 1.

Neither bound is computed at a vertex failing the gate; its record is
precondition_not_met, with its girth and null numbers. A margin below
-1e-8 is only reported as a failure after the candidate function
re-verifies against a from-scratch definitional evaluation; margins in
(-1e-8, 0) are logged as tight.

The paper states both bounds at dimension n = 2, and both are checked
there only: both curvatures only grow with n, so a larger n is implied.
``cd_witness_value`` scores, with the definitional operators, the paper's
construction that attains the CD bound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

# cd_curvature and cde_estimate are not called here, but perfbench/tracer.py
# wraps them under this module's name: without them a traced run reports
# verify.self_s, verify.vertex_ms_* and the cd and cde metrics as missing
from .cd import cd_check, cd_curvature, cd_curvatures  # noqa: F401
from .cde import cde_check, cde_estimate, cde_estimates  # noqa: F401
from .girth import GirthValue, all_vertex_girths, vertex_girth
from .graph import Graph, VertexFunction, _check_vertex
from .operators import gamma, gamma2, laplacian

MARGIN_TOL = 1e-8
GIRTH_GATE = 5   # the bounds' hypothesis: no cycle shorter than 5 through x
DIM = 2.0        # the dimension n at which the paper states both bounds

logger = logging.getLogger(__name__)


class PreconditionFailedError(ValueError):
    """The vertex does not satisfy the girth precondition."""


@dataclass(frozen=True)
class VertexReport:
    """Per-vertex record; None marks a theorem that was not run, or a gated-out vertex."""

    vertex: int
    girth: GirthValue
    cd_bound: float | None
    cd_computed: float | None
    cd_margin: float | None
    cde_bound: float | None
    cde_sampled_min: float | None
    cde_margin: float | None
    verdict: str                      # pass | fail | precondition_not_met
    seed: int | None
    witness: VertexFunction | None    # attached only on fail, re-verified


@dataclass(frozen=True)
class CurvatureReport:
    records: tuple[VertexReport, ...]

    def count(self, verdict: str) -> int:
        return sum(1 for r in self.records if r.verdict == verdict)

    @property
    def has_failures(self) -> bool:
        return any(r.verdict == "fail" for r in self.records)

    @property
    def all_precondition_not_met(self) -> bool:
        return all(r.verdict == "precondition_not_met" for r in self.records)


def cd_bound_girth5(g: Graph, x: int) -> float:
    """min over neighbors y of (2 - d_y)/d_y."""
    _check_vertex(g, x)
    return min((2.0 - g.degree(y)) / g.degree(y) for y in g.adjacency[x])


def _cd_bounds(g: Graph) -> list[float]:
    """``cd_bound_girth5`` at every vertex, bit for bit, from the CSR rows."""
    dy = g.degrees[g.indices]
    return np.minimum.reduceat((2.0 - dy) / dy, g.indptr[:-1]).tolist()


def cd_witness_value(g: Graph, x: int, i: int) -> float:
    """The CD ratio (G_2(f) - (1/n)(Df)^2)(x) / G(f)(x) at n = DIM of the
    paper's extremal construction at the i-th neighbor y_i of x: f(x) = 0,
    f(y_i) = 1, f = 2 on the other neighbors of y_i and 0 elsewhere.

    Evaluated with the definitional operators. It equals -(k_i - 2)/k_i,
    the CD bound's term of y_i, k_i = d_{y_i}, when the girth at x is >= 5
    (the distance-2 assignment f(z) = 2 f(y_i) minimizes the form).
    """
    if vertex_girth(g, x) < GIRTH_GATE:
        raise PreconditionFailedError(f"girth at vertex {x} is below {GIRTH_GATE}")
    nbrs = g.adjacency[x]
    if not 0 <= i < len(nbrs):
        raise ValueError(f"neighbor index {i} out of range 0..{len(nbrs) - 1}")
    y = nbrs[i]
    f = np.zeros(g.vertex_count)
    f[list(g.adjacency[y])] = 2.0
    f[x], f[y] = 0.0, 1.0
    lap = laplacian(g, f, x)
    return float((gamma2(g, f, x) - lap * lap / DIM) / gamma(g, f, f, x))


def verify_theorems(
    g: Graph,
    theorem: str = "both",
    samples: int = 10000,
    seed: int = 0,
) -> CurvatureReport:
    """Verify the selected bound(s) at every vertex of g, at n = DIM.

    At a gated vertex the 2-ball is a tree, and ``cd_curvatures`` computes
    K(x, 2) in closed form, as min_i (2 - k_i)/k_i written as the bound
    writes it: the CD check there confirms that derivation, not an
    independent computation, and its margin is 0.0, so it cannot fail.
    The derivation is checked against the dense Schur-complement route by
    the tests, not at run time.
    """
    if theorem not in ("cd", "cde", "both"):
        raise ValueError(f"theorem must be cd, cde or both, got {theorem!r}")
    girths = all_vertex_girths(g)
    gated = [x for x, girth in enumerate(girths) if girth >= GIRTH_GATE]
    # name -> (bound per vertex, (value, result) per gated vertex, re-check);
    # a result's function is built only where its margin is negative
    runs = {}
    if theorem != "cde":
        cd = cd_curvatures(g, gated, DIM)
        runs["cd"] = _cd_bounds(g), ((r.curvature_K, r) for r in cd), cd_check
    if theorem != "cd":
        cde = cde_estimates(g, gated, DIM, samples, seed)
        runs["cde"] = (-g.degrees / 2 - 1.0).tolist(), ((e.sampled_min, e) for e in cde), cde_check

    records = []
    for x, girth_here in enumerate(girths):
        # name -> (bound, computed value, margin); all None when not run
        results = {"cd": (None,) * 3, "cde": (None,) * 3}
        witness: VertexFunction | None = None
        verdict = "precondition_not_met"
        if girth_here >= GIRTH_GATE:
            for name, (bounds, computed, check) in runs.items():
                bound, (value, result) = bounds[x], next(computed)
                margin = value - bound
                if margin < -MARGIN_TOL:
                    if not check(g, x, DIM, bound, result.function):
                        witness = result.function
                    else:
                        logger.warning("vertex %d: %s margin %.3e did not re-verify as a violation",
                                       x, name, margin)
                elif margin < 0:
                    logger.info("vertex %d: tight %s margin %.3e", x, name, margin)
                results[name] = (bound, value, margin)
            verdict = "pass" if witness is None else "fail"
        records.append(VertexReport(x, girth_here, *results["cd"], *results["cde"], verdict,
                                    seed if "cde" in runs else None, witness))
    return CurvatureReport(records=tuple(records))
