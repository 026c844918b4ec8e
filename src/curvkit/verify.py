"""End-to-end verification of the girth-5 curvature bounds.

For every vertex x whose girth gate passes (girth at x >= 5, infinite
girth included; the hypothesis under which the paper proves both bounds):

* CD bound: the computed pointwise curvature K(x, 2) must be at least
  min_i (2 - k_i)/k_i over the neighbor degrees k_i.
* CDE bound: the sampled minimum of the exponential-type ratio must be at
  least -d_x/2 - 1.

Vertices failing the gate are reported as precondition_not_met but their
numbers are still computed (informational). A margin below -1e-8 is only
reported as a failure after the candidate function re-verifies against a
from-scratch definitional evaluation; margins in (-1e-8, 0) are logged as
tight.

The paper states both bounds at dimension n = 2, and both are checked
there only: both curvatures only grow with n, so a larger n is implied.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import inf
from operator import attrgetter

# cd_curvature and cde_estimate are no longer called here, but stay
# importable under this module's name, which perfbench/tracer.py wraps:
# without them a traced run reports verify.self_s, verify.vertex_ms_p50
# and verify.vertex_ms_max (and the cd and cde metrics) as missing
from .cd import cd_check, cd_curvature, cd_curvatures  # noqa: F401
from .cde import cde_check, cde_estimate, cde_estimates  # noqa: F401
from .girth import GirthValue, on_cycle, vertex_girth
from .graph import Graph, VertexFunction, _check_vertex

MARGIN_TOL = 1e-8
GIRTH_GATE = 5   # the bounds' hypothesis: no cycle shorter than 5 through x
DIM = 2.0        # the dimension n at which the paper states both bounds

logger = logging.getLogger(__name__)


class PreconditionFailedError(ValueError):
    """The vertex does not satisfy the girth precondition."""


@dataclass(frozen=True)
class VertexReport:
    """Per-vertex verification record; None marks a theorem that was not run."""

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


def cd_witness_value(g: Graph, x: int, i: int) -> float:
    """Per-neighbor block value of the extremal construction.

    With f(x) = 0, f(y_i) = 1, f = 2 on the other neighbors of y_i and 0
    elsewhere, returns

        (1/k_i) * sum_{z ~ y_i} [ (f(z) - f(y_i))^2 - f(z)^2 / 2 ]

    which equals -(k_i - 2)/k_i exactly when the girth at x is >= 5 (the
    distance-2 assignment f(z) = 2 f(y_i) minimizes the block).
    """
    _check_vertex(g, x)
    if vertex_girth(g, x) < GIRTH_GATE:
        raise PreconditionFailedError(f"girth at vertex {x} is below {GIRTH_GATE}")
    nbrs = g.adjacency[x]
    if not 0 <= i < len(nbrs):
        raise ValueError(f"neighbor index {i} out of range 0..{len(nbrs) - 1}")
    y = nbrs[i]
    k = g.degree(y)
    f = {v: 0.0 for v in (x,) + g.adjacency[y]}
    f[y] = 1.0
    for z in g.adjacency[y]:
        if z != x:
            f[z] = 2.0
    acc = 0.0
    for z in g.adjacency[y]:
        diff = f[z] - f[y]
        acc += diff * diff - 0.5 * f[z] * f[z]
    return acc / k


def _run_cd(g: Graph, samples: int, seed: int):
    for result in cd_curvatures(g, range(g.vertex_count), DIM):
        bound = cd_bound_girth5(g, result.vertex)
        yield bound, result.curvature_K, result


def _run_cde(g: Graph, samples: int, seed: int):
    for estimate in cde_estimates(g, range(g.vertex_count), DIM, samples, seed):
        bound = -g.degree(estimate.vertex) / 2.0 - 1.0
        yield bound, estimate.sampled_min, estimate


# (name, yields (bound, value, result) per vertex in order, the result's
# candidate function, re-verifies a candidate); a candidate is built only
# where its margin is negative
_THEOREMS = (
    ("cd", _run_cd, attrgetter("minimizing_function"), cd_check),
    ("cde", _run_cde, attrgetter("function"), cde_check),
)


def verify_theorems(
    g: Graph,
    theorem: str = "both",
    samples: int = 10000,
    seed: int = 0,
) -> CurvatureReport:
    """Verify the selected bound(s) at every vertex of g, at n = DIM."""
    if theorem not in ("cd", "cde", "both"):
        raise ValueError(f"theorem must be cd, cde or both, got {theorem!r}")
    selected = ("cd", "cde") if theorem == "both" else (theorem,)
    # searched through this module's name so tracing can wrap each search
    cyclic = on_cycle(g)
    girths = [vertex_girth(g, x) if cyclic[x] else inf for x in range(g.vertex_count)]
    computed = {
        name: compute(g, samples, seed)
        for name, compute, _, _ in _THEOREMS
        if name in selected
    }

    records = []
    for x, girth_here in enumerate(girths):
        gate = girth_here >= GIRTH_GATE

        # name -> (bound, computed value, margin); all None when not run
        results = {}
        witness: VertexFunction | None = None
        for name, _, candidate_of, check in _THEOREMS:
            if name not in selected:
                results[name] = (None, None, None)
                continue
            bound, value, result = next(computed[name])
            margin = value - bound
            if gate and margin < -MARGIN_TOL:
                candidate = candidate_of(result)
                if not check(g, x, DIM, bound, candidate):
                    witness = candidate
                else:
                    logger.warning(
                        "vertex %d: %s margin %.3e did not re-verify as a violation",
                        x,
                        name,
                        margin,
                    )
            elif gate and margin < 0:
                logger.info("vertex %d: tight %s margin %.3e", x, name, margin)
            results[name] = (bound, value, margin)

        verdict = ("pass" if witness is None else "fail") if gate else "precondition_not_met"
        cd_bound, cd_computed, cd_margin = results["cd"]
        cde_bound, cde_sampled, cde_margin = results["cde"]
        records.append(
            VertexReport(
                vertex=x,
                girth=girth_here,
                cd_bound=cd_bound,
                cd_computed=cd_computed,
                cd_margin=cd_margin,
                cde_bound=cde_bound,
                cde_sampled_min=cde_sampled,
                cde_margin=cde_margin,
                verdict=verdict,
                seed=seed if "cde" in selected else None,
                witness=witness,
            )
        )
    return CurvatureReport(records=tuple(records))

