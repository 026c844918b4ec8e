"""In-memory span tracer for the traced benchmark run.

Wrappers are installed from here, around the calls into each curvkit
module, without touching the package's source. Each name is patched in the
module that looks it up, because ``from ... import`` binds a name per
module: ``verify_theorems`` is called through ``curvkit.cli``,
``vertex_girth`` through ``curvkit.verify``, ``schur_minimize`` through
``curvkit.cd``, and so on. A name that no longer exists (a private helper
renamed or removed by a later commit) is skipped, and the metrics built on
it are reported missing instead of crashing the run.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

ROOT_SPAN = "cli"   # one per cli.main call, opened by the benchmark itself

Describe = Callable[[tuple, dict, Any], dict[str, Any]]


def _vertex(args, kwargs, result):
    return {"vertex": args[1]}


def _cde(args, kwargs, result):
    return {"vertex": args[1], "samples": result.samples_used}


def _eliminated(args, kwargs, result):
    return {"eliminated": len(args[0]) - len(args[1])}


def _width(args, kwargs, result):
    return {"width": result.width}


def _size_in(args, kwargs, result):
    return {"size": len(args[1])}


def _size_out(args, kwargs, result):
    return {"size": len(result)}


# (module, name looked up there, span name, span attributes from the call)
WRAPS: tuple[tuple[str, str, str, Describe | None], ...] = (
    ("curvkit.cli", "parse_edge_list", "graph.parse", None),
    ("curvkit.cli", "verify_theorems", "verify", None),
    ("curvkit.cli", "report_document", "report.document", None),
    ("curvkit.cli", "dumps", "report.dumps", None),
    ("curvkit.verify", "vertex_girth", "girth", _vertex),
    ("curvkit.verify", "cd_curvature", "cd", _vertex),
    ("curvkit.cd", "assemble_cd_forms", "cd.assemble", None),
    ("curvkit.cd", "schur_minimize", "spectra.schur", _eliminated),
    ("curvkit.cd", "schur_minimizer", "spectra.minimizer", None),
    ("curvkit.cd", "smallest_eigenvalue", "spectra.eig", None),
    ("curvkit.verify", "cde_estimate", "cde", _cde),
    ("curvkit.cde", "LocalEvaluator", "localforms.init", _width),
    ("curvkit.cde", "counter_uniforms", "rng.uniforms", _size_out),
    ("curvkit.cde", "_batch_ratios", "cde.ratio", _size_in),
    ("curvkit.cde", "_structured_rows", "cde.structured", _size_out),
    ("curvkit.cde", "_descend", "cde.descend", _size_in),
)


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Span | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def root(self) -> Span:
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """Records nested spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._open: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._begin(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._end(span)

    def _wrap(self, original, name: str, describe: Describe | None):
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            span = begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                end(span)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, describe in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, describe))
            self._patches.append((module, attr, original))
            self.installed.add(name)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed_wrappers(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> dict[Span, float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children never overlap and their
    durations add up to the part of the parent they cover.
    """
    covered = {span: 0.0 for span in spans}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span: span.duration - covered[span] for span in spans}


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys on xs (0 when xs take a single value)."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(
    spans: list[Span], installed: set[str]
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and the names left missing.

    A metric is missing when a span it needs had no wrapper (the wrapped
    name is gone) or a span lacks an attribute it needs. Layers a workload
    never calls read 0.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    own = self_times(spans)

    def total(*names: str) -> float:
        return sum(s.duration for name in names for s in by_name[name])

    def own_total(name: str) -> float:
        return sum(own[s] for s in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs[key] for s in by_name[name])

    def attr_max(name: str, key: str) -> float:
        return max((s.attrs[key] for s in by_name[name]), default=0)

    def girth_scaling() -> float:
        # slope of log(girth seconds per file) on log(vertices per file);
        # on `ladder` this is log(t_3000 / t_1000) / log 3
        per_file: dict[Span, float] = defaultdict(float)
        for s in by_name["girth"]:
            per_file[s.root] += s.duration
        points = [(r.attrs["vertices"], t) for r, t in per_file.items() if t > 0]
        if len(points) < 2:
            return 0.0
        return _slope([math.log(n) for n, _ in points], [math.log(t) for _, t in points])

    def accept_ratio() -> float:
        # accepted samples / proposed rows; proposed rows are the draws made
        # directly by cde_estimate divided by the row width (non-centre
        # coordinates of its 2-ball)
        accepted = proposed = 0.0
        children: dict[Span, list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent is not None and s.parent.name == "cde":
                children[s.parent].append(s)
        for cde_span in by_name["cde"]:
            kids = children[cde_span]
            (width,) = [k.attrs["width"] for k in kids if k.name == "localforms.init"]
            drawn = sum(k.attrs["size"] for k in kids if k.name == "rng.uniforms")
            accepted += cde_span.attrs["samples"]
            proposed += drawn / (width - 1)
        return accepted / proposed if proposed else 0.0

    def vertex_ms() -> list[float]:
        per_vertex: dict[tuple[Span, int], float] = defaultdict(float)
        for name in ("girth", "cd", "cde"):
            for s in by_name[name]:
                per_vertex[(s.root, s.attrs["vertex"])] += s.duration
        return sorted(1e3 * t for t in per_vertex.values()) or [0.0]

    table: dict[str, tuple[tuple[str, ...], Callable[[], float]]] = {
        "girth.s": (("girth",), lambda: total("girth")),
        "girth.calls": (("girth",), lambda: len(by_name["girth"])),
        "girth.scaling_exp": (("girth",), girth_scaling),
        "spectra.schur_s": (("spectra.schur",), lambda: total("spectra.schur")),
        "spectra.minimizer_s": (("spectra.minimizer",), lambda: total("spectra.minimizer")),
        "spectra.eig_s": (("spectra.eig",), lambda: total("spectra.eig")),
        "spectra.elim_dim_max": (
            ("spectra.schur",), lambda: attr_max("spectra.schur", "eliminated")
        ),
        "cd.s": (("cd",), lambda: total("cd")),
        "cd.assemble_s": (("cd.assemble",), lambda: total("cd.assemble")),
        "cd.calls": (("cd",), lambda: len(by_name["cd"])),
        "cde.s": (("cde",), lambda: total("cde")),
        "cde.sample_s": (
            ("cde", "localforms.init", "rng.uniforms", "cde.ratio", "cde.structured",
             "cde.descend"),
            lambda: own_total("cde"),
        ),
        "cde.accept_ratio": (("cde", "localforms.init", "rng.uniforms"), accept_ratio),
        "rng.uniforms_s": (("rng.uniforms",), lambda: total("rng.uniforms")),
        "rng.uniforms_drawn": (("rng.uniforms",), lambda: attr_sum("rng.uniforms", "size")),
        "cde.descend_s": (("cde.descend",), lambda: total("cde.descend")),
        "cde.descend_starts": (("cde.descend",), lambda: attr_sum("cde.descend", "size")),
        "cde.ratio_s": (("cde.ratio",), lambda: total("cde.ratio")),
        "cde.ratio_rows": (("cde.ratio",), lambda: attr_sum("cde.ratio", "size")),
        "cde.structured_s": (("cde.structured",), lambda: total("cde.structured")),
        "cde.structured_rows": (
            ("cde.structured",), lambda: attr_sum("cde.structured", "size")
        ),
        "localforms.init_s": (("localforms.init",), lambda: total("localforms.init")),
        "localforms.width_max": (
            ("localforms.init",), lambda: attr_max("localforms.init", "width")
        ),
        "verify.self_s": (
            ("verify", "girth", "cd", "cde"), lambda: own_total("verify")
        ),
        "verify.vertex_ms_p50": (
            ("girth", "cd", "cde"), lambda: statistics.median(vertex_ms())
        ),
        "verify.vertex_ms_max": (("girth", "cd", "cde"), lambda: vertex_ms()[-1]),
        "graph.parse_s": (("graph.parse",), lambda: total("graph.parse")),
        "report.serialize_s": (
            ("report.document", "report.dumps"),
            lambda: total("report.document", "report.dumps"),
        ),
    }
    metrics: dict[str, float] = {}
    missing: list[str] = []
    for metric, (needs, compute) in table.items():
        if not installed.issuperset(needs):
            missing.append(metric)
            continue
        try:
            metrics[metric] = float(compute())
        except (KeyError, ValueError):   # a span lacks an attribute it should carry
            missing.append(metric)
    return metrics, missing
