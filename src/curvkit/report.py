"""Deterministic machine-readable report serialization.

JSON output is byte-identical across runs for identical inputs: keys keep
a fixed construction order, floats are written with 17 significant digits
(so parsed values round-trip exactly), and infinite girth is written as
the string "inf" (JSON has no Infinity literal). A JSON Schema for the
verification report ships with the package (report.schema.json).
"""

from __future__ import annotations

import json
import math
from importlib import resources
from typing import Any

from .graph import Graph
from .verify import CurvatureReport, VertexReport


def format_float(x: float) -> str:
    """17 significant digits; enough to reproduce the double exactly."""
    return "%.17g" % x


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize dict/list/str/bool/int/float/None to deterministic JSON."""
    pieces: list[str] = []
    _write(obj, pieces, indent, 0)
    pieces.append("\n")
    return "".join(pieces)


def _write(obj: Any, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj}")
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(pad)
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _write(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def girth_json(value: float) -> int | str:
    return "inf" if math.isinf(value) else int(value)


def record_to_dict(record: VertexReport) -> dict[str, Any]:
    out: dict[str, Any] = {
        "vertex": record.vertex,
        "girth": girth_json(record.girth),
        "cd_bound": record.cd_bound,
        "cd_computed": record.cd_computed,
        "cd_margin": record.cd_margin,
        "cde_bound": record.cde_bound,
        "cde_sampled_min": record.cde_sampled_min,
        "cde_margin": record.cde_margin,
        "verdict": record.verdict,
        "seed": record.seed,
        "dim": record.dim,
    }
    if record.witness is not None:
        out["witness"] = [float(v) for v in record.witness.values]
    return out


def report_document(
    g: Graph, report: CurvatureReport, params: dict[str, Any]
) -> dict[str, Any]:
    """Envelope for a verification report (validates against the schema)."""
    return {
        "graph": {"vertices": g.vertex_count, "edges": g.edge_count},
        "params": params,
        "records": [record_to_dict(r) for r in report.records],
        "summary": {
            verdict: report.count(verdict)
            for verdict in ("pass", "fail", "precondition_not_met")
        },
    }


def csv_rows(records: list[dict[str, Any]]) -> list[list[str]]:
    """Header (the first record's keys) plus one row of cells per record."""

    def cell(value: Any) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return format_float(value)
        return str(value)

    return [list(records[0])] + [[cell(v) for v in r.values()] for r in records]


def load_schema() -> dict[str, Any]:
    """The published JSON Schema for verification reports."""
    text = resources.files("curvkit").joinpath("report.schema.json").read_text()
    return json.loads(text)
