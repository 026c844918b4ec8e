"""Deterministic machine-readable report serialization.

Reports are written by the standard library's ``json`` (here) and ``csv``
(in the CLI) writers. JSON output is byte-identical across runs for
identical inputs: keys keep a fixed construction order, floats are written
in Python's shortest round-trip form (``repr``, so parsed values reproduce
the computed doubles exactly), a non-finite float is an error, and infinite
girth is written as the string "inf" (JSON has no Infinity literal). A JSON
Schema for the verification report ships with the package
(report.schema.json).
"""

from __future__ import annotations

import json
import math
from importlib import resources
from typing import Any

from .graph import Graph
from .verify import DIM, CurvatureReport, VertexReport


def dumps(obj: Any) -> str:
    """Serialize dict/list/str/bool/int/float/None to deterministic JSON."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def girth_json(value: float) -> int | str:
    return "inf" if math.isinf(value) else int(value)


def record_to_dict(record: VertexReport) -> dict[str, Any]:
    """The record's fields in declaration order, girth through ``girth_json``,
    then ``dim``; ``witness`` (its values) only on a fail."""
    out = vars(record).copy()
    witness = out.pop("witness")
    out["girth"] = girth_json(record.girth)
    out["dim"] = DIM
    if witness is not None:
        out["witness"] = witness.values.tolist()
    return out


def report_document(
    g: Graph, report: CurvatureReport, params: dict[str, Any]
) -> dict[str, Any]:
    """Envelope for a verification report (validates against the schema)."""
    return {
        "graph": {"vertices": g.vertex_count, "edges": g.edge_count},
        "params": params,
        "records": [record_to_dict(r) for r in report.records],
        "summary": {v: report.count(v) for v in ("pass", "fail", "precondition_not_met")},
    }


def load_schema() -> dict[str, Any]:
    """The published JSON Schema for verification reports."""
    text = resources.files("curvkit").joinpath("report.schema.json").read_text()
    return json.loads(text)
