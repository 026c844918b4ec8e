"""Deterministic machine-readable report serialization.

Reports are written by the standard library's ``json`` (here) and ``csv``
(in the CLI) writers. JSON output is byte-identical across runs for
identical inputs: keys keep a fixed construction order, floats are written
in Python's shortest round-trip form (``repr``, so parsed values reproduce
the computed doubles exactly), a non-finite float is an error, and infinite
girth is written as the string "inf" (JSON has no Infinity literal). A JSON
Schema for the verification report ships with the package
(report.schema.json).

``dumps`` writes the bytes of ``json.dumps(obj, indent=2)``, but through
the C encoder, which ``json`` uses only without an indent: a container of
scalars is one encoder call whose item separator carries the line break
and indentation, and so is a list of such dicts (a report's records), its
record boundaries re-indented after. The encoder escapes every line break
inside a string, so each one in its output is a separator. A container
holding another container is written item by item.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from itertools import chain
from typing import Any

from .graph import Graph
from .verify import DIM, CurvatureReport, VertexReport


def dumps(obj: Any) -> str:
    """Serialize dict/list/str/bool/int/float/None to deterministic JSON:
    ``json.dumps(obj, indent=2, allow_nan=False) + "\\n"``, byte for byte."""
    # pieces joined once: each intermediate copy of a large report is
    # memory the allocator tends to keep
    out: list[str] = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(obj: Any, indent: str, out: list[str]) -> None:
    """Append obj as ``json.dumps(indent=2)`` writes it where the line
    break and indentation before its closing bracket are indent."""
    if not (obj and isinstance(obj, (dict, list, tuple))):
        out.append(_flat(obj))
        return
    inner = indent + "  "
    is_dict = isinstance(obj, dict)
    opening, closing = "{}" if is_dict else "[]"
    out += (opening, inner)
    if not _nests(obj.values() if is_dict else obj):
        out.append(_flat(obj, inner)[1:-1])
    elif is_dict:
        for i, (k, v) in enumerate(obj.items()):
            # the key as the encoder writes it, from a one-item dict
            out.append(("," + inner if i else "") + _flat({k: 0})[1:-4] + ": ")
            _encode(v, inner, out)
    elif all(isinstance(r, dict) and r for r in obj) and not _nests(
        chain.from_iterable(map(dict.values, obj))
    ):
        # the records' fields and the records share one separator; a
        # record's fields follow it with a key, the next record with "{"
        field = inner + "  "
        records = _flat(obj, field)[2:-2].replace(
            "}," + field + "{", inner + "}," + inner + "{" + field
        )
        out += ("{", field, records, inner, "}")
    else:
        for i, v in enumerate(obj):
            if i:
                out.append("," + inner)
            _encode(v, inner, out)
    out += (indent, closing)


def _flat(obj: Any, inner: str = " ") -> str:
    """obj by the C encoder, items separated by "," and inner."""
    return json.dumps(obj, separators=("," + inner, ": "), allow_nan=False)


def _nests(values) -> bool:
    """Is any of these values a dict, list or tuple (empty or not)?"""
    return any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values)))


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
