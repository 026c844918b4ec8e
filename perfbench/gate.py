"""Correctness gate applied to every ``verify`` invocation of a run.

An invocation passes when it exits 0, its report validates against the
published schema, no vertex has a ``fail`` verdict, and every gated vertex
has |cd_margin| <= 1e-8: at dim 2 and girth >= 5 the CD bound is attained,
so the computed curvature must equal it up to float noise. Later passes of
a run must reproduce the first report byte for byte (``Ledger``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import jsonschema

CD_MARGIN_TOL = 1e-8
EXPECTED_EXIT = 0
_REPORTED_ERRORS = 3


def validator(schema_path: Path) -> jsonschema.Draft7Validator:
    return jsonschema.Draft7Validator(json.loads(schema_path.read_text()))


def _gated(record: dict[str, Any]) -> bool:
    return record["verdict"] != "precondition_not_met"


def check(
    exit_code: int | None, report: bytes, schema: jsonschema.Draft7Validator
) -> tuple[dict[str, Any] | None, list[str]]:
    """Parsed report (None if unusable) and the problems found in it."""
    problems = []
    if exit_code != EXPECTED_EXIT:
        problems.append(f"exit code {exit_code}, expected {EXPECTED_EXIT}")
    try:
        doc = json.loads(report)
    except ValueError as exc:
        return None, problems + [f"report is not JSON: {exc}"]
    errors = list(schema.iter_errors(doc))
    if errors:
        problems += [f"schema: {e.message}" for e in errors[:_REPORTED_ERRORS]]
        return None, problems
    for record in doc["records"]:
        vertex = record["vertex"]
        if record["verdict"] == "fail":
            problems.append(f"vertex {vertex}: fail verdict")
        margin = record["cd_margin"]
        if _gated(record) and margin is not None and not abs(margin) <= CD_MARGIN_TOL:
            problems.append(f"vertex {vertex}: |cd_margin| = {abs(margin):.3e} > {CD_MARGIN_TOL}")
    return doc, problems


def cde_excesses(doc: dict[str, Any]) -> list[float]:
    """cde_sampled_min - cde_bound over the gated vertices where CDE ran."""
    return [
        r["cde_sampled_min"] - r["cde_bound"]
        for r in doc["records"]
        if _gated(r) and r["cde_sampled_min"] is not None
    ]


class Ledger:
    """Gate verdicts of every invocation in one benchmark run.

    The first report of each case is checked in full; later passes must
    reproduce its exit code and bytes exactly and inherit its verdict.
    """

    def __init__(self, schema: jsonschema.Draft7Validator):
        self.schema = schema
        self.attempted = 0
        self.failures: list[tuple[str, list[str], str]] = []
        self.excesses: dict[str, list[float]] = {}
        self._first: dict[str, tuple[int | None, bytes, list[str]]] = {}

    def record(self, label: str, exit_code: int | None, report: bytes, stderr: str) -> None:
        self.attempted += 1
        first = self._first.get(label)
        if first is None:
            doc, problems = check(exit_code, report, self.schema)
            self._first[label] = (exit_code, report, problems)
            if doc is not None:
                self.excesses[label] = cde_excesses(doc)
        elif (exit_code, report) == first[:2]:
            problems = first[2]
        else:
            problems = ["exit code or report bytes differ from the first pass"]
        if problems:
            self.failures.append((label, problems, stderr))

    @property
    def failed(self) -> int:
        return len(self.failures)

    def cde_excesses(self) -> list[float]:
        return [e for values in self.excesses.values() for e in values]
