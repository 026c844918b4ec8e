"""Command-line interface.

Subcommands: girth, curvature-cd, curvature-cde, verify, gen.

Exit codes: 0 success (verify: no failing vertex), 1 a curvature bound was
violated (witness embedded in the JSON report), 2 input parse/validation
error, 3 every vertex failed the girth precondition, 4 the CDE search
found no candidate with a finite ratio at some vertex, 5 out of memory,
64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import logging
import sys
from math import isfinite
from pathlib import Path

from . import generators
from .cd import DIM_FLOOR, cd_curvatures
from .cde import NoFeasibleSampleError, cde_estimates
from .generators import BadParameterError
from .girth import all_vertex_girths
from .graph import Graph, GraphError, parse_edge_list, serialize_edge_list
from .report import dumps, girth_json, report_document
from .verify import DIM, verify_theorems

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NO_ELIGIBLE_VERTEX = 3
EXIT_NO_FEASIBLE_SAMPLE = 4
EXIT_OUT_OF_MEMORY = 5
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems instead of exiting 2."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="curvkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_girth = sub.add_parser("girth", help="graph girth, optionally per vertex")
    p_girth.add_argument("file", help="edge-list file")
    p_girth.add_argument("--per-vertex", action="store_true")
    p_girth.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_girth.set_defaults(handler=cmd_girth)

    p_cd = sub.add_parser("curvature-cd", help="pointwise curvature K(x, dim)")
    p_cd.add_argument("file")
    p_cd.add_argument("--dim", type=float, default=2.0)
    p_cd.add_argument("--vertex", type=int, default=None)
    p_cd.add_argument("--format", choices=["json", "csv"], default="json")
    p_cd.set_defaults(handler=cmd_curvature_cd)

    p_cde = sub.add_parser(
        "curvature-cde", help="sampled minima of the exponential-type ratio"
    )
    p_cde.add_argument("file")
    p_cde.add_argument("--dim", type=float, default=2.0)
    p_cde.add_argument("--samples", type=int, default=10000)
    p_cde.add_argument("--seed", type=int, default=0)
    p_cde.add_argument("--vertex", type=int, default=None)
    p_cde.add_argument("--format", choices=["json", "csv"], default="json")
    p_cde.set_defaults(handler=cmd_curvature_cde)

    p_verify = sub.add_parser("verify", help="verify the girth-5 curvature bounds")
    p_verify.add_argument("file")
    p_verify.add_argument("--theorem", choices=["cd", "cde", "both"], default="both")
    p_verify.add_argument("--samples", type=int, default=10000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=["json", "csv"], default="json")
    p_verify.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="log tight and not re-verified margins to stderr",
    )
    p_verify.set_defaults(handler=cmd_verify)

    p_gen = sub.add_parser("gen", help="write a generated graph as an edge list")
    p_gen.add_argument("family", choices=list(_GEN_FAMILIES))
    p_gen.add_argument("params", type=int, nargs="*")
    p_gen.add_argument("--min-girth", type=int, default=5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(handler=cmd_gen)
    return parser


def _load_graph(path: str) -> Graph:
    return parse_edge_list(Path(path).read_bytes())


def _check_dim(dim: float) -> None:
    if not (dim >= DIM_FLOOR and isfinite(dim)):
        raise UsageError(f"--dim must be finite and at least {DIM_FLOOR}, got {dim}")


def _vertices(g: Graph, vertex: int | None) -> range | list[int]:
    """Every vertex, or the one asked for; the library checks its range."""
    return range(g.vertex_count) if vertex is None else [vertex]


def _emit(fmt: str, doc: dict, records: list[dict]) -> None:
    """Write doc as JSON, or records as a table: csv with a header row of
    their keys, or text, space-separated values without one. A table
    leaves out the witness that failing verify records carry."""
    if fmt == "json":
        sys.stdout.write(dumps(doc))
        return
    fields = [k for k in records[0] if k != "witness"]
    table = csv.DictWriter(
        sys.stdout, fields, extrasaction="ignore", lineterminator="\n",
        delimiter="," if fmt == "csv" else " ",
    )
    if fmt == "csv":
        table.writeheader()
    table.writerows(records)


def cmd_girth(args) -> int:
    g = _load_graph(args.file)
    values = all_vertex_girths(g)
    doc = {"girth": girth_json(min(values))}
    if args.per_vertex:
        doc["per_vertex"] = [
            {"vertex": x, "girth": girth_json(v)} for x, v in enumerate(values)
        ]
    _emit(args.format, doc, doc.get("per_vertex", [doc]))
    return EXIT_OK


def cmd_curvature_cd(args) -> int:
    _check_dim(args.dim)
    g = _load_graph(args.file)
    records = [
        {"vertex": result.vertex, "dim": args.dim, "curvature": result.curvature_K}
        for result in cd_curvatures(g, _vertices(g, args.vertex), args.dim)
    ]
    _emit(args.format, {"dim": args.dim, "records": records}, records)
    return EXIT_OK


def cmd_curvature_cde(args) -> int:
    _check_dim(args.dim)
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    g = _load_graph(args.file)
    estimates = cde_estimates(g, _vertices(g, args.vertex), args.dim, args.samples, args.seed)
    records = [
        {
            "vertex": est.vertex,
            "dim": args.dim,
            "samples": est.samples_used,
            "seed": est.seed,
            "sampled_min": est.sampled_min,
        }
        for est in estimates
    ]
    doc = {"dim": args.dim, "samples": args.samples, "seed": args.seed, "records": records}
    _emit(args.format, doc, records)
    return EXIT_OK


@contextlib.contextmanager
def _log_to_stderr(enabled: bool):
    """Send curvkit logging at INFO and above to stderr inside the block."""
    if not enabled:
        yield
        return
    logger = logging.getLogger("curvkit")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    g = _load_graph(args.file)
    with _log_to_stderr(args.verbose):
        report = verify_theorems(g, theorem=args.theorem, samples=args.samples, seed=args.seed)
    run_cde = args.theorem in ("cde", "both")
    params = {
        "theorem": args.theorem,
        "dim": DIM,
        "samples": args.samples if run_cde else None,
        "seed": args.seed if run_cde else None,
    }
    doc = report_document(g, report, params)
    _emit(args.format, doc, doc["records"])
    if report.has_failures:
        return EXIT_VIOLATION
    if report.all_precondition_not_met:
        return EXIT_NO_ELIGIBLE_VERTEX
    return EXIT_OK


# family -> (parameter count, builder from the parsed arguments)
_GEN_FAMILIES = {
    "cycle": (1, lambda a: generators.cycle(*a.params)),
    "path": (1, lambda a: generators.path(*a.params)),
    "star": (1, lambda a: generators.star(*a.params)),
    "complete": (1, lambda a: generators.complete(*a.params)),
    "tree": (1, lambda a: generators.random_tree(*a.params, a.seed)),
    "petersen": (0, lambda a: generators.petersen()),
    "random-girth": (
        2, lambda a: generators.random_with_girth(*a.params, a.min_girth, a.seed)
    ),
}


def cmd_gen(args) -> int:
    count, build = _GEN_FAMILIES[args.family]
    if len(args.params) != count:
        raise UsageError(
            f"family {args.family!r} takes {count} parameter(s), got {len(args.params)}"
        )
    g = build(args)

    text = serialize_edge_list(g)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        return args.handler(args)
    except (UsageError, BadParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoFeasibleSampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE_SAMPLE
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
