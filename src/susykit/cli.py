"""Command-line interface.

Subcommands cover the main library entry points: validating documents,
lifting colorings onto modular graphs, dual graphs of curve configurations,
strata enumeration, dimension formulas, evaluating morphisms to gluing
recipes, the operad axiom checker, and DOT export.  Exit codes: 0 success,
1 failed validation, failed check or closed stdout, 2 usage or malformed
input documents.
``enumerate`` writes each record straight from its canonical core.  A
command that needs the operad, curves or DOT export imports it when it
runs, so ``enumerate`` loads none of them.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from .canon import Core, certificate_digest
from .errors import SchemaError, SusyKitError, ValidationError
from .graphs import edges, tails
from .jsonio import (
    curve_from_json,
    dumps,
    graph_from_json,
    graph_to_json,
    load_curve,
    load_graph,
    load_morphism,
    morphism_from_json,
    recipe_to_json,
    _load,
    _write_strata,
)
from .lifting import enumerate_edge_colorings, lift_count_general, lift_tree_coloring
from .strata import (
    ContractionPoset,
    _edge_count,
    _ordered,
    _shapes,
    enumerate_strata_records,
    strata_poset,
)
from .susy import R, SusyGraph, genus

__all__ = ["main"]


def _labels(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _emit(
    args: argparse.Namespace,
    data: dict,
    table: Callable[[], list[str]],
    records: tuple[str, Sequence[Core], Sequence[str]] | None = None,
) -> None:
    """Write ``data`` as JSON, or the lines ``table()`` builds on demand.
    ``records``, a key with the canonical cores and certificates of a
    strata document, are written under that key after ``data``, one
    stratum at a time."""
    if args.format == "table":
        sys.stdout.write("\n".join(table()) + "\n")
    elif records is None:
        sys.stdout.write(dumps(data))
    else:
        _write_strata(sys.stdout.write, data, *records)


def _graph_summary(g: SusyGraph) -> list[str]:
    tail_list = tails(g.graph)
    edge_list = edges(g.graph)
    r_tails = sum(1 for f in tail_list if g.color_of(f) == R)
    r_edges = sum(1 for a, _ in edge_list if g.color_of(a) == R)
    return [
        f"vertices      {len(g.vertices)}",
        f"edges         {len(edge_list)} ({r_edges} R)",
        f"tails         {len(tail_list)} ({r_tails} R)",
        f"total genus   {genus(g)}",
        f"modular view  {'yes' if g.modular else 'no'}",
        f"stable        {'yes' if g.stability.stable else 'no'}",
        f"digest        {certificate_digest(g)}",
    ]


def _cmd_validate(args: argparse.Namespace) -> int:
    data = _load(args.file)
    kind = args.kind
    if kind == "auto":
        if isinstance(data, dict) and "components" in data:
            kind = "curve"
        elif isinstance(data, dict) and "flag_map" in data:
            kind = "morphism"
        else:
            kind = "graph"
    try:
        if kind == "graph":
            graph_from_json(data)
        elif kind == "morphism":
            morphism_from_json(data, base_dir=Path(args.file).parent)
        else:
            curve_from_json(data)
    except SchemaError:
        raise
    except SusyKitError as exc:
        print(f"invalid {kind}: {exc}", file=sys.stderr)
        return 1
    print(f"valid {kind}")
    return 0


def _cmd_lift(args: argparse.Namespace) -> int:
    g = load_graph(args.tree)
    ns, r = _labels(args.ns), _labels(args.r)
    if args.count:
        count = lift_count_general(g, ns, r)
        _emit(args, {"count": count}, lambda: [f"colorings     {count}"])
        return 0
    if args.enumerate:
        colorings = enumerate_edge_colorings(g, ns, r)
        count = len(colorings)
        data = {
            "count": count,
            "colorings": [graph_to_json(c) for c in colorings],
        }
        _emit(
            args,
            data,
            lambda: [f"colorings     {count}"]
            + [
                f"  [{i}] digest {certificate_digest(c)}"
                for i, c in enumerate(colorings)
            ],
        )
        return 0
    lifted = lift_tree_coloring(g, ns, r)
    _emit(args, graph_to_json(lifted), lambda: _graph_summary(lifted))
    return 0


def _cmd_dual_graph(args: argparse.Namespace) -> int:
    from .curves import dual_graph
    g = dual_graph(load_curve(args.file))
    _emit(args, graph_to_json(g), lambda: _graph_summary(g))
    return 0


def _digest_lines(ranks: Sequence[int], digests: Sequence[str]) -> list[str]:
    return [
        f"  [{i}] edges {n} digest {d}" for i, (n, d) in enumerate(zip(ranks, digests))
    ]


def _cmd_enumerate(args: argparse.Namespace) -> int:
    enabled = gc.isenabled()
    gc.disable()  # the enumeration makes no reference cycle, so collecting frees nothing
    try:
        ns = [str(i) for i in range(1, args.ns + 1)]
        r = [str(i) for i in range(args.ns + 1, args.ns + args.r + 1)]
        if args.shapes:
            digests, _, cores, _, _ = zip(*_shapes(args.genus, ns + r, args.max_edges))
            _emit(
                args,
                {"count": len(cores)},
                lambda: [f"shapes        {len(cores)}"]
                + _digest_lines([_edge_count(c) for c in cores], digests),
                ("shapes", cores, digests),
            )
            return 0
        records = enumerate_strata_records(args.genus, ns, r, args.max_edges)
        poset = strata_poset(records) if args.poset else None
        if poset is None:
            cores, digests, ranks = _ordered(records)
        else:
            cores, digests, ranks = poset.cores, poset.digests, poset.ranks
        # the colouring tables and covers are not printed: free them first
        del records
        head: dict = {"count": len(cores)}
        if poset is not None:
            covers = {str(i): targets for i, targets in enumerate(poset.successors)}
            head["poset"] = {"ranks": list(ranks), "covers": covers}

        def table() -> list[str]:
            lines = [f"strata        {len(cores)}"] + _digest_lines(ranks, digests)
            if poset is not None:
                lines.append("covers:")
                for i, js in enumerate(poset.successors):
                    lines.extend(f"  S{i} -> S{j}" for j in js)
            return lines

        _emit(args, head, table, ("strata", cores, digests))
        return 0
    finally:
        if enabled:
            gc.enable()


def _cmd_dims(args: argparse.Namespace) -> int:
    from .operad import stratum_dimension
    g = load_graph(args.file)
    dim = stratum_dimension(g)
    data = {
        "even": dim.even,
        "odd": dim.odd,
        "codim": list(dim.codimension),
    }
    table = [
        f"even dimension  {dim.even}",
        f"odd dimension   {dim.odd}",
        f"codimension     ({dim.codimension[0]}, {dim.codimension[1]})",
    ]
    _emit(args, data, lambda: table)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .operad import _evaluate
    # load_morphism has checked the morphism
    h = load_morphism(args.file)
    rec = _evaluate(h)
    data = recipe_to_json(rec)
    table = [
        f"mode            {rec.source.mode}",
        f"source factors  {len(rec.source.factors)}",
        f"target factors  {len(rec.target.factors)}",
        f"NS gluings      {len(rec.ns_gluings)}",
        f"R gluings       {len(rec.r_gluings)}",
        f"ramond rank     {rec.ramond_fiber_rank}",
    ]
    _emit(args, data, lambda: table)
    return 0


def _cmd_check_axioms(args: argparse.Namespace) -> int:
    from .operad import check_operad_axioms
    report = check_operad_axioms(seed=args.seed, cases=args.cases)
    data = {
        "checked": dict(sorted(report.checked.items())),
        "failures": list(report.failures),
        "passed": report.passed,
    }
    table = [
        f"{name}  {count} instances"
        for name, count in sorted(report.checked.items())
    ]
    table.append("passed" if report.passed else "FAILED")
    table.extend(f"  {f}" for f in report.failures)
    _emit(args, data, lambda: table)
    return 0 if report.passed else 1


def _document_poset(strata: list[SusyGraph]) -> ContractionPoset:
    """The contraction poset of ``strata``, every stratum of one enumeration
    once each, in any order, numbered in that order.  The enumeration runs
    at the first stratum's genus and labels, up to the most edges a stratum
    of the list has, and each stratum is found in it by one search."""
    if not strata:
        return ContractionPoset((), (), (), ())
    g, ns, r = genus(strata[0]), strata[0].ns_labels(), strata[0].r_labels()
    reach = max(len(edges(s.graph)) for s in strata)
    deepest = 3 * g - 3 + len(ns) + len(r)  # the edges of the deepest stratum
    whole = "export-dot takes every stratum of one enumeration exactly once"
    if reach < deepest:
        raise ValidationError(f"{whole}, but none has the {deepest} edges of the deepest")
    poset = strata_poset(enumerate_strata_records(g, ns, r, reach))
    order = [poset.index_of(s) for s in strata]
    if sorted(order) != list(range(len(poset.ranks))):
        held = f"{len(order)} strata hold {len(set(order))} of its {len(poset.ranks)}"
        raise ValidationError(f"{whole}, but {held}")
    place = {i: k for k, i in enumerate(order)}
    return ContractionPoset(
        tuple(poset.cores[i] for i in order),
        tuple(poset.digests[i] for i in order),
        tuple(poset.ranks[i] for i in order),
        tuple(tuple(sorted(place[j] for j in poset.successors[i])) for i in order),
    )


def _cmd_export_dot(args: argparse.Namespace) -> int:
    from .dot import graph_to_dot, poset_to_dot
    data = _load(args.file)
    # strata documents render as a poset; single graphs as a picture
    records = data.get("strata") if isinstance(data, dict) else data
    if isinstance(data, (dict, list)) and records is not None:
        if not isinstance(records, list):
            raise SchemaError("strata must be a list of objects")
        strata = []
        for record in records:
            if not isinstance(record, dict):
                raise SchemaError("strata entries must be objects")
            record = {k: v for k, v in record.items() if k != "certificate"}
            strata.append(graph_from_json(record))
        sys.stdout.write(poset_to_dot(_document_poset(strata)))
        return 0
    sys.stdout.write(graph_to_dot(graph_from_json(data)))
    return 0


def _count(text: str) -> int:
    """A non-negative integer command-line argument."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer: {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susykit",
        description="SUSY graph calculus: validation, lifting, strata, gluing recipes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("json", "table"),
            default="json",
            help="output format (default: json)",
        )

    p = sub.add_parser("validate", help="validate a JSON document")
    p.add_argument("file")
    p.add_argument(
        "--kind",
        choices=("auto", "graph", "morphism", "curve"),
        default="auto",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("lift", help="color a modular graph's edges")
    p.add_argument("--tree", required=True, help="modular graph JSON file")
    p.add_argument("--ns", default="", help="comma-separated NS tail labels")
    p.add_argument("--r", default="", help="comma-separated R tail labels")
    p.add_argument("--enumerate", action="store_true", help="list every coloring")
    p.add_argument("--count", action="store_true", help="print only the count")
    add_format(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("dual-graph", help="dual graph of a curve configuration")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_dual_graph)

    p = sub.add_parser("enumerate", help="enumerate boundary strata")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--ns", type=_count, default=0, help="number of NS tail labels")
    p.add_argument("--r", type=_count, default=0, help="number of R tail labels")
    only = p.add_mutually_exclusive_group()
    only.add_argument("--poset", action="store_true", help="include contraction order")
    p.add_argument("--max-edges", type=int, default=None)
    only.add_argument(
        "--shapes", action="store_true", help="modular shapes only, no colorings"
    )
    add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("dims", help="stratum dimensions of a stable graph")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("evaluate", help="evaluate a morphism to a gluing recipe")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("check-axioms", help="run the operad axiom checker")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_count, default=100)
    add_format(p)
    p.set_defaults(func=_cmd_check_axioms)

    p = sub.add_parser("export-dot", help="render a graph or strata file as DOT")
    p.add_argument("file", help="graph JSON or strata JSON (list or enumerate output)")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout closed: "Note on SIGPIPE" in Python's signal docs
        with open(os.devnull, "w") as null:  # so that the flush at exit passes
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 1
    except OSError as exc:
        if exc.filename is None:  # not an input path
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SusyKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
