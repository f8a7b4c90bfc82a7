"""Strict JSON serialization for graphs, morphisms and curve configurations.

Schemas are closed: unknown keys are rejected, as are missing keys and
mistyped values, with a SchemaError naming the offender.  Deserialized
objects are structurally validated before they are returned, so a loaded
graph is always a valid graph.

Graph documents:

    {"modular": false,
     "vertices": [{"id": "v", "genus": 1}, ...],
     "flags": [{"id": "a", "vertex": "v", "color": "NS"}, ...],
     "edges": [["a", "b"], ...],
     "ns_labels": {"x": "a", ...},
     "r_labels": {"y": "b", ...}}

Flags not mentioned in "edges" are tails.  Morphism documents hold "source"
and "target" (inline graph documents, or strings naming graph files resolved
relative to the morphism file), "flag_map", "vertex_map" and a "contracted"
pair list.  Curve documents hold "components" and "node_pairing"; puncture
points carry a "label", node-halves must not.

Every document is rendered by ``dumps``: ``json.dumps`` with sorted keys
and a two-space indent, plus a newline.  The strata document that
``susykit enumerate`` prints can hold tens of thousands of strata, so
``_write_strata`` writes it in chunks with the same bytes, as text and not
through ``dumps``, whose indent falls back to the pure-Python encoder: its
head (``count`` and the ``poset``), then each stratum's record as soon as
its text is built from the stratum's canonical core, with no graph or dict
in between.  A printed stratum is canonical, named ``v0…`` and ``f0…`` as
``canon._named`` names it.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from .canon import COLORS, Core, _name_order, _names
from .errors import SchemaError
from .graphs import edges as graph_edges
from .susy import (
    SusyGraph,
    SusyLabeling,
    SusyMorphism,
    susy_morphism,
    validate_susy_graph,
    validate_susy_morphism,
)
from .graphs import Graph

if TYPE_CHECKING:
    from .curves import CurveConfig
    from .operad import GluingRecipe, ModuliSignature

__all__ = [
    "curve_from_json",
    "curve_to_json",
    "dumps",
    "graph_from_json",
    "graph_to_json",
    "load_curve",
    "load_graph",
    "load_morphism",
    "morphism_from_json",
    "morphism_to_json",
    "recipe_to_json",
    "save_graph",
    "signature_to_json",
]


def dumps(data: Any) -> str:
    """``data`` as every document is written: ``json.dumps`` with sorted
    keys and a two-space indent, plus a newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _write_strata(
    write: Callable[[str], object],
    head: dict,
    key: str,
    cores: Sequence[Core],
    digests: Sequence[str],
) -> None:
    """Write ``dumps(head | {key: records})``, where record i is
    ``graph_to_json(canon._named(cores[i]))`` plus ``"certificate":
    digests[i]``, ``head`` is not empty and ``key`` sorts after its keys:
    the head in one chunk, then each record in one chunk once its text is built, then
    the close, so that no list of records is held."""
    write(_head_text(head, "")[:-2] + ",\n  " + _quote(key) + ": [")
    sep = "\n    "
    for c, d in zip(cores, digests):
        write(sep + _stratum_text(c, d))
        sep = ",\n    "
    write("]\n}\n" if sep == "\n    " else "\n  ]\n}\n")


def _head_text(value: Any, pad: str) -> str:
    """``value``, a scalar, a list of ints or a dict of these by string key,
    as ``dumps`` writes it at the indent ``pad``."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        entries = [_quote(k) + ": " + _head_text(value[k], inner) for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(entries) + "\n" + pad + "}"
    return "[\n" + inner + (",\n" + inner).join(map(str, value)) + "\n" + pad + "]"


# the text of a printed record and of its entries, at the indent of an item
# of the document's list of strata
_RECORD = (
    '{\n      "certificate": %s,\n      "edges": %s,\n      "flags": %s,'
    '\n      "modular": %s,\n      "ns_labels": %s,\n      "r_labels": %s,'
    '\n      "vertices": %s\n    }'
)
_VERTEX = '{\n          "genus": %d,\n          "id": "v%d"\n        }'
_FLAG = '{\n          "color": "%s",\n          "id": "f%d",\n          "vertex": "v%d"\n        }'
_EDGE = '[\n          "f%d",\n          "f%d"\n        ]'
# each entry's text, formatted once per tuple of values, as ``_edge((f, p))``
_vertex, _flag, _edge = (cache(text.__mod__) for text in (_VERTEX, _FLAG, _EDGE))


def _flags_text(b: tuple[int, ...], color: Sequence[int]) -> str:
    """A record's flag block: flag f at vertex ``b[f]``, in ``color[f]``."""
    return _listed([_flag((COLORS[color[f]], f, b[f])) for f in _name_order(len(b))], "[]")


# the vertex block, written once per tuple of genera, and an all-NS flag
# block, once per boundary, which ``canon._runs`` shares per degree sequence
_vertices_text = cache(lambda g: _listed([_vertex((g[v], v)) for v in _name_order(len(g))], "[]"))
_ns_flags_text = cache(lambda b: _flags_text(b, [0] * len(b)))


def _stratum_text(c: Core, certificate: str) -> str:
    """The text of the record of the canonical core ``c``, its entries in
    the sorted order of their names ("f10" before "f2")."""
    genus, b, j, color, label, modular, _ = c
    fn, flags = _names("f", len(b)), _name_order(len(b))
    labels: tuple[list[str], list[str]] = ([], [])
    for l, k, f in sorted((l, color[f], fn[f]) for f, l in enumerate(label) if l is not None):
        labels[k].append(_quote(l) + ': "' + f + '"')
    return _RECORD % (
        _quote(certificate),
        _listed([_edge((f, j[f])) for f in flags if fn[f] < fn[j[f]]], "[]"),
        _flags_text(b, color) if 1 in color else _ns_flags_text(b),
        "true" if modular else "false",
        _listed(labels[0], "{}"),
        _listed(labels[1], "{}"),
        _vertices_text(genus),
    )


def _listed(entries: list[str], brackets: str) -> str:
    """``entries``, the text of a record's list or object items, bracketed."""
    if not entries:
        return brackets
    return brackets[0] + "\n        " + ",\n        ".join(entries) + "\n      " + brackets[1]


def _kind_ok(value: Any, kind) -> bool:
    # bool is an int subclass; keep the two apart in schemas.
    if kind is int and isinstance(value, bool):
        return False
    if kind is bool:
        return isinstance(value, bool)
    return isinstance(value, kind)


def _kind_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(k.__name__ for k in kind)
    return kind.__name__


def _check_keys(obj: Any, what: str, required: dict, optional: dict | None = None) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(obj).__name__}")
    optional = optional or {}
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{what} has unknown key {key!r}")
    for key, kind in required.items():
        if key not in obj:
            raise SchemaError(f"{what} is missing key {key!r}")
        if not _kind_ok(obj[key], kind):
            raise SchemaError(
                f"{what}.{key} must be {_kind_name(kind)}, "
                f"got {type(obj[key]).__name__}"
            )
    for key, kind in optional.items():
        if key in obj and not _kind_ok(obj[key], kind):
            raise SchemaError(
                f"{what}.{key} must be {_kind_name(kind)}, "
                f"got {type(obj[key]).__name__}"
            )


def _str_dict(obj: Any, what: str) -> dict[str, str]:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object")
    for k, v in obj.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise SchemaError(f"{what} must map strings to strings")
    return dict(obj)


def _pair_list(obj: Any, what: str) -> list[tuple[str, str]]:
    if not isinstance(obj, list):
        raise SchemaError(f"{what} must be a list")
    out = []
    for i, item in enumerate(obj):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, str) for x in item)
        ):
            raise SchemaError(f"{what}[{i}] must be a pair of strings")
        out.append((item[0], item[1]))
    return out


def graph_to_json(g: SusyGraph) -> dict:
    lab, boundary = g.labeling, g.graph.boundary
    genus, color = lab.genus, lab.color
    return {
        "modular": g.modular,
        "vertices": [{"id": v, "genus": genus[v]} for v in sorted(g.vertices)],
        "flags": [
            {"id": f, "vertex": boundary[f], "color": color[f]}
            for f in sorted(g.flags)
        ],
        "edges": [list(p) for p in graph_edges(g.graph)],
        "ns_labels": dict(sorted(lab.ns_tail_labels.items())),
        "r_labels": dict(sorted(lab.r_tail_labels.items())),
    }


def graph_from_json(data: Any) -> SusyGraph:
    _check_keys(
        data,
        "graph",
        {
            "modular": bool,
            "vertices": list,
            "flags": list,
            "edges": list,
            "ns_labels": dict,
            "r_labels": dict,
        },
    )
    genus: dict[str, int] = {}
    for i, item in enumerate(data["vertices"]):
        _check_keys(item, f"vertices[{i}]", {"id": str, "genus": int})
        if item["id"] in genus:
            raise SchemaError(f"duplicate vertex id {item['id']!r}")
        genus[item["id"]] = item["genus"]
    boundary: dict[str, str] = {}
    color: dict[str, str] = {}
    for i, item in enumerate(data["flags"]):
        _check_keys(item, f"flags[{i}]", {"id": str, "vertex": str, "color": str})
        if item["id"] in boundary:
            raise SchemaError(f"duplicate flag id {item['id']!r}")
        boundary[item["id"]] = item["vertex"]
        color[item["id"]] = item["color"]
    involution = {f: f for f in boundary}
    for a, b in _pair_list(data["edges"], "edges"):
        for x in (a, b):
            if x not in boundary:
                raise SchemaError(f"edges mention unknown flag {x!r}")
            if involution[x] != x:
                raise SchemaError(f"flag {x!r} appears in more than one edge")
        if a == b:
            raise SchemaError(f"degenerate edge [{a!r}, {b!r}]")
        involution[a] = b
        involution[b] = a
    g = SusyGraph(
        Graph(frozenset(boundary), frozenset(genus), boundary, involution),
        SusyLabeling(
            genus,
            color,
            _str_dict(data["ns_labels"], "ns_labels"),
            _str_dict(data["r_labels"], "r_labels"),
        ),
        modular=data["modular"],
    )
    validate_susy_graph(g).raise_if_invalid("graph document")
    return g


def morphism_to_json(
    h: SusyMorphism,
    source: str | None = None,
    target: str | None = None,
) -> dict:
    """Serialize a morphism; pass ``source``/``target`` path strings to
    reference graph files instead of inlining the endpoint graphs."""
    return {
        "source": source if source is not None else graph_to_json(h.source),
        "target": target if target is not None else graph_to_json(h.target),
        "flag_map": dict(sorted(h.flag_map.items())),
        "vertex_map": dict(sorted(h.vertex_map.items())),
        "contracted": [list(p) for p in h.contracted_pairs()],
    }


def _endpoint(value: Any, what: str, base_dir: Path | None) -> SusyGraph:
    if isinstance(value, str):
        if base_dir is None:
            raise SchemaError(
                f"{what} is a file reference but no base directory is known"
            )
        return load_graph(base_dir / value)
    return graph_from_json(value)


def morphism_from_json(data: Any, base_dir: Path | str | None = None) -> SusyMorphism:
    _check_keys(
        data,
        "morphism",
        {
            "source": (dict, str),
            "target": (dict, str),
            "flag_map": dict,
            "vertex_map": dict,
            "contracted": list,
        },
    )
    base = Path(base_dir) if base_dir is not None else None
    h = susy_morphism(
        _endpoint(data["source"], "source", base),
        _endpoint(data["target"], "target", base),
        _str_dict(data["flag_map"], "flag_map"),
        _str_dict(data["vertex_map"], "vertex_map"),
        _pair_list(data["contracted"], "contracted"),
    )
    validate_susy_morphism(h).raise_if_invalid("morphism document")
    return h


def curve_to_json(c: CurveConfig) -> dict:
    comps = []
    for comp in c.components:
        pts = []
        for p in comp.special_points:
            entry = {"id": p.id, "color": p.color, "kind": p.kind}
            if p.label is not None:
                entry["label"] = p.label
            pts.append(entry)
        comps.append({"genus": comp.genus, "special_points": pts})
    return {
        "components": comps,
        "node_pairing": [list(p) for p in c.node_pairing],
    }


def curve_from_json(data: Any) -> CurveConfig:
    from .curves import NODE_HALF, PUNCTURE, Component, CurveConfig, SpecialPoint
    from .curves import validate_curve_config
    _check_keys(data, "curve", {"components": list, "node_pairing": list})
    comps = []
    for i, item in enumerate(data["components"]):
        _check_keys(
            item, f"components[{i}]", {"genus": int, "special_points": list}
        )
        pts = []
        for k, p in enumerate(item["special_points"]):
            what = f"components[{i}].special_points[{k}]"
            _check_keys(
                p, what, {"id": str, "color": str, "kind": str}, {"label": str}
            )
            if p["kind"] == PUNCTURE and "label" not in p:
                raise SchemaError(f"{what}: punctures need a label")
            if p["kind"] == NODE_HALF and "label" in p:
                raise SchemaError(f"{what}: node-halves cannot carry a label")
            pts.append(
                SpecialPoint(p["id"], p["color"], p["kind"], p.get("label"))
            )
        comps.append(Component(item["genus"], tuple(pts)))
    config = CurveConfig(
        tuple(comps), tuple(_pair_list(data["node_pairing"], "node_pairing"))
    )
    validate_curve_config(config).raise_if_invalid("curve document")
    return config


def signature_to_json(sig: ModuliSignature) -> dict:
    return {
        "mode": sig.mode,
        "factors": [
            {
                "genus": f.genus,
                "ns_labels": sorted(f.ns_labels),
                "r_labels": sorted(f.r_labels),
            }
            for f in sig.factors
        ],
    }


def recipe_to_json(r: GluingRecipe) -> dict:
    return {
        "source": signature_to_json(r.source),
        "target": signature_to_json(r.target),
        "assignment": list(r.assignment),
        "ns_gluings": [list(p) for p in r.ns_gluings],
        "r_gluings": [list(p) for p in r.r_gluings],
        "relabeling": dict(sorted(r.relabeling.items())),
        "ramond_fiber_rank": r.ramond_fiber_rank,
    }


def _load(path: Path | str) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def load_graph(path: Path | str) -> SusyGraph:
    return graph_from_json(_load(path))


def load_morphism(path: Path | str) -> SusyMorphism:
    return morphism_from_json(_load(path), base_dir=Path(path).parent)


def load_curve(path: Path | str) -> CurveConfig:
    return curve_from_json(_load(path))


def save_graph(g: SusyGraph, path: Path | str) -> None:
    Path(path).write_text(dumps(graph_to_json(g)), encoding="utf-8")
