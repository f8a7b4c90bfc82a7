"""Serialization round trips and strict schema rejection."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susykit import (
    NS,
    R,
    SchemaError,
    ValidationError,
    canonical_form,
    contract_pair,
    enumerate_strata_records,
    glue_r,
    signature,
    susy_graph,
)
from susykit.canon import _canonical_core, _named
from susykit.jsonio import (
    _write_strata,
    curve_from_json,
    curve_to_json,
    dumps,
    graph_from_json,
    graph_to_json,
    load_curve,
    load_graph,
    load_morphism,
    morphism_from_json,
    morphism_to_json,
    recipe_to_json,
    save_graph,
    signature_to_json,
)
from susykit import cli
from susykit.curves import Component, CurveConfig, SpecialPoint
from susykit.strata import _ordered, _shapes

from conftest import star
from sampling import random_morphism, random_susy_graph
from test_canon import cycle_graph


def colorful_graph():
    flags = ["t", "s", "n1", "n2", "p1", "p2"]
    boundary = {"t": "u", "n1": "u", "p1": "u", "s": "w", "n2": "w", "p2": "w"}
    return susy_graph(
        flags=flags,
        vertices=["u", "w"],
        boundary=boundary,
        involution={"t": "t", "s": "s", "n1": "n2", "n2": "n1",
                    "p1": "p2", "p2": "p1"},
        genus={"u": 1, "w": 0},
        color={"t": R, "s": R, "n1": NS, "n2": NS, "p1": R, "p2": R},
        ns_labels={},
        r_labels={"x": "t", "y": "s"},
    )


def small_curve():
    return CurveConfig(
        components=(
            Component(0, (
                SpecialPoint("p1", NS, "puncture", "a"),
                SpecialPoint("p2", NS, "puncture", "b"),
                SpecialPoint("h1", NS, "node-half"),
            )),
            Component(1, (
                SpecialPoint("h2", NS, "node-half"),
            )),
        ),
        node_pairing=(("h1", "h2"),),
    )


class TestGraphRoundTrip:
    def test_structural_round_trip(self):
        g = colorful_graph()
        assert graph_from_json(graph_to_json(g)) == g

    def test_modular_flag_round_trips(self):
        g = star(1, 2, 0, modular=True)
        back = graph_from_json(graph_to_json(g))
        assert back.modular
        assert back == g

    def test_random_graphs_round_trip(self, rng):
        for _ in range(25):
            g = random_susy_graph(rng)
            assert graph_from_json(graph_to_json(g)) == g

    def test_file_round_trip(self, tmp_path):
        g = colorful_graph()
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_dumps_is_canonical(self):
        doc = graph_to_json(colorful_graph())
        text = dumps(doc)
        assert text == dumps(doc)
        assert text.endswith("\n")
        assert json.loads(text) == doc
        keys = list(json.loads(text))
        assert keys == sorted(keys)


class TestGraphSchema:
    def setup_method(self):
        self.doc = graph_to_json(star(0, 3))

    def test_unknown_key(self):
        self.doc["extra"] = 1
        with pytest.raises(SchemaError, match="unknown key 'extra'"):
            graph_from_json(self.doc)

    def test_missing_key(self):
        del self.doc["edges"]
        with pytest.raises(SchemaError, match="missing key 'edges'"):
            graph_from_json(self.doc)

    def test_bool_int_not_interchangeable(self):
        self.doc["modular"] = 0
        with pytest.raises(SchemaError, match="modular must be bool"):
            graph_from_json(self.doc)
        doc2 = graph_to_json(star(0, 3))
        doc2["vertices"][0]["genus"] = True
        with pytest.raises(SchemaError, match="genus must be int"):
            graph_from_json(doc2)

    def test_duplicate_vertex_id(self):
        self.doc["vertices"].append({"id": "v", "genus": 0})
        with pytest.raises(SchemaError, match="duplicate vertex id"):
            graph_from_json(self.doc)

    def test_duplicate_flag_id(self):
        self.doc["flags"].append(dict(self.doc["flags"][0]))
        with pytest.raises(SchemaError, match="duplicate flag id"):
            graph_from_json(self.doc)

    def test_edge_with_unknown_flag(self):
        self.doc["edges"].append(["vn0", "ghost"])
        with pytest.raises(SchemaError, match="unknown flag 'ghost'"):
            graph_from_json(self.doc)

    def test_flag_in_two_edges(self):
        doc = graph_to_json(colorful_graph())
        doc["edges"].append(["n1", "p2"])
        with pytest.raises(SchemaError, match="more than one edge"):
            graph_from_json(doc)

    def test_degenerate_edge(self):
        self.doc["edges"].append(["vn0", "vn0"])
        with pytest.raises(SchemaError, match="degenerate edge"):
            graph_from_json(self.doc)

    def test_edge_pair_shape(self):
        self.doc["edges"].append(["vn0"])
        with pytest.raises(SchemaError, match="pair of strings"):
            graph_from_json(self.doc)

    def test_loaded_graph_is_validated(self):
        # odd number of R flags at the vertex: schema-clean, structurally bad
        doc = {
            "modular": False,
            "vertices": [{"id": "v", "genus": 1}],
            "flags": [
                {"id": "a", "vertex": "v", "color": "NS"},
                {"id": "b", "vertex": "v", "color": "R"},
            ],
            "edges": [],
            "ns_labels": {"1": "a"},
            "r_labels": {"2": "b"},
        }
        with pytest.raises(ValidationError, match="odd number of R flags"):
            graph_from_json(doc)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_graph(path)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_graph(path)


class TestMorphisms:
    def test_inline_round_trip(self):
        g = colorful_graph()
        h = contract_pair(g, ("n1", "n2"))
        assert morphism_from_json(morphism_to_json(h)) == h

    def test_random_morphisms_round_trip(self, rng):
        for _ in range(15):
            g = random_susy_graph(rng)
            h = random_morphism(rng, g)
            assert morphism_from_json(morphism_to_json(h)) == h

    def test_by_reference_endpoints(self, tmp_path):
        g = colorful_graph()
        h = contract_pair(g, ("p1", "p2"))
        save_graph(h.source, tmp_path / "src.json")
        save_graph(h.target, tmp_path / "tgt.json")
        doc = morphism_to_json(h, source="src.json", target="tgt.json")
        (tmp_path / "h.json").write_text(dumps(doc), encoding="utf-8")
        assert load_morphism(tmp_path / "h.json") == h

    def test_reference_needs_base_dir(self):
        g = colorful_graph()
        h = contract_pair(g, ("p1", "p2"))
        doc = morphism_to_json(h, source="src.json", target="tgt.json")
        with pytest.raises(SchemaError, match="base directory"):
            morphism_from_json(doc)

    def test_bad_map_rejected(self):
        g = colorful_graph()
        h = contract_pair(g, ("n1", "n2"))
        doc = morphism_to_json(h)
        doc["vertex_map"] = {v: "u" for v in doc["vertex_map"]}
        with pytest.raises((ValidationError, KeyError)):
            morphism_from_json(doc)


class TestCurves:
    def test_round_trip(self):
        c = small_curve()
        assert curve_from_json(curve_to_json(c)) == c

    def test_file_round_trip(self, tmp_path):
        c = small_curve()
        (tmp_path / "c.json").write_text(dumps(curve_to_json(c)), encoding="utf-8")
        assert load_curve(tmp_path / "c.json") == c

    def test_puncture_needs_label(self):
        doc = curve_to_json(small_curve())
        del doc["components"][0]["special_points"][0]["label"]
        with pytest.raises(SchemaError, match="punctures need a label"):
            curve_from_json(doc)

    def test_node_half_rejects_label(self):
        doc = curve_to_json(small_curve())
        doc["components"][0]["special_points"][2]["label"] = "z"
        with pytest.raises(SchemaError, match="node-halves cannot"):
            curve_from_json(doc)

    def test_loaded_curve_is_validated(self):
        doc = curve_to_json(small_curve())
        doc["node_pairing"] = []
        with pytest.raises(ValidationError, match="unpaired node-halves"):
            curve_from_json(doc)


# every key of the graph, morphism and curve schemas, and values they use
SCHEMA_WORDS = [
    "modular", "vertices", "flags", "edges", "ns_labels", "r_labels", "id",
    "genus", "vertex", "color", "source", "target", "flag_map", "vertex_map",
    "contracted", "components", "node_pairing", "special_points", "kind",
    "label", "NS", "R", "puncture", "node-half", "u", "w", "t", "n1", "x",
]
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.sampled_from(SCHEMA_WORDS)
)
JSON_TREES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_WORDS), inner, max_size=7),
    max_leaves=12,
)
LOADERS = [graph_from_json, morphism_from_json, curve_from_json]


def valid_documents():
    """One valid document per loader, with the loader that reads it."""
    h = contract_pair(colorful_graph(), ("n1", "n2"))
    return [
        (graph_from_json, graph_to_json(colorful_graph())),
        (morphism_from_json, morphism_to_json(h)),
        (curve_from_json, curve_to_json(small_curve())),
    ]


def paths(doc, prefix=()):
    """The path of every value inside ``doc``, as keys and indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from paths(value, (*prefix, key))


MUTATION_SITES = [
    (loader, doc, path) for loader, doc in valid_documents() for path in paths(doc)
]


DELETE = object()


def mutated(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced, or deleted
    when ``value`` is ``DELETE``."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    if value is DELETE:
        del holder[last]
    else:
        holder[last] = value
    return doc


def loads_or_rejects(loader, doc):
    try:
        loader(doc)
    except (SchemaError, ValidationError):
        pass


class TestLoaderFuzz:
    """Malformed documents only ever raise SchemaError or ValidationError."""

    @settings(derandomize=True, max_examples=200)
    @given(JSON_TREES)
    def test_random_trees(self, doc):
        for loader in LOADERS:
            loads_or_rejects(loader, doc)

    @settings(derandomize=True, max_examples=200)
    @given(st.sampled_from(MUTATION_SITES), JSON_TREES)
    def test_single_field_replacements(self, site, value):
        loader, doc, path = site
        loads_or_rejects(loader, mutated(doc, path, value))

    def test_single_field_deletions(self):
        for loader, doc, path in MUTATION_SITES:
            loads_or_rejects(loader, mutated(doc, path, DELETE))


class TestRecipesAndSignatures:
    def test_signature_document(self):
        sig = signature([(0, {"a"}, {"r1", "r2"}), (1, {"b"}, ())])
        doc = signature_to_json(sig)
        assert doc["mode"] == "super"
        assert doc["factors"] == [
            {"genus": 0, "ns_labels": ["a"], "r_labels": ["r1", "r2"]},
            {"genus": 1, "ns_labels": ["b"], "r_labels": []},
        ]

    def test_recipe_document(self):
        sig = signature([(0, {"a"}, {"r1", "r2"}), (0, {"b"}, {"s1", "s2"})])
        r = glue_r(sig, "r1", "s1")
        doc = recipe_to_json(r)
        assert doc["r_gluings"] == [["r1", "s1"]]
        assert doc["ns_gluings"] == []
        assert doc["ramond_fiber_rank"] == 1
        assert doc["assignment"] == [0, 0]
        assert doc["relabeling"] == {l: l for l in ("a", "b", "r2", "s2")}
        assert dumps(doc) == dumps(recipe_to_json(r))


# strings that exercise escaping: non-ASCII (also outside the BMP), control
# characters, quotes and backslashes
TEXT = st.text(
    st.sampled_from(["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00",
                     "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600"]),
    max_size=6,
)
WRITER_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | TEXT
)
WRITER_TREES = st.recursive(
    WRITER_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    max_leaves=16,
)


def oracle(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def golden_enumerate_argvs():
    """The argv of every case of ``test_cli.TestGoldenOutput``, JSON format.
    Read when a test runs: ``test_cli`` imports this module."""
    import test_cli

    (mark,) = [
        m for m in test_cli.TestGoldenOutput.test_stdout_hash.pytestmark
        if m.name == "parametrize"
    ]
    return [argv.replace(" --format table", "").split() for argv, _ in mark.args[1]]


class TestWriter:
    """``dumps`` writes the bytes of ``json.dumps`` with sorted keys and a
    two-space indent, plus a newline."""

    @settings(derandomize=True, max_examples=300)
    @given(WRITER_TREES)
    def test_random_trees_match_json_dumps(self, data):
        assert dumps(data) == oracle(data)

    @pytest.mark.parametrize(
        "data",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": [[], {}, [[]]]},
            [True, 1, False, 0, None, -1],
            {"\u00e9\n\"": ["\x00", "\\", "\U0001f600"]},
            -(10**40),
            {1: "a"},
            {None: 1},
            {True: 2},
            [-0.25, 1e300],
            {"a": [1.5, {2: ["x"]}]},
        ],
    )
    def test_corner_cases(self, data):
        assert dumps(data) == oracle(data)

    @pytest.mark.parametrize(
        "data", [{"a": 1, 2: "b"}, [object()], {"x": {1, 2}}, b"bytes", iter([])]
    )
    def test_what_json_dumps_rejects_raises_type_error(self, data):
        with pytest.raises(TypeError):
            oracle(data)
        with pytest.raises(TypeError):
            dumps(data)


def escaped_star():
    """One genus-0 vertex with twelve tails, so that "t10" and "t11" sort
    before "t2", and NS and R labels that JSON escapes."""
    flags = [f"t{i}" for i in range(12)]
    ns = ['a"b', "x\\y", "\u00e9", "n3", "n4", "n5", "n6", "n7"]
    r = ['r"0', "r\\1", "\u00e9r", "z\n"]
    return susy_graph(
        flags=flags,
        vertices=["v"],
        boundary=dict.fromkeys(flags, "v"),
        involution={f: f for f in flags},
        genus={"v": 0},
        color={f: NS if i < len(ns) else R for i, f in enumerate(flags)},
        ns_labels=dict(zip(ns, flags)),
        r_labels=dict(zip(r, flags[len(ns):])),
    )


def plain_document(head, key, cores, digests):
    """The strata document ``_write_strata`` writes, as plain dicts, each
    record built through the named graph of its core."""
    records = [
        graph_to_json(_named(c)) | {"certificate": d} for c, d in zip(cores, digests)
    ]
    return head | {key: records}


def streamed(head, key, cores, digests):
    """The chunks that ``_write_strata`` writes."""
    chunks = []
    _write_strata(chunks.append, head, key, cores, digests)
    return chunks


class TestStrataWriter:
    """``_write_strata`` writes the bytes of ``json.dumps`` of the plain
    strata document, with each record built through ``canon._named`` and
    ``graph_to_json``: for every golden ``enumerate`` argv, for labels that
    JSON escapes, for cores with at least ten flags, whose names do not
    sort in index order ("f10" before "f2"), and for no strata at all."""

    def test_streamed_enumerate_is_dumps_of_the_document(self, monkeypatch, capsys):
        """Head and records alike: the golden argvs, one stratum with a
        poset of one cover list, and one without a poset."""
        documents = []

        def assembled(write, head, key, cores, digests):
            documents.append(plain_document(head, key, cores, digests))
            write(oracle(documents[-1]))

        counts = []
        extra = ["enumerate --genus 0 --ns 3 --poset", "enumerate --genus 0 --ns 4"]
        for argv in golden_enumerate_argvs() + [a.split() for a in extra]:
            assert cli.main(argv) == 0
            streamed_out = capsys.readouterr().out
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_write_strata", assembled)
                assert cli.main(argv) == 0
            assert capsys.readouterr().out == streamed_out
            (doc,) = documents
            documents.clear()
            key = "shapes" if "--shapes" in argv else "strata"
            assert set(doc) == {"count", key} | ({"poset"} if "--poset" in argv else set())
            assert doc["count"] == len(doc[key]) > 0
            counts.append(doc["count"])
            if "--poset" in argv and doc["count"] == 1:
                assert doc["poset"] == {"covers": {"0": ()}, "ranks": [0]}
        # a poset of eleven or more strata, so that cover key "10" sorts
        # before "2", and the poset of one stratum
        assert max(counts) >= 11 and 1 in counts

    @pytest.mark.parametrize(
        "genus, ns, r",
        [
            (0, ['a"b', "x\\y", "\u00e9", "z"], []),
            (0, ['a"b', "x\\y"], ["\u00e9", "z\n"]),
            (2, [], []),
            (1, ["1"], ["2", "3"]),
        ],
    )
    def test_strata_and_shapes_with_escaped_labels(self, genus, ns, r):
        cores, digests, _ = _ordered(enumerate_strata_records(genus, ns, r))
        shape_digests, _, shapes, _, _ = zip(*_shapes(genus, ns + r))
        for key, cs, ds in (("strata", cores, digests), ("shapes", shapes, shape_digests)):
            head = {"count": len(cs)}
            chunks = streamed(head, key, cs, ds)
            assert len(chunks) == len(cs) + 2
            assert "".join(chunks) == oracle(plain_document(head, key, cs, ds))

    @pytest.mark.parametrize("key", ["strata", "shapes"])
    def test_no_strata(self, key):
        assert "".join(streamed({"count": 0}, key, (), ())) == oracle({"count": 0, key: []})

    @pytest.mark.parametrize(
        "genus, ns, r",
        [(1, ["1", "2"], ["3", "4"]), (3, [], []), (0, ["1", "2", "3", "4"], ["5", "6"])],
    )
    def test_every_printed_stratum_and_shape(self, genus, ns, r):
        cores, digests, _ = _ordered(enumerate_strata_records(genus, ns, r))
        shapes = [(c, d) for d, _, c, _, _ in _shapes(genus, ns + r)]
        pairs = [*zip(cores, digests), *shapes]
        # enough flags that sorted-name order is not index order
        assert max(len(c.boundary) for c, _ in pairs) >= 10
        for c, d in pairs:
            text = "".join(streamed({"count": 1}, "strata", [c], [d]))
            assert text == oracle(plain_document({"count": 1}, "strata", [c], [d]))

    @pytest.mark.parametrize(
        "g, vertices",
        [
            (cycle_graph(12, 5, 7, tails=('a"b', "x\\y", "\u00e9"), r_edges=1, genus=(6,)), 12),
            (escaped_star(), 1),
        ],
    )
    def test_large_cores_with_escaped_labels(self, g, vertices):
        form = canonical_form(g)
        c = _canonical_core(form.core, form.leaves[0])
        assert (len(c.genus), any(c.color)) == (vertices, True)
        assert len(c.boundary) >= 10
        text = "".join(streamed({"count": 1}, "strata", [c], [form.digest]))
        record = graph_to_json(form.graph) | {"certificate": form.digest}
        assert text == oracle({"count": 1, "strata": [record]})

    def test_enumerate_writes_one_chunk_per_stratum(self, monkeypatch):
        chunks = []

        class Out:
            def write(self, text):
                chunks.append(text)

        monkeypatch.setattr(cli.sys, "stdout", Out())
        assert cli.main(["enumerate", "--genus", "0", "--ns", "5", "--poset"]) == 0
        doc = json.loads("".join(chunks))
        assert doc["count"] == len(doc["strata"]) == 26
        # the head, one chunk per stratum, and the close
        assert len(chunks) == doc["count"] + 2


class TestPrintedStrata:
    """Every stratum a golden ``enumerate`` argv prints parses back to a
    graph that is its own canonical form, under its certificate."""

    def test_printed_strata_are_canonical(self, capsys):
        checked = 0
        for argv in golden_enumerate_argvs():
            assert cli.main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            printed = doc["shapes"] if "--shapes" in argv else doc["strata"]
            assert len(printed) == doc["count"]
            for record in printed:
                certificate = record.pop("certificate")
                parsed = graph_from_json(record)
                form = canonical_form(parsed)
                assert form.digest == certificate
                assert form.graph == parsed
                checked += 1
        assert checked > 200
