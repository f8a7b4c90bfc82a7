"""End-to-end command-line coverage: every subcommand, the documented
output shapes, and the 0/1/2 exit code contract."""

import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from susykit import calculus, canon, cli, contract_pair, graphs, jsonio, modular_graph, strata
from susykit.cli import main
from susykit.curves import CurveConfig
from susykit.graphs import Graph
from susykit.jsonio import curve_to_json, dumps, graph_to_json, morphism_to_json

from conftest import star, two_vertex_tree
from oracles import brute_isomorphisms
from test_boundary import contraction_chain
from test_jsonio import colorful_graph, small_curve
from test_operad import two_corolla_graph


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestValidate:
    def test_graph_ok(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", graph_to_json(star(0, 3)))
        rc, out, _ = run(capsys, "validate", path)
        assert rc == 0
        assert "valid graph" in out

    def test_invalid_graph_is_exit_1(self, tmp_path, capsys):
        doc = graph_to_json(star(0, 3))
        doc["vertices"][0]["genus"] = -1
        path = write(tmp_path, "g.json", doc)
        rc, _, err = run(capsys, "validate", path)
        assert rc == 1
        assert "invalid graph" in err

    def test_schema_error_is_exit_2(self, tmp_path, capsys):
        doc = graph_to_json(star(0, 3))
        doc["surprise"] = True
        path = write(tmp_path, "g.json", doc)
        rc, _, err = run(capsys, "validate", path)
        assert rc == 2
        assert "unknown key" in err

    def test_missing_file_is_exit_2(self, capsys):
        rc, _, err = run(capsys, "validate", "no-such-file.json")
        assert rc == 2
        assert "error" in err

    def test_auto_detects_curve_and_morphism(self, tmp_path, capsys):
        cpath = write(tmp_path, "c.json", curve_to_json(small_curve()))
        rc, out, _ = run(capsys, "validate", cpath)
        assert rc == 0 and "valid curve" in out
        h = contract_pair(colorful_graph(), ("n1", "n2"))
        mpath = write(tmp_path, "m.json", morphism_to_json(h))
        rc, out, _ = run(capsys, "validate", mpath)
        assert rc == 0 and "valid morphism" in out

    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestDims:
    def test_four_ns_corolla_golden(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", graph_to_json(star(0, 4)))
        rc, out, _ = run(capsys, "dims", path)
        assert rc == 0
        assert json.loads(out) == {"even": 1, "odd": 2, "codim": [0, 0]}

    def test_table_format(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", graph_to_json(star(0, 2, 2)))
        rc, out, _ = run(capsys, "dims", path, "--format", "table")
        assert rc == 0
        assert "even dimension  1" in out
        assert "odd dimension   1" in out
        assert "codimension     (0, 0)" in out

    def test_unstable_graph_is_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", graph_to_json(star(0, 2)))
        rc, _, err = run(capsys, "dims", path)
        assert rc == 1
        assert "stable" in err


class TestEnumerate:
    def test_count_four(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "--genus", "0", "--ns", "4")
        assert rc == 0
        data = json.loads(out)
        assert data["count"] == 4
        assert len(data["strata"]) == 4
        for record in data["strata"]:
            assert "certificate" in record
            assert len(record["certificate"]) == 64

    def test_poset_block(self, capsys):
        rc, out, _ = run(
            capsys, "enumerate", "--genus", "0", "--ns", "4", "--poset"
        )
        data = json.loads(out)
        assert data["poset"]["ranks"] == [0, 1, 1, 1]
        assert data["poset"]["covers"] == {
            "0": [],
            "1": [0],
            "2": [0],
            "3": [0],
        }

    def test_shapes_only(self, capsys):
        rc, out, _ = run(
            capsys, "enumerate", "--genus", "1", "--ns", "1", "--shapes"
        )
        assert rc == 0
        data = json.loads(out)
        assert data["count"] == 2
        assert all("certificate" in s for s in data["shapes"])

    def test_mixed_labels_count(self, capsys):
        rc, out, _ = run(
            capsys, "enumerate", "--genus", "0", "--ns", "2", "--r", "2"
        )
        data = json.loads(out)
        assert data["count"] == 4

    def test_unstable_request_is_exit_1(self, capsys):
        rc, _, err = run(capsys, "enumerate", "--genus", "0", "--ns", "2")
        assert rc == 1
        assert "unstable" in err

    def test_negative_genus_is_exit_1(self, capsys):
        rc, out, err = run(capsys, "enumerate", "--genus", "-1", "--ns", "5")
        assert rc == 1
        assert out == ""
        assert "non-negative integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "enumerate --genus 0 --ns -1",
            "enumerate --genus 0 --ns 4 --r -2",
            "enumerate --genus 0 --ns four",
            "check-axioms --cases -5",
        ],
    )
    def test_negative_count_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert "expected a non-negative integer" in capsys.readouterr().err

    def test_shapes_and_poset_are_a_usage_error(self, capsys):
        # shapes carry no contraction order, so the pair is refused
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--genus", "2", "--shapes", "--poset"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "not allowed with argument" in err

    def test_table_format(self, capsys):
        rc, out, _ = run(
            capsys, "enumerate", "--genus", "1", "--ns", "1",
            "--poset", "--format", "table",
        )
        assert rc == 0
        assert "strata        3" in out
        assert "S1 -> S0" in out


def counted(monkeypatch, module, name, counts):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def graphs_built(monkeypatch):
    """A list of each ``Graph`` built from now on, by its constructor or by
    ``graphs._owned`` in any module of the package."""
    built = []
    init, owned = Graph.__post_init__, graphs._owned
    monkeypatch.setattr(Graph, "__post_init__", lambda g: built.append(g) or init(g))

    def owning(cls, **fields):
        value = owned(cls, **fields)
        if cls is Graph:
            built.append(value)
        return value

    for name, module in list(sys.modules.items()):
        if name.startswith("susykit") and getattr(module, "_owned", None) is owned:
            monkeypatch.setattr(module, "_owned", owning)
    return built


def move_orbits(shape):
    """The number of orbits of the shape's moves under its automorphisms,
    the group taken from the exhaustive oracle."""
    vertices, flags = sorted(shape.vertices), sorted(shape.flags)

    def named(key):
        if len(key) == 1:
            return (vertices[key[0]],)
        sides = ((tuple(flags[f] for f in part), g) for part, g in key[1])
        return (vertices[key[0]], tuple(sides))

    keys = {named(k) for k in strata._move_keys(canon._core_of(shape))}
    group = list(brute_isomorphisms(shape, shape))

    def image(vmap, fmap, key):
        if len(key) == 1:
            return (vmap[key[0]],)
        sides = ((tuple(sorted(fmap[f] for f in part)), g) for part, g in key[1])
        return (vmap[key[0]], tuple(sorted(sides)))

    orbits = {frozenset(image(vmap, fmap, k) for vmap, fmap in group) for k in keys}
    assert set().union(*orbits) == keys
    return len(orbits)


class TestEnumerateSearches:
    """The shape generator searches the corolla and one move per orbit of
    each shape's moves under its automorphisms, the records search one
    raw coloring per stratum with an R flag (the all-NS stratum of each
    shape takes the shape's search), the poset is looked up from the
    covers recorded during generation, and no emitted stratum is searched
    again after the records are built."""

    def test_poset_contracts_and_searches_nothing(self, monkeypatch, capsys):
        counts: dict[str, int] = {}
        counted(monkeypatch, canon, "_search", counts)
        counted(monkeypatch, strata, "_move", counts)
        counted(monkeypatch, calculus, "contract_pair", counts)
        records = []
        searches = []
        poset_fn = cli.strata_poset

        def poset_phase(recs):
            records.extend(recs)
            searches.append(counts["_search"])
            out = poset_fn(recs)
            searches.append(counts["_search"])
            return out

        monkeypatch.setattr(cli, "strata_poset", poset_phase)
        rc, _, _ = run(capsys, "enumerate", "--genus", "3", "--poset")
        assert rc == 0
        assert len(records) == 42
        orbits = sum(move_orbits(rec.shape) for rec in records)
        n_strata = sum(len(rec.digests) for rec in records)
        before, after = searches
        assert (orbits, n_strata) == (92, 142)
        assert counts["_move"] == orbits
        # every shape has an all-NS stratum, which is not searched again
        assert before == 1 + orbits + n_strata - len(records) == 193
        assert after == before == counts["_search"]
        assert "contract_pair" not in counts

    @pytest.mark.parametrize(
        "argv, searches, moves",
        [("enumerate --genus 2 --poset", 16, 8), ("enumerate --genus 0 --ns 6 --poset", 551, 550)],
    )
    def test_search_and_move_counts_are_pinned(
        self, monkeypatch, capsys, argv, searches, moves
    ):
        # one search for the corolla, each move orbit and each stratum with
        # an R flag, and one move per orbit: a shortcut around ``_search``
        # or a skipped move changes these counts
        counts: dict[str, int] = {}
        counted(monkeypatch, canon, "_search", counts)
        counted(monkeypatch, strata, "_move", counts)
        rc, _, _ = run(capsys, *argv.split())
        assert rc == 0
        assert (counts["_search"], counts["_move"]) == (searches, moves)

    @pytest.mark.parametrize(
        "argv, searches, certificates",
        [("enumerate --genus 2 --poset", 16, 21), ("enumerate --genus 0 --ns 6 --poset", 551, 236)],
    )
    def test_certificate_writes_are_pinned(
        self, monkeypatch, capsys, argv, searches, certificates
    ):
        # one certificate per leaf of a search that compares leaves, and one
        # per new shape or coloured stratum: a shortcut that writes the
        # certificate of a shape that was already found changes the count
        counts: dict[str, int] = {}
        counted(monkeypatch, canon, "_search", counts)
        counted(monkeypatch, canon, "_certificate", counts)
        rc, out, _ = run(capsys, *argv.split())
        assert rc == 0
        assert (counts["_search"], counts["_certificate"]) == (searches, certificates)
        # every printed stratum was written once, by its search or after it
        assert json.loads(out)["count"] <= certificates

    def test_shapes_are_named_once(self, monkeypatch):
        # one Graph per shape, and none for the corolla: the search starts
        # from its core, and each shape is named once, when it is listed
        built = graphs_built(monkeypatch)
        shapes = strata.enumerate_modular_shapes(3, [])
        assert len(shapes) == 42
        assert len(built) == len(shapes)
        assert {id(g.graph) for g in shapes} <= {id(g) for g in built}

    def test_each_printed_stratum_is_built_from_its_core(self, monkeypatch, capsys):
        # nothing is named: the records and the poset hold cores, the CLI
        # writes each printed record's text from its core, once per stratum
        # in poset order, and never reads ``poset.strata``
        counts = {"_named": 0}
        for module in (canon, strata, cli, jsonio):
            if hasattr(module, "_named"):
                counted(monkeypatch, module, "_named", counts)
        built = []
        build = jsonio._stratum_text
        monkeypatch.setattr(
            jsonio, "_stratum_text", lambda c, d: built.append(c) or build(c, d)
        )
        posets = []
        poset_fn = cli.strata_poset

        def kept_poset(records):
            posets.append(poset_fn(records))
            return posets[-1]

        monkeypatch.setattr(cli, "strata_poset", kept_poset)
        rc, out, _ = run(capsys, "enumerate", "--genus", "3", "--poset")
        assert rc == 0
        assert counts == {"_named": 0}
        assert len(built) == len(set(built)) == json.loads(out)["count"] == 142
        (poset,) = posets
        assert len(built) == len(poset.cores)
        assert all(c is core for c, core in zip(built, poset.cores))
        assert "strata" not in vars(poset)

    @pytest.mark.parametrize(
        "argv, builder",
        [
            ("enumerate --genus 1 --ns 2 --r 2", "enumerate_strata_records"),
            ("enumerate --genus 2 --ns 1 --shapes", "_shapes"),
        ],
    )
    def test_no_search_after_the_records(self, monkeypatch, capsys, argv, builder):
        counts: dict[str, int] = {}
        counted(monkeypatch, canon, "_search", counts)
        build = getattr(cli, builder)
        built: list[int] = []

        def recorded(*args):
            out = build(*args)
            built.append(counts["_search"])
            return out

        monkeypatch.setattr(cli, builder, recorded)
        rc, _, _ = run(capsys, *argv.split())
        assert rc == 0
        assert built == [counts["_search"]]


class TestGoldenOutput:
    """sha256 of stdout for fixed enumerations.  A change here changes the
    digests or the JSON the CLI prints, which is a behaviour change."""

    @pytest.mark.parametrize(
        "argv, sha",
        [
            (
                "enumerate --genus 0 --ns 5 --poset",
                "375b90e1422752b40f8812751e9d73dacc28db724627d194c28f2fbd3fb8c3e9",
            ),
            (
                "enumerate --genus 1 --ns 1 --r 2 --poset",
                "1d450dacafa90e076d820c7ffe34b5ee0f5dd49a5025dcb901ddc738cde3c53e",
            ),
            (
                "enumerate --genus 2 --poset --format table",
                "141dee06821bca339592bfaaf2331598e71c2daf98fbdb9a616ef49b9abf8de9",
            ),
            (
                "enumerate --genus 2 --ns 1 --shapes",
                "3bc92a3c6bff136f6ef7cf9812666be7dff226bde5540cb1446fc33ff2290a4a",
            ),
            (
                "enumerate --genus 3 --poset",
                "fa62e5936ddf712091b0c49caa52432e86a4fa4aa5c211f08ac3d25ec6f17df8",
            ),
            (
                "enumerate --genus 1 --ns 2 --r 2 --poset",
                "cfb8fe5fb2d35dceb36cacc948c0d19bce4ca6efd151c398f670f93f80bd3dfa",
            ),
            (
                "enumerate --genus 1 --ns 2 --r 2",
                "bfc09aa4a0869b97d7ec83202820585910646e05410aed509e7760ef4e0d746c",
            ),
            (
                "enumerate --genus 0 --ns 4 --r 2 --poset --format table",
                "e401e22af0450028917b3b138f0d5d2ad553e0222e8ca40db2f0fc7267c3ba28",
            ),
            (
                "enumerate --genus 2 --ns 1 --r 2 --poset",
                "6a1cd067cefdf60e50bb3e4b6576a0276cdcdb83b6b725464bfc9e391f8c1ca3",
            ),
        ],
    )
    def test_stdout_hash(self, capsys, argv, sha):
        rc, out, _ = run(capsys, *argv.split())
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestBenchmarkOutput:
    """sha256 of stdout for the two enumerations that the benchmark's
    strata workloads run, kept apart from ``TestGoldenOutput``, whose argvs
    other tests parse in full.  The script writes the same bytes whatever
    the seed of ``str`` hashing, so no set or dict order leaks out."""

    OUTPUTS = pytest.mark.parametrize(
        "argv, sha",
        [
            (
                "enumerate --genus 0 --ns 7 --poset",
                "ae4b98529f501166418593a09616859c60f411ee90c54701fd7e6bd8dacfdfb4",
            ),
            (
                "enumerate --genus 4 --ns 0 --max-edges 9 --poset",
                "44b5863e5d0bb50dc23699116c5974cd30daf782a8141b8b836d9fbc60bc8153",
            ),
        ],
        ids=["strata_tree", "strata_closed"],
    )

    @OUTPUTS
    def test_stdout_hash(self, capsys, argv, sha):
        rc, out, _ = run(capsys, *argv.split())
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha

    @pytest.mark.parametrize("seed", ["0", "1"])
    @OUTPUTS
    def test_the_script_writes_it_under_each_hash_seed(self, argv, sha, seed):
        proc = subprocess.run(
            [sys.executable, "-m", "susykit.cli", *argv.split()],
            capture_output=True,
            env=dict(script_env(), PYTHONHASHSEED=seed),
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == sha


def looped_pair():
    """Two vertices joined by an edge, each with a loop and two tails, so
    that a tail partition lifts in four ways."""
    boundary = dict.fromkeys(["a0", "a1", "ea", "l0", "m0"], "u")
    boundary |= dict.fromkeys(["b0", "b1", "eb", "l1", "m1"], "w")
    involution = {f: f for f in ("a0", "a1", "b0", "b1")}
    for x, y in (("ea", "eb"), ("l0", "m0"), ("l1", "m1")):
        involution[x], involution[y] = y, x
    return modular_graph(
        flags=boundary,
        vertices=["u", "w"],
        boundary=boundary,
        involution=involution,
        genus={"u": 0, "w": 1},
    )


def escaped_curve():
    """``small_curve`` with puncture labels that JSON escapes."""
    (left, right), pairing = small_curve().components, small_curve().node_pairing
    points = (
        replace(left.special_points[0], label='a"b'),
        replace(left.special_points[1], label="é\n"),
        left.special_points[2],
    )
    return CurveConfig((replace(left, special_points=points), right), pairing)


# the input documents of the golden non-enumerate commands, by file name
GOLDEN_INPUTS = {
    "looped.json": lambda: graph_to_json(looped_pair()),
    "tree.json": lambda: graph_to_json(two_vertex_tree()),
    "corollas.json": lambda: graph_to_json(two_corolla_graph()),
    "curve.json": lambda: curve_to_json(escaped_curve()),
    "contraction.json": lambda: morphism_to_json(
        contract_pair(two_corolla_graph(), ("f", "fp"))
    ),
    "chain.json": lambda: morphism_to_json(contraction_chain()),
}


class TestGoldenDocuments:
    """sha256 of stdout for the commands other than ``enumerate``, each
    on documents built by the test helpers, taken before every document
    was rendered by ``json.dumps``."""

    @pytest.mark.parametrize(
        "argv, sha",
        [
            (
                "lift --tree looped.json --ns a0,b0 --r a1,b1 --enumerate",
                "f062277741c7184c395e776cadcac22c65a95cd866b64a25e9897ff25e2e81a1",
            ),
            (
                "lift --tree looped.json --ns a0,b0 --r a1,b1 --count",
                "19c2b9b9817283f0c31744f2c2318f5e9c868b37fd631434c125dbe18b86103f",
            ),
            (
                "lift --tree tree.json --ns a0,b0 --r a1,b1",
                "79ed28f1c05c1435322eabd43ec1487703388905d8223d3641dbcb483aade36e",
            ),
            (
                "dims corollas.json",
                "36114e5f4bb8bcb0d49dbef18ab89084dd29b95cb1a69d1f7cfbd3c1ef95253e",
            ),
            (
                "evaluate contraction.json",
                "742860854f5d914b0dd44beb4c423b7324faaadb4c4896cc21190e76d19bd42b",
            ),
            (
                "evaluate chain.json",
                "c3fa7cd2650edda943c913663012a9140bfa4da40ccef750d23202426e3669f6",
            ),
            (
                "dual-graph curve.json",
                "115c48f11e06c84d721414be45ddb51ee290acf68da56459c852166a50cfc6e3",
            ),
            (
                "check-axioms --cases 200 --seed 3",
                "669f807445c9fae07d9e49e6b1feb55306b0cf6d74559c341160788c11d7d02c",
            ),
        ],
    )
    def test_stdout_hash(self, tmp_path, capsys, argv, sha):
        args = [
            write(tmp_path, a, GOLDEN_INPUTS[a]()) if a in GOLDEN_INPUTS else a
            for a in argv.split()
        ]
        rc, out, _ = run(capsys, *args)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestLift:
    def test_unique_lift_summary(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", graph_to_json(two_vertex_tree()))
        rc, out, _ = run(
            capsys, "lift", "--tree", path, "--ns", "a0,a1", "--r", "b0,b1"
        )
        assert rc == 0
        data = json.loads(out)
        colors = {f["id"]: f["color"] for f in data["flags"]}
        assert colors["b0"] == colors["b1"] == "R"
        assert colors["ea"] == "NS"
        assert data["modular"] is False

    def test_split_partition_forces_r_edge(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", graph_to_json(two_vertex_tree()))
        rc, out, _ = run(
            capsys, "lift", "--tree", path, "--ns", "a0,b0", "--r", "a1,b1"
        )
        data = json.loads(out)
        colors = {f["id"]: f["color"] for f in data["flags"]}
        assert colors["ea"] == colors["eb"] == "R"

    def test_count_flag(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", graph_to_json(two_vertex_tree()))
        rc, out, _ = run(
            capsys, "lift", "--tree", path,
            "--ns", "a0,a1,b0,b1", "--count",
        )
        assert rc == 0
        assert json.loads(out) == {"count": 1}

    def test_enumerate_flag(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", graph_to_json(two_vertex_tree()))
        rc, out, _ = run(
            capsys, "lift", "--tree", path,
            "--ns", "a0,a1,b0,b1", "--enumerate",
        )
        data = json.loads(out)
        assert data["count"] == 1
        assert len(data["colorings"]) == 1

    def test_odd_r_is_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", graph_to_json(two_vertex_tree()))
        rc, _, err = run(
            capsys, "lift", "--tree", path, "--ns", "a0,a1,b0", "--r", "b1"
        )
        assert rc == 1
        assert err


class TestDualGraphAndEvaluate:
    def test_dual_graph(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", curve_to_json(small_curve()))
        rc, out, _ = run(capsys, "dual-graph", path)
        assert rc == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 2
        assert len(data["edges"]) == 1
        assert sorted(data["ns_labels"]) == ["a", "b"]

    def test_evaluate_contraction(self, tmp_path, capsys):
        h = contract_pair(two_corolla_graph(), ("f", "fp"))
        path = write(tmp_path, "m.json", morphism_to_json(h))
        rc, out, _ = run(capsys, "evaluate", path)
        assert rc == 0
        data = json.loads(out)
        assert data["ns_gluings"] == [["f", "fp"]]
        assert data["r_gluings"] == []
        assert data["ramond_fiber_rank"] == 0
        assert len(data["target"]["factors"]) == 1

    def test_check_axioms(self, capsys):
        rc, out, _ = run(capsys, "check-axioms", "--seed", "3", "--cases", "5")
        assert rc == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert set(data["checked"].values()) == {5}
        assert data["failures"] == []


class TestGraphSummary:
    """``lift`` and ``dual-graph`` with ``--format table`` print a summary
    of the one graph they build."""

    def test_tree_lift(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", graph_to_json(two_vertex_tree()))
        argv = ["lift", "--tree", path, "--ns", "a0,b0", "--r", "a1,b1"]
        rc, out, _ = run(capsys, *argv, "--format", "table")
        assert rc == 0
        assert out == (
            "vertices      2\n"
            "edges         1 (1 R)\n"
            "tails         4 (2 R)\n"
            "total genus   0\n"
            "modular view  no\n"
            "stable        yes\n"
            "digest        980bc341b3c8097bc46b5faac8e08b1d69a43b948fe4ff2ff0f7ce5c20184ac8\n"
        )

    def test_dual_graph(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", curve_to_json(small_curve()))
        rc, out, _ = run(capsys, "dual-graph", path, "--format", "table")
        assert rc == 0
        assert out == (
            "vertices      2\n"
            "edges         1 (0 R)\n"
            "tails         2 (0 R)\n"
            "total genus   1\n"
            "modular view  no\n"
            "stable        yes\n"
            "digest        14ef22c9e9faf0d5d7993a62c5ac51716e995efc2254b3c4d0ee70213f0ed5b6\n"
        )


class TestExportDot:
    def test_graph_render(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", graph_to_json(colorful_graph()))
        rc, out, _ = run(capsys, "export-dot", path)
        assert rc == 0
        assert out.startswith('graph "susy" {')
        assert 'label="g=1", shape=circle' in out
        assert "shape=point" in out
        assert "style=dashed" in out
        assert "style=solid" in out

    def test_strata_render_from_enumerate_output(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "enumerate", "--genus", "0", "--ns", "4")
        doc = json.loads(out)
        path = write(tmp_path, "strata.json", doc)
        rc, out, _ = run(capsys, "export-dot", path)
        assert rc == 0
        assert out.startswith('digraph "strata" {')
        assert out.count("->") == 3
        assert '"S1" -> "S0";' in out

    def test_strata_render_from_bare_list(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "enumerate", "--genus", "1", "--ns", "1")
        records = json.loads(out)["strata"]
        path = write(tmp_path, "strata.json", records)
        rc, out, _ = run(capsys, "export-dot", path)
        assert rc == 0
        assert out.count("->") == 2
        assert "(1R)" in out

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", graph_to_json(colorful_graph()))
        _, first, _ = run(capsys, "export-dot", path)
        _, second, _ = run(capsys, "export-dot", path)
        assert first == second

    @staticmethod
    def strata_of(capsys, *argv):
        rc, out, _ = run(capsys, "enumerate", *argv)
        assert rc == 0
        return json.loads(out)

    @pytest.mark.parametrize(
        "poset, reverse, digest",
        [
            (False, False, "80e75ce9c965d08e4d72bacbbd21c76ed4d94fb81638a7bfb3ea9d881b7fc4af"),
            (True, False, "80e75ce9c965d08e4d72bacbbd21c76ed4d94fb81638a7bfb3ea9d881b7fc4af"),
            (False, True, "de2f704f2ca4360ef07d6be9467d31b863de08f6df17052e1e846022df8b4af2"),
        ],
    )
    def test_strata_bytes_are_pinned(self, tmp_path, capsys, poset, reverse, digest):
        """The (1; 2 NS; 2 R) document, with or without its poset, and its
        strata as a reversed bare list: node S{i} is document position i."""
        argv = ["--genus", "1", "--ns", "2", "--r", "2"] + ["--poset"] * poset
        doc = self.strata_of(capsys, *argv)
        if reverse:
            doc = doc["strata"][::-1]
        rc, out, _ = run(capsys, "export-dot", write(tmp_path, "s.json", doc))
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_an_empty_list_renders_the_empty_digraph(self, tmp_path, capsys):
        rc, out, err = run(capsys, "export-dot", write(tmp_path, "s.json", []))
        assert (rc, out, err) == (0, 'digraph "strata" {\n}\n', "")

    @pytest.mark.parametrize(
        "case", ["corolla", "nodal", "duplicate", "other genus", "unstable", "modular"]
    )
    def test_refuses_what_is_not_one_whole_enumeration(self, tmp_path, capsys, case):
        """Strata are every stratum of one enumeration, each once: a list
        missing some, repeating one or holding a foreign, unstable or
        modular graph is refused with exit 1 and one ``error:`` line."""
        # the corolla, then its two one-loop strata
        strata = self.strata_of(capsys, "--genus", "1", "--ns", "1")["strata"]
        whole = "export-dot takes every stratum of one enumeration exactly once"
        doc, message = {
            "corolla": (strata[:1], whole),
            "nodal": (strata[1:], whole),
            "duplicate": (strata + strata[:1], whole),
            "other genus": (
                self.strata_of(capsys, "--genus", "0", "--ns", "4")["strata"] + strata[:1],
                "not in the poset",
            ),
            "unstable": ([graph_to_json(star(0, 2))], "unstable"),
            "modular": ([graph_to_json(star(0, 3, modular=True))], "not in the poset"),
        }[case]
        rc, out, err = run(capsys, "export-dot", write(tmp_path, "s.json", doc))
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def script_env() -> dict[str, str]:
    """The environment, with this checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


# every subcommand that reads a file, as its argv up to the path
READERS = [
    ["validate"],
    ["validate", "--kind", "graph"],
    ["validate", "--kind", "morphism"],
    ["validate", "--kind", "curve"],
    ["lift", "--tree"],
    ["dual-graph"],
    ["dims"],
    ["evaluate"],
    ["export-dot"],
]
# inputs that no reader can take: a directory, bytes that are not UTF-8,
# and JSON documents of the wrong top-level type
UNREADABLE = {
    "dir": None,
    "bytes.json": b"\xff\xfe{",
    "number.json": b"5",
    "string.json": b'"x"',
    "null.json": b"null",
    "true.json": b"true",
}


class TestUnreadableInputs:
    """Every subcommand that reads a file refuses a file it cannot read or
    parse with exit code 2 and one ``error:`` line, and no traceback."""

    @staticmethod
    def make(tmp_path, name):
        path = tmp_path / name
        if UNREADABLE[name] is None:
            path.mkdir()
        else:
            path.write_bytes(UNREADABLE[name])
        return str(path)

    @pytest.mark.parametrize("name", UNREADABLE)
    @pytest.mark.parametrize("prefix", READERS, ids=" ".join)
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, prefix, name):
        rc, out, err = run(capsys, *prefix, self.make(tmp_path, name))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [{"strata": 5}, {"strata": True}, {"strata": "S0"}])
    def test_export_dot_refuses_strata_that_are_not_a_list(self, tmp_path, capsys, doc):
        rc, out, err = run(capsys, "export-dot", write(tmp_path, "s.json", doc))
        assert (rc, out) == (2, "")
        assert err == "error: strata must be a list of objects\n"

    @pytest.mark.parametrize("doc", [{"strata": [5]}, [5]])
    def test_export_dot_refuses_strata_entries_that_are_not_objects(self, tmp_path, capsys, doc):
        rc, out, err = run(capsys, "export-dot", write(tmp_path, "s.json", doc))
        assert (rc, out) == (2, "")
        assert err == "error: strata entries must be objects\n"

    @pytest.mark.parametrize("name", ["dir", "bytes.json"])
    def test_the_script_prints_no_traceback(self, tmp_path, name):
        proc = subprocess.run(
            [sys.executable, "-m", "susykit.cli", "validate", self.make(tmp_path, name)],
            capture_output=True,
            text=True,
            env=script_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_a_closed_output_is_not_an_input_error(self, tmp_path, monkeypatch):
        """A closed pipe on stdout is not mapped to exit 2: the command
        exits 1, writes nothing to stderr and points stdout at /dev/null."""
        path = write(tmp_path, "g.json", graph_to_json(star(0, 3)))

        def closed(*_):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "dumps", closed)
        stderr = io.StringIO()
        monkeypatch.setattr(sys, "stderr", stderr)
        with open(tmp_path / "out", "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["dims", path]) == 1
            stdout.write("dropped")
        assert stderr.getvalue() == ""
        assert (tmp_path / "out").read_text() == ""

    def test_the_script_exits_quietly_when_its_reader_stops(self):
        """The reader closes the pipe after a few bytes of a 400 kB output."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "susykit.cli", "enumerate", "--genus", "0", "--ns", "6"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=script_env(),
        )
        assert proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


def test_installed_script_smoke(tmp_path):
    doc = graph_to_json(star(0, 4))
    path = tmp_path / "g.json"
    path.write_text(dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "susykit.cli", "dims", str(path)],
        capture_output=True,
        text=True,
        env=script_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"even": 1, "odd": 2, "codim": [0, 0]}
