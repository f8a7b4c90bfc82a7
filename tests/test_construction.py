"""The calculus builds its graftings, contractions, isomorphisms, identities
and composites without checking their maps, and their target graphs
without checking them, and ``operad`` builds each stable graph's
signature and each glued, relabelled and erased target without checking
it, and ``lifting`` each colouring it lists, since all are valid by
construction; so is each dual graph that ``curves`` builds from a curve
configuration it has checked.  The oracle here records every morphism,
graph and signature built that way over seeded plans, curves and
commuting squares and checks each afresh with the full checks; a
contraction that drops a colour, a grafting that loses a genus or keeps
the labels of the tails it joined, an elementary builder that forgets the
genus a contracted loop adds, a lift that recolours an edge, a loop
gluing that forgets its genus, or a dual graph that recolours one side of
a node fails it.  The graphs built that way own their dicts: changing
one changes no other graph."""

import random
import sys
from contextlib import suppress
from itertools import combinations
from dataclasses import replace

import pytest

import susykit.calculus
import susykit.curves
import susykit.lifting
import susykit.operad
import susykit.susy
from susykit import (
    NS,
    R,
    GluingRecipe,
    ModuliFactor,
    SusyGraph,
    SusyKitError,
    SusyLabeling,
    atomize,
    check_operad_axioms,
    classify,
    colorless_dual_graph,
    commute_contractions,
    commute_iso_contraction,
    compose,
    contract_pair,
    contract_tails,
    decompose_to_elementaries,
    dual_graph,
    edges,
    enumerate_edge_colorings,
    evaluate_operad,
    graft,
    make_isomorphism,
    tails,
    total_grafting,
    validate_signature,
)
from susykit.graphs import GraphMorphism, _check_graph
from susykit.susy import _check_labeling, _check_maps

from conftest import two_vertex_tree
from sampling import (
    random_composable_pair,
    random_curve_config,
    random_modular_graph,
    random_susy_graph,
    random_tail_partition,
)

SEEDS = range(5)
KINDS = {
    "identity", "grafting", "edge_contraction", "loop_contraction",
    "virtual_contraction", "isomorphism", "composite",
}
# the builders that ask ``susy._valid`` for a graph: the calculus's (``_image``
# for every elementary target, ``_piece_graph`` for pieces), the lift's and
# the dual graph's
GRAPH_BUILDERS = {"_image", "_piece_graph", "_colorings", "_dual"}


def replace_everywhere(monkeypatch, fn, new):
    """Put ``new`` in place of ``fn`` in every susykit module that holds it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("susykit") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, new)


def record_unchecked(monkeypatch):
    """The morphisms that ``susy._built`` returns, the graphs that
    ``susy._valid`` returns, each listed under the name of the function
    that asked for it, and the signatures that ``operad._fresh_signature``
    builds from now on: a list, a dict and a list."""
    morphisms, graphs, signatures = [], {}, []
    built, valid = susykit.susy._built, susykit.susy._valid
    fresh = susykit.operad._fresh_signature

    def recording_built(*args):
        morphisms.append(built(*args))
        return morphisms[-1]

    def recording_valid(*args):
        g = valid(*args)
        graphs.setdefault(sys._getframe(1).f_code.co_name, []).append(g)
        return g

    def recording_fresh(*args):
        sig, position = fresh(*args)
        signatures.append(sig)
        return sig, position

    replace_everywhere(monkeypatch, built, recording_built)
    replace_everywhere(monkeypatch, valid, recording_valid)
    replace_everywhere(monkeypatch, fresh, recording_fresh)
    return morphisms, graphs, signatures


def contractible_pairs(g):
    """The edges of ``g``, loops included, and its pairs of same-coloured
    tails."""
    same = [(a, b) for a, b in combinations(tails(g.graph), 2) if g.color_of(a) == g.color_of(b)]
    return edges(g.graph) + same


def run_calculus(seed):
    """Seeded plans over every builder of the calculus, each evaluated (so
    every graph reached reads its signature), decomposed and atomized,
    both dual graphs of seeded curves, seeded isomorphisms slid past a
    contraction and pairs of contractions commuted, then the operad's
    axiom check."""
    rng = random.Random(seed)
    for _ in range(20):
        g = random_susy_graph(rng, max_vertices=4, max_genus=2, max_extra_edges=2)
        h, f = random_composable_pair(rng, g)
        whole = compose(h, f)
        for m in (h, f, whole, total_grafting(g)):
            evaluate_operad(m)
        for order in ("lex", "reverse"):
            for step in decompose_to_elementaries(whole, order=order):
                evaluate_operad(step.morphism)
        atomize(whole)
    for _ in range(20):
        c = random_curve_config(rng)
        dual_graph(c)
        colorless_dual_graph(c)
    for _ in range(20):
        g = random_susy_graph(rng, max_vertices=4, max_genus=2, max_extra_edges=2)
        # an isomorphism that permutes the names of the flags and vertices
        flags, vertices = sorted(g.flags), sorted(g.vertices)
        a = make_isomorphism(
            g,
            dict(zip(flags, rng.sample(flags, len(flags)))),
            dict(zip(vertices, rng.sample(vertices, len(vertices)))),
        )
        if pairs := contractible_pairs(a.target):
            commute_iso_contraction(a, rng.choice(pairs))
        disjoint = [
            (p, q) for p, q in combinations(contractible_pairs(g), 2) if not set(p) & set(q)
        ]
        if disjoint:
            commute_contractions(g, *rng.choice(disjoint))
    assert check_operad_axioms(seed=seed, cases=20).passed


def fresh_graph_check(g):
    """The graph axioms of ``g``, then its labeling checks, run afresh."""
    report = _check_graph(g.graph)
    return _check_labeling(g) if report.ok else report


def fails_a_fresh_check(morphisms, graphs, signatures):
    """Each recorded morphism, graph or signature that its full check
    refuses."""
    bad = [m for m in morphisms if not _check_maps(replace(m)).ok]
    bad += [g for gs in graphs.values() for g in gs if not fresh_graph_check(g).ok]
    return bad + [s for s in signatures if not validate_signature(s).ok]


@pytest.mark.parametrize("seed", SEEDS)
def test_what_is_built_unchecked_passes_a_fresh_check(monkeypatch, seed):
    morphisms, graphs, signatures = record_unchecked(monkeypatch)
    run_calculus(seed)
    assert fails_a_fresh_check(morphisms, graphs, signatures) == []
    # every builder was reached
    assert {classify(m).kind for m in morphisms} == KINDS
    assert graphs.keys() == GRAPH_BUILDERS
    assert signatures


@pytest.mark.parametrize("seed", SEEDS)
def test_every_coloring_passes_a_fresh_check(seed):
    # the lifts keep a passing report unchecked, so each colouring of the
    # seeded graphs is checked here afresh, for a few partitions each
    rng = random.Random(seed)
    for _ in range(20):
        shape = random_modular_graph(rng, max_vertices=4, max_genus=2, max_extra_edges=3)
        for _ in range(3):
            colorings = enumerate_edge_colorings(shape, *random_tail_partition(rng, shape))
            assert colorings
            for c in colorings:
                assert _check_graph(c.graph).ok and _check_labeling(c).ok


def dicts_of(g):
    """The dicts of ``g``: its graph's two and its labeling's four."""
    lab = g.labeling
    return [g.boundary, g.involution, lab.genus, lab.color, lab.ns_tail_labels, lab.r_tail_labels]


@pytest.mark.parametrize(
    "build",
    [
        lambda g: graft(g, [("a0", "b0")]),
        lambda g: contract_pair(g, ("ea", "eb")),
        lambda g: contract_tails(g, ("a0", "a1")),
        lambda g: make_isomorphism(g, {"a0": "z"}, {"u": "x"}),
        make_isomorphism,
        total_grafting,
    ],
    ids=["graft", "contract_pair", "contract_tails", "make_isomorphism", "renamed_as_is",
         "total_grafting"],
)
def test_built_graphs_share_no_mutable_state(build):
    # the built graph is the target, or the corollas of a total grafting
    g = two_vertex_tree(2, 2)
    h = build(g)
    built, given = (h.source, h.target) if build is total_grafting else (h.target, h.source)
    assert given is g
    before = [dict(d) for d in dicts_of(g)]
    for d in dicts_of(built):
        d.clear()
    assert dicts_of(g) == before


def rebuilt(h, target):
    """``h``'s maps onto ``target``, through the calculus's builder."""
    m = h.map
    return susykit.calculus._built(
        h.source,
        target,
        GraphMorphism(m.source, target.graph, m.flag_map, m.vertex_map, m.contracted),
    )


def colour_dropping(contract):
    """``_contracted`` with every flag of its target coloured NS."""

    def dropped(g, pair):
        h = contract(g, pair)
        lab = h.target.labeling
        colour = dict.fromkeys(lab.color, NS)
        labels = {**lab.ns_tail_labels, **lab.r_tail_labels}
        target = SusyGraph(
            h.target.graph,
            SusyLabeling(lab.genus, colour, labels, {}),
            h.target.modular,
        )
        return rebuilt(h, target)

    return dropped


def genus_losing(graft):
    """``_grafted`` with one less genus at its target's highest-genus vertex."""

    def lost(g, pairs):
        h = graft(g, pairs)
        lab = h.target.labeling
        v = max(sorted(lab.genus), key=lab.genus.__getitem__)
        genus = {**lab.genus, v: lab.genus[v] - 1}
        target = replace(
            h.target,
            labeling=SusyLabeling(genus, lab.color, lab.ns_tail_labels, lab.r_tail_labels),
        )
        return rebuilt(h, target)

    return lost


def tail_label_keeping(graft):
    """``_grafted`` whose target keeps the labels of the tails it joined, so
    its tail labelling is no longer a bijection onto its tails."""

    def kept(g, pairs):
        h = graft(g, pairs)
        lab = h.target.labeling
        labels = SusyLabeling(
            lab.genus, lab.color, g.labeling.ns_tail_labels, g.labeling.r_tail_labels
        )
        # looked up at call time, so a recording ``_valid`` sees it
        target = susykit.susy._valid(h.target.graph, labels, h.target.modular)
        return rebuilt(h, target)

    return kept


def loop_genus_dropping(image):
    """``calculus._image`` without the genus that each contracted loop adds."""

    def dropped(g, flag_name, vertex_name, contracted=(), grafted=()):
        h = image(g, flag_name, vertex_name, contracted, grafted)
        loops = [a for a, b in contracted if g.boundary[a] == g.boundary[b]]
        if not loops:
            return h
        lab = h.target.labeling
        genus = dict(lab.genus)
        for a in loops:
            genus[vertex_name[g.boundary[a]]] -= 1
        labels = SusyLabeling(genus, lab.color, lab.ns_tail_labels, lab.r_tail_labels)
        return rebuilt(h, replace(h.target, labeling=labels))

    return dropped


def edge_recolouring(colorings):
    """``lifting._colorings`` with both flags of one edge between two
    vertices recoloured, so each of its ends sees an odd number of R flags."""

    def recoloured(g, *args):
        out = colorings(g, *args)
        links = [(a, b) for a, b in g.involution.items() if g.boundary[a] != g.boundary[b]]
        if out and links:
            color = out[0].labeling.color
            for f in links[0]:
                color[f] = R if color[f] == NS else NS
        return out

    return recoloured


def node_recolouring(dual):
    """``curves._dual`` with one half of its first node recoloured, so the
    node's two halves disagree."""

    def recoloured(c, modular):
        g = dual(c, modular)
        nodes = [f for f, p in g.involution.items() if f != p]
        if nodes:
            color = g.labeling.color
            color[nodes[0]] = R if color[nodes[0]] == NS else NS
        return g

    return recoloured


def loop_genus_forgetting(glue):
    """``operad._glue`` with a loop's target factor left at its old genus."""

    def forgot(sig, a, b, color, loop):
        r = glue(sig, a, b, color, loop)
        if not loop:
            return r
        t = r.assignment[sig.factor_of(a)]
        factors = list(r.target.factors)
        f = factors[t]
        factors[t] = ModuliFactor(f.genus - 1, f.ns_labels, f.r_labels)
        # looked up at call time, so a recording ``_fresh_signature`` sees it
        target, position = susykit.operad._fresh_signature(factors, sig.mode)
        assignment = [position[k] for k in r.assignment]
        return GluingRecipe(sig, target, assignment, r.ns_gluings, r.r_gluings, r.relabeling)

    return forgot


@pytest.mark.parametrize(
    "module, name, breaking",
    [
        (susykit.calculus, "_contracted", colour_dropping),
        (susykit.calculus, "_grafted", genus_losing),
        (susykit.calculus, "_grafted", tail_label_keeping),
        (susykit.calculus, "_image", loop_genus_dropping),
        (susykit.lifting, "_colorings", edge_recolouring),
        (susykit.operad, "_glue", loop_genus_forgetting),
        (susykit.curves, "_dual", node_recolouring),
    ],
    ids=[
        "contract_drops_a_colour",
        "graft_loses_a_genus",
        "graft_keeps_its_tail_labels",
        "image_drops_a_loop_genus",
        "lift_recolours_an_edge",
        "loop_forgets_its_genus",
        "dual_recolours_a_node",
    ],
)
def test_the_oracle_sees_a_broken_builder(monkeypatch, module, name, breaking):
    fn = getattr(module, name)
    replace_everywhere(monkeypatch, fn, breaking(fn))
    morphisms, graphs, signatures = record_unchecked(monkeypatch)
    for seed in SEEDS:
        # downstream checks may refuse what the broken builder made
        with suppress(SusyKitError):
            run_calculus(seed)
    assert fails_a_fresh_check(morphisms, graphs, signatures)
