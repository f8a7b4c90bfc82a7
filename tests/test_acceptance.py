"""Acceptance gate: the package-level guarantees, checked at full scale.

Each test here exercises one guarantee end to end, at the sample sizes
and time budgets the library is expected to sustain.  Every randomized
check runs against an independent oracle from tests/oracles.py (brute
force enumeration, union-find genus, exhaustive isomorphism search)
rather than against the library's own internals.

Run with `pytest tests/test_acceptance.py -v` for one line per
guarantee.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from functools import reduce

from oracles import (
    brute_color_sets,
    brute_strata,
    color_set_of,
    forest_b1,
    local_dimension,
    oracle_genus,
)
from sampling import (
    random_composable_pair,
    random_curve_config,
    random_modular_tree,
    random_morphism,
    random_susy_graph,
    random_tail_partition,
)
from test_strata import match_one_to_one

from susykit import (
    check_operad_axioms,
    colorless_dual_graph,
    compose,
    count_even_partitions,
    count_lifts,
    decompose_to_elementaries,
    dual_graph,
    enumerate_strata,
    enumerate_strata_records,
    evaluate_operad,
    forget,
    genus,
    identity_recipe,
    is_stable,
    lift_count_general,
    lift_tree_coloring,
    project,
    recipe_compose,
    stratum_dimension,
    susy_identity,
    total_grafting,
    validate_susy_graph,
)
from susykit.graphs import edges, tails


def test_criterion_1_unique_tree_lift():
    # 200 stable modular trees with at most 12 tails; for at least 5
    # distinct even tail partitions each, the lift exists, validates,
    # and brute force over all 2^#E colorings finds exactly that one.
    start = time.monotonic()
    rng = random.Random(101)
    partitions_checked = 0
    for _ in range(200):
        tree = random_modular_tree(rng, max_vertices=5, extra_tails=3)
        assert len(tails(tree.graph)) <= 12
        assert is_stable(tree)

        seen: set[frozenset[str]] = set()
        attempts = 0
        while len(seen) < 5 and attempts < 200:
            ns, r = random_tail_partition(rng, tree)
            attempts += 1
            key = frozenset(r)
            if key in seen:
                continue
            seen.add(key)
            lifted = lift_tree_coloring(tree, ns, r)
            rep = validate_susy_graph(lifted)
            assert rep.ok, rep.violations
            found = brute_color_sets(tree, ns, r)
            assert found == [color_set_of(lifted)]
            partitions_checked += 1
        assert len(seen) >= 5
    assert partitions_checked >= 1000
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_lift_count_on_trees():
    # 100 stable trees: among all 2^#T tail partitions, exactly
    # 2^(#T-1) (the even ones) admit lifts, matching count_lifts.
    start = time.monotonic()
    rng = random.Random(202)
    for _ in range(100):
        tree = random_modular_tree(rng, max_vertices=3, extra_tails=2)
        labels = sorted(tree.ns_labels())
        k = len(labels)
        assert k <= 8

        good = 0
        for size in range(k + 1):
            for combo in itertools.combinations(labels, size):
                r = set(combo)
                ns = set(labels) - r
                try:
                    lifted = lift_tree_coloring(tree, ns, r)
                except Exception:
                    assert size % 2 == 1
                    continue
                assert size % 2 == 0
                assert validate_susy_graph(lifted).ok
                good += 1
        assert good == 2 ** (k - 1)
        assert count_lifts(tree) == 2 ** (k - 1)
        assert count_even_partitions(k) == 2 ** (k - 1)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_genus_and_dimension_formulas():
    # 500 random valid stable graphs: total genus equals the sum of
    # vertex genera plus the first Betti number, and the closed even
    # and odd dimension formulas equal the per-vertex sums, exactly.
    start = time.monotonic()
    rng = random.Random(303)
    for _ in range(500):
        g = random_susy_graph(rng)
        assert is_stable(g)

        b1 = forest_b1(g.graph)
        total = sum(g.genus_of(v) for v in g.graph.vertices) + b1
        assert genus(g) == oracle_genus(g) == total

        edge_list = edges(g.graph)
        tail_list = tails(g.graph)
        ns_tails = [t for t in tail_list if g.color_of(t) == "NS"]
        r_tails = [t for t in tail_list if g.color_of(t) == "R"]
        closed_even = 3 * total - 3 + len(tail_list) - len(edge_list)
        closed_odd = 2 * total - 2 + len(ns_tails) + Fraction(len(r_tails), 2)

        dim = stratum_dimension(g)
        assert (dim.even, dim.odd) == (closed_even, closed_odd) == local_dimension(g)
        assert type(dim.odd) is int
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_4_evaluation_is_functorial():
    # 200 composable pairs over graphs with at most 6 vertices: the
    # recipe of a composite is the composite of the recipes, and the
    # total grafting of each graph evaluates to an identity recipe.
    start = time.monotonic()
    rng = random.Random(404)
    for _ in range(200):
        g = random_susy_graph(rng, max_vertices=6)
        assert len(g.graph.vertices) <= 6
        h, f = random_composable_pair(rng, g, max_steps=3)

        lhs = evaluate_operad(compose(h, f))
        rhs = recipe_compose(evaluate_operad(h), evaluate_operad(f))
        assert lhs == rhs

        graft = total_grafting(g)
        rec = evaluate_operad(graft)
        assert rec == identity_recipe(rec.source)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_5_decomposition_order_independence_and_axioms():
    # 200 random morphisms: folding the evaluated elementary pieces in
    # two independent decomposition orders gives the same recipe as
    # evaluating the morphism whole.  Then the six generator-relation
    # families each pass 100 randomized instances.
    start = time.monotonic()
    rng = random.Random(505)
    for _ in range(200):
        g = random_susy_graph(rng)
        h = random_morphism(rng, g, max_steps=3)

        folds = []
        for order in ("lex", "reverse"):
            steps = decompose_to_elementaries(h, order=order)
            base = evaluate_operad(susy_identity(h.source))
            rec = reduce(
                recipe_compose,
                (evaluate_operad(s.morphism) for s in steps),
                base,
            )
            folds.append(rec)
        assert folds[0] == folds[1]
        assert folds[0] == evaluate_operad(h)

    report = check_operad_axioms(seed=20260819, cases=100)
    assert report.passed, report.failures
    assert set(report.checked) == {
        "relabel_compose",
        "relabel_loop",
        "relabel_edge",
        "loops_commute",
        "loop_edge",
        "edges_commute",
    }
    for family, n in report.checked.items():
        assert n >= 100, family
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_projection_square_commutes():
    # 200 random morphisms: projecting the evaluated recipe equals
    # evaluating the color-forgetting image of the morphism.
    start = time.monotonic()
    rng = random.Random(606)
    for _ in range(200):
        g = random_susy_graph(rng)
        h = random_morphism(rng, g, max_steps=3)
        assert project(evaluate_operad(h)) == evaluate_operad(forget(h))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_7_strata_counts_match_brute_force():
    # The stratum counts for four small signatures, each cross-checked
    # against an independent brute-force generator, with per-shape
    # coloring counts equal to 2^b1 of the shape.
    start = time.monotonic()
    four = ["1", "2", "3", "4"]
    five = four + ["5"]
    cases = [
        (0, four, [], 4),
        (0, ["1", "2"], ["3", "4"], 4),
        (1, ["1"], [], 3),
        (0, five, [], 26),
    ]
    for g0, ns, r, expected in cases:
        strata = enumerate_strata(g0, ns, r)
        assert len(strata) == expected, (g0, ns, r)

        bound = 3 * g0 - 3 + len(ns) + len(r)
        brute = brute_strata(g0, ns, r, bound)
        assert len(brute) == expected
        match_one_to_one(strata, brute)

        for rec in enumerate_strata_records(g0, ns, r):
            b1 = forest_b1(rec.shape.graph)
            assert rec.predicted_colorings == 2**b1
            assert lift_count_general(rec.shape, set(ns), set(r)) == 2**b1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_8_dual_graph_reduction():
    # 200 fuzzed curve configurations: forgetting colors on the dual
    # graph gives exactly the dual graph built without colors.
    start = time.monotonic()
    rng = random.Random(808)
    for _ in range(200):
        c = random_curve_config(rng)
        assert forget(dual_graph(c)) == colorless_dual_graph(c)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
