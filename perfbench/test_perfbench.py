"""Tests for the benchmark's own code: inputs, oracles, span arithmetic,
the speed clock and the result comparison.  None of them import susykit.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import signal
import sys
import types

import pytest

import bench_clock as bc
import bench_inputs as bi
import bench_tracing as bt
from compare import compare, spread, verdict


def _theta(r_tails: set[str]) -> tuple[dict, set[str]]:
    """Two vertices joined by three parallel edges, one tail on each."""
    g = {
        "vertices": ["u", "w"],
        "genus": {"u": 0, "w": 0},
        "boundary": {"a1": "u", "b1": "w", "a2": "u", "b2": "w", "a3": "u",
                     "b3": "w", "tu": "u", "tw": "w"},
        "involution": {"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2",
                       "a3": "b3", "b3": "a3", "tu": "tu", "tw": "tw"},
    }
    return g, r_tails


def test_inputs_are_deterministic_per_seed_and_differ_across_seeds():
    for make in (bi.lift_case, bi.surgery_case):
        first = [make(bi.rng_for("w", 7)) for _ in range(1)]
        again = [make(bi.rng_for("w", 7)) for _ in range(1)]
        assert first == again
        run = bi.rng_for("w", 7)
        seq7 = [make(run) for _ in range(20)]
        run = bi.rng_for("w", 8)
        seq8 = [make(run) for _ in range(20)]
        assert seq7 != seq8
    assert bi.rng_for("w", 7).random() != bi.rng_for("w", 7, "warmup").random()


def test_betti_number_and_lift_count_oracle():
    g, _ = _theta(set())
    assert bi.betti1(g) == 2
    assert bi.expected_lift_count(g, set()) == 4
    assert bi.expected_lift_count(g, {"tu", "tw"}) == 4
    # a loop adds one to b1; a second component with odd R tails kills lifts
    g["boundary"].update({"l1": "u", "l2": "u"})
    g["involution"].update({"l1": "l2", "l2": "l1"})
    assert bi.betti1(g) == 3
    other, _ = bi.random_shape(bi.rng_for("t", 0), 3, 0, 0, 1, prefix="x.")
    both = bi.union(g, other)
    assert bi.betti1(both) == 3
    assert len(bi.components(both)) == 2
    odd = {"tu", bi.tails_of(other)[0]}
    assert bi.expected_lift_count(both, odd) == 0
    tree, _ = bi.random_shape(bi.rng_for("t", 1), 5, 0, 0, 2)
    assert bi.betti1(tree) == 0
    assert bi.expected_lift_count(tree, set()) == 1


def test_parity_check_accepts_valid_and_rejects_invalid_colorings():
    g, r = _theta({"tu", "tw"})
    color = {f: bi.NS for f in g["involution"]}
    color.update({"tu": bi.R, "tw": bi.R, "a1": bi.R, "b1": bi.R})
    assert bi.parity_ok(g, color, r)
    assert not bi.parity_ok(g, color, set())          # tails off the partition
    assert not bi.parity_ok(g, {**color, "a2": bi.R, "b2": bi.R}, r)   # odd R at u and w
    assert not bi.parity_ok(g, {**color, "b1": bi.NS}, r)   # edge ends disagree
    del color["a3"]
    assert not bi.parity_ok(g, color, r)


def test_generated_colorings_pass_the_parity_check():
    rng = bi.rng_for("surgery", 3)
    for _ in range(200):
        g = bi.surgery_case(rng)["graph"]
        r = {t for t in bi.tails_of(g) if g["color"][t] == bi.R}
        assert len(r) % 2 == 0
        assert bi.parity_ok(g, g["color"], r)


def test_schroeder_numbers():
    assert [bi.schroeder(n) for n in range(1, 9)] == [1, 1, 4, 26, 236, 2752, 39208, 660032]


def test_shape_key_is_an_isomorphism_invariant():
    rng = bi.rng_for("shape", 0)
    for _ in range(50):
        g, _ = bi.random_shape(rng, 5, rng.randint(0, 3), 1, 2)
        labels = {t: t for t in bi.tails_of(g)}
        ren_f = {f: f"z{f}" for f in g["involution"]}
        ren_v = {v: f"q{i}" for i, v in enumerate(reversed(g["vertices"]))}
        h = {
            "vertices": [ren_v[v] for v in g["vertices"]],
            "genus": {ren_v[v]: k for v, k in g["genus"].items()},
            "boundary": {ren_f[f]: ren_v[v] for f, v in g["boundary"].items()},
            "involution": {ren_f[f]: ren_f[p] for f, p in g["involution"].items()},
        }
        assert bi.shape_key(g, labels) == bi.shape_key(h, {ren_f[t]: t for t in labels})
        bumped = dict(g, genus={**g["genus"], g["vertices"][0]: g["genus"][g["vertices"][0]] + 1})
        assert bi.shape_key(bumped, labels) != bi.shape_key(g, labels)


def test_plans_only_name_flags_present_at_their_step():
    rng = bi.rng_for("surgery", 4)
    for _ in range(100):
        case = bi.surgery_case(rng)
        inv = dict(case["graph"]["involution"])
        for step in case["first"] + case["second"]:
            if step[0] == "iso":
                inv = {f"{f}.{step[1]}": f"{p}.{step[1]}" for f, p in inv.items()}
                continue
            _, a, b = step
            if step[0] == "contract":
                assert inv[a] == b
            else:
                assert inv[a] == a and inv[b] == b
            if step[0] == "graft":
                inv[a], inv[b] = b, a
            else:
                del inv[a], inv[b]


def test_covered_time_is_the_union_of_intervals():
    assert bt.covered([]) == 0.0
    assert bt.covered([(1.0, 3.0), (2.0, 5.0), (6.0, 7.0)]) == 5.0
    assert bt.covered([(0.0, 10.0), (2.0, 3.0)]) == 10.0


def test_self_and_total_time_arithmetic():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0, -1),
        ("canon.canonical_form", 1.0, 3.0, 0, 0, -1),
        ("graphs.flags_at", 1.5, 2.0, 1, 0, 4),
        ("canon.canonical_form", 4.0, 8.0, 0, 0, -1),
        ("canon.canonical_form", 5.0, 6.0, 3, 0, -1),   # recursive call
    ]
    s = bt.summarize(spans)
    assert s["cli.main"]["self_s"] == 10.0 - 2.0 - 4.0
    assert s["canon.canonical_form"]["calls"] == 3
    assert s["canon.canonical_form"]["total_s"] == 2.0 + 4.0   # outermost only
    assert s["canon.canonical_form"]["self_s"] == (2.0 - 0.5) + (4.0 - 1.0) + 1.0
    assert s["graphs.flags_at"]["items"] == 4
    assert bt.calls_inside(spans, "canon.canonical_form", "canon.canonical_form") == 1
    assert bt.calls_inside(spans, "graphs.flags_at", "cli.main") == 1


def test_tracer_wraps_every_alias_and_restores_them():
    pkg = types.ModuleType("fakepkg")
    canon = types.ModuleType("fakepkg.canon")
    strata = types.ModuleType("fakepkg.strata")

    def canonical_form(x):
        return [x, x]

    canon.canonical_form = canonical_form
    strata.canonical_form = canonical_form
    strata.enumerate_strata = lambda n: [strata.canonical_form(i) for i in range(n)]
    mods = {"fakepkg": pkg, "fakepkg.canon": canon, "fakepkg.strata": strata}
    sys.modules.update(mods)
    try:
        tracer = bt.Tracer()
        tracer.install("fakepkg")
        assert canon.canonical_form is not canonical_form
        assert strata.canonical_form is canon.canonical_form
        tracer.op = 3
        strata.enumerate_strata(2)
        tracer.uninstall()
        assert canon.canonical_form is canonical_form
        assert strata.canonical_form is canonical_form
    finally:
        for name in mods:
            del sys.modules[name]
    names = [s[bt.NAME] for s in tracer.spans]
    assert names == ["strata.enumerate_strata", "canon.canonical_form", "canon.canonical_form"]
    assert [s[bt.PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert [s[bt.SIZE] for s in tracer.spans] == [2, 2, 2]
    assert {s[bt.OP] for s in tracer.spans} == {3}


def test_speed_normalization_scales_each_stretch_and_drops_probes():
    line = bc.Timeline(0.0, [(1.0, 1.1), (2.0, 2.1)], [0.5, 1.0])
    assert line.at(0.0) == 0.0
    assert line.at(3.0) == pytest.approx(0.5 + 0.9 + 0.9)
    assert line.at(1.05) == line.at(1.0) == line.at(1.1) == pytest.approx(0.5)
    assert line.at(1.8) - line.at(1.2) == pytest.approx(0.6)
    plain = bc.Timeline(0.0, [(1.0, 1.1), (2.0, 2.1)], [1.0, 1.0])
    assert plain.at(3.0) == pytest.approx(3.0 - 0.2)
    assert bc.Timeline(1.0, [], []).at(4.0) == 3.0
    # a lone slow probe is smoothed away; a lasting slowdown is not
    n = bc.NOMINAL_S
    assert bc.smoothed_speeds([1.0, 1.0, 9.0, 1.0, 1.0], window=3) == [n] * 5
    assert bc.smoothed_speeds([1.0, 1.0, 9.0, 9.0, 9.0], window=3) == [n, n, n / 9, n / 9, n / 9]


def test_speed_clock_is_not_rearmed_by_a_signal_handled_after_it_stopped():
    with bc.SpeedClock() as clock:
        pass
    clock._tick(signal.SIGALRM, None)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.ticks == []


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == (4.5 - 1.5) / 3.0
    assert verdict(base, [10.02, 9.98, 10.0, 10.01, 9.99, 10.0], "lower", 0.1) == "unchanged"
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.1) == "REGRESSION"
    assert verdict(base, [x * 0.8 for x in base], "lower", 0.1) == "better"
    assert verdict(base, [x * 0.8 for x in base], "higher", 0.1) == "REGRESSION"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 20.0]
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert verdict(noisy, [1.0, 1.5, 2.0, 2.5], "lower", 0.1) == "better"


def test_compare_is_unresolved_where_raw_and_normalized_times_disagree():
    bench = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.1}],
             "per_layer": []}

    def result(normalized, raw):
        return {"runs": {"w": [{"trace": 0, "failed": 0, "metrics": {"wall_s": n},
                                "raw": {"wall_s": r}} for n, r in zip(normalized, raw)]}}

    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    slower = [x * 1.2 for x in base]
    out = io.StringIO()
    assert compare(result(base, base), result(slower, slower), bench, out) == 1
    assert out.getvalue().rstrip().endswith("REGRESSION")
    # normalization hid a slowdown that the raw times show
    out = io.StringIO()
    assert compare(result(base, base), result(base, slower), bench, out) == 0
    assert out.getvalue().rstrip().endswith("unresolved (unchanged; raw REGRESSION)")
    # raw times too noisy to judge: the normalized verdict stands
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 20.0]
    out = io.StringIO()
    assert compare(result(base, base), result(slower, noisy), bench, out) == 1
