"""The four workloads: set-up, the timed operations, and output checks.

A workload's ``setup(sk, seed, seconds)`` builds plain inputs (and may
warm up on other inputs); ``run(sk, state, tracer)`` performs the timed
operations and returns ``(intervals, ops, outputs)``: the
``(start, end)`` ``perf_counter`` readings around every call into the
program, which together make up the timed phase; those of them that are
single operations (None when operations are not timed one by one); and
the raw outputs;
``check(state, outputs)`` scores them against independent oracles and
returns ``(attempted, failed, problems, digest)``, where ``digest``
fingerprints the outputs so a traced run can be compared with an
untraced one.  ``sk`` is the freshly imported ``susykit`` package, with
``susykit.cli`` loaded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from functools import reduce
from time import perf_counter

import bench_inputs as bi

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)

# Operations per requested second of run time, sized so a run at the
# baseline commit takes about --seconds on a 2-core x86 machine; the
# count depends only on --seconds, never on the measured speed.
LIFT_OPS_PER_S = 900
SURGERY_OPS_PER_S = 250
AXIOM_CASES_PER_S = 10
WARMUP_OPS = 20


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(json.dumps(p, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


# --------------------------------------------------------------------------
# strata: one in-process CLI invocation; each emitted stratum is one op


class Strata:
    def __init__(self, name: str, genus: int, ns: int, extra: list[str]) -> None:
        self.name = name
        self.genus = genus
        self.ns = {str(i) for i in range(1, ns + 1)}
        self.argv = ["enumerate", "--genus", str(genus), "--ns", str(ns), *extra, "--poset"]
        self.expected = EXPECTED[name]
        self.strata = self.expected["strata"]

    def setup(self, sk, seed, seconds):
        # A CLI user pays the cold cost on every invocation: no warm-up.
        return self.argv

    def run(self, sk, argv, tracer=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            rc = sk.cli.main(argv)
            t1 = perf_counter()
        return [(t0, t1)], None, (rc, buf.getvalue())

    def check(self, argv, outputs):
        rc, text = outputs
        want = self.expected["strata"]
        digest = hashlib.sha256(text.encode()).hexdigest()
        try:
            return (*self._check(rc, json.loads(text)), digest)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return want, want, [f"exit code {rc}, unreadable output: {exc!r}"], digest

    def _check(self, rc, doc):
        want = self.expected["strata"]
        strata = doc["strata"]
        ranks = doc["poset"]["ranks"]
        covers = doc["poset"]["covers"]
        problems = []
        bad = []
        for rec in strata:
            found = bi.stratum_problems(rec, self.genus, self.ns, set())
            if found:
                bad.append(f"stratum {rec.get('certificate')}: {found}")
        if self.genus == 0 and want != bi.schroeder(len(self.ns) - 1):
            problems.append("recorded count is not the Schroeder number")
        if doc["count"] != want or len(strata) != want:
            problems.append(f"{len(strata)} strata, expected {want}")
        if len({rec["certificate"] for rec in strata}) != len(strata):
            problems.append("repeated certificates")
        if ranks != [len(rec["edges"]) for rec in strata]:
            problems.append("ranks are not edge counts")
        per_rank: dict[str, int] = {}
        for r in ranks:
            per_rank[str(r)] = per_rank.get(str(r), 0) + 1
        if per_rank != self.expected["per_rank"]:
            problems.append(f"per-rank counts {per_rank}")
        pairs: dict[str, int] = {}
        for i, targets in covers.items():
            for j in targets:
                if ranks[int(i)] - ranks[j] != 1:
                    problems.append(f"cover {i}->{j} does not drop rank by 1")
                key = f"{ranks[int(i)]}->{ranks[j]}"
                pairs[key] = pairs.get(key, 0) + 1
        if pairs != self.expected["covers"]:
            problems.append(f"per-rank-pair cover counts {pairs}")
        shapes = {bi.shape_key(*bi.stratum_from_json(rec)) for rec in strata}
        if len(shapes) != self.expected["shapes"]:
            problems.append(f"{len(shapes)} shapes, expected {self.expected['shapes']}")
        if rc != 0:
            problems.append(f"exit code {rc}")
        # a wrong count or order condemns the whole output
        attempted = max(want, len(strata))
        failed = attempted if problems else len(bad)
        return attempted, failed, problems + bad


# --------------------------------------------------------------------------
# lift: one op colors one seeded modular graph


def _modular(sk, g):
    return sk.modular_graph(
        flags=g["involution"], vertices=g["vertices"], boundary=g["boundary"],
        involution=g["involution"], genus=g["genus"])


class Lift:
    name = "lift"
    strata = 0

    def setup(self, sk, seed, seconds):
        warm = bi.rng_for(self.name, seed, "warmup")
        for _ in range(WARMUP_OPS):
            self._op(sk, bi.lift_case(warm))
        rng = bi.rng_for(self.name, seed)
        return [bi.lift_case(rng) for _ in range(LIFT_OPS_PER_S * seconds)]

    @staticmethod
    def _op(sk, case):
        g = _modular(sk, case["graph"])
        r = set(case["r"])
        ns = set(bi.tails_of(case["graph"])) - r
        count = sk.lift_count_general(g, ns, r)
        colorings = sk.enumerate_edge_colorings(g, ns, r)
        lifted = sk.lift_tree_coloring(g, ns, r) if case["tree"] else None
        return count, colorings, lifted

    def run(self, sk, cases, tracer=None):
        intervals, outputs = [], []
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            try:
                count, colorings, lifted = self._op(sk, case)
            except Exception as exc:  # scored as a failed operation
                intervals.append((t0, perf_counter()))
                outputs.append(repr(exc))
                continue
            intervals.append((t0, perf_counter()))
            # Keep only the R flags, read through the public accessor, as
            # tuples of strings, which the garbage collector stops tracking:
            # memory stays flat and the program's collections stay cheap.
            flags = sorted(case["graph"]["involution"])
            outputs.append((
                count,
                tuple(tuple(f for f in flags if c.color_of(f) == bi.R) for c in colorings),
                None if lifted is None else tuple(f for f in flags if lifted.color_of(f) == bi.R),
            ))
        return intervals, intervals, outputs

    def check(self, cases, outputs):
        failed, problems = 0, []
        for i, (case, out) in enumerate(zip(cases, outputs)):
            why = self._problem(case, out)
            if why:
                failed += 1
                problems.append(f"op {i}: {why}")
        return len(cases), failed, problems, _sha(outputs)

    @staticmethod
    def _problem(case, out):
        if isinstance(out, str):
            return out
        count, colorings, lifted = out
        g, r = case["graph"], set(case["r"])
        want = bi.expected_lift_count(g, r)
        if count != want or len(colorings) != want:
            return f"{count} counted, {len(colorings)} listed, expected {want}"
        if len(set(colorings)) != len(colorings):
            return "repeated coloring"
        for r_flags in colorings + ((lifted,) if lifted is not None else ()):
            color = {f: (bi.R if f in r_flags else bi.NS) for f in g["involution"]}
            if not bi.parity_ok(g, color, r):
                return "coloring fails the parity check"
        if case["tree"] and colorings != (lifted,):
            return "tree lift differs from the unique coloring"
        return None


# --------------------------------------------------------------------------
# surgery: one op builds two composable morphisms from a move plan and
# checks functoriality and decomposition; check-axioms instances are ops too


def _apply_plan(sk, g, plan):
    out, current = sk.susy_identity(g), g
    for step in plan:
        kind = step[0]
        if kind == "contract":
            m = sk.contract_pair(current, step[1:])
        elif kind == "graft":
            m = sk.graft(current, [step[1:]])
        elif kind == "virtual":
            m = sk.contract_tails(current, step[1:])
        else:
            s = step[1]
            m = sk.make_isomorphism(
                current,
                flag_renaming={f: f"{f}.{s}" for f in current.flags},
                vertex_renaming={v: f"{v}.{s}" for v in current.vertices},
            )
        out = sk.compose(out, m)
        current = m.target
    return out


class Surgery:
    name = "surgery"
    strata = 0

    def setup(self, sk, seed, seconds):
        warm = bi.rng_for(self.name, seed, "warmup")
        for _ in range(WARMUP_OPS):
            self._op(sk, bi.surgery_case(warm))
        rng = bi.rng_for(self.name, seed)
        cases = [bi.surgery_case(rng) for _ in range(SURGERY_OPS_PER_S * seconds)]
        axioms = ["check-axioms", "--cases", str(AXIOM_CASES_PER_S * seconds),
                  "--seed", str(seed)]
        return cases, axioms

    @staticmethod
    def _op(sk, case):
        g = sk.susy_graph(
            flags=case["graph"]["involution"], vertices=case["graph"]["vertices"],
            boundary=case["graph"]["boundary"], involution=case["graph"]["involution"],
            genus=case["graph"]["genus"], color=case["graph"]["color"])
        h = _apply_plan(sk, g, case["first"])
        f = _apply_plan(sk, h.target, case["second"])
        whole = sk.compose(h, f)
        rec = sk.evaluate_operad(whole)
        functorial = rec == sk.recipe_compose(sk.evaluate_operad(h), sk.evaluate_operad(f))
        grafted = sk.evaluate_operad(sk.total_grafting(g))
        graft_identity = grafted == sk.identity_recipe(grafted.source)
        base = sk.evaluate_operad(sk.susy_identity(whole.source))
        folds = [
            reduce(sk.recipe_compose,
                   (sk.evaluate_operad(s.morphism)
                    for s in sk.decompose_to_elementaries(whole, order=order)),
                   base)
            for order in ("lex", "reverse")
        ]
        return functorial, graft_identity, folds[0] == folds[1] == rec, rec

    def run(self, sk, state, tracer=None):
        cases, axioms = state
        intervals, outputs = [], []
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            try:
                out = self._op(sk, case)
            except Exception as exc:  # scored as a failed operation
                out = repr(exc)
            intervals.append((t0, perf_counter()))
            if not isinstance(out, str):
                # a string: untracked by the garbage collector
                out = (*out[:3], json.dumps(sk.jsonio.recipe_to_json(out[3]), sort_keys=True))
            outputs.append(out)
        if tracer is not None:
            tracer.op = len(cases)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            rc = sk.cli.main(axioms)
            t1 = perf_counter()
        return intervals + [(t0, t1)], intervals, (outputs, rc, buf.getvalue())

    def check(self, state, outputs):
        cases, axioms = state
        results, rc, text = outputs
        failed, problems = 0, []
        for i, out in enumerate(results):
            if isinstance(out, str) or not all(out[:3]):
                failed += 1
                problems.append(f"op {i}: {out if isinstance(out, str) else out[:3]}")
        cases_each = int(axioms[2])
        instances = 6 * cases_each  # six relation families, cases_each apiece
        try:
            report = json.loads(text)
            counts = list(report["checked"].values())
            instances = sum(counts)
            ok = (rc == 0 and report["passed"] is True and len(counts) > 0
                  and all(n == cases_each for n in counts))
        except (ValueError, KeyError, TypeError, AttributeError):
            ok = False
        if not ok:
            failed += instances
            problems.append(f"check-axioms: exit {rc}, {text[:200]!r}")
        return len(cases) + instances, failed, problems, _sha([results, text])


WORKLOADS = {
    "strata_tree": Strata("strata_tree", 0, 7, []),
    "strata_closed": Strata("strata_closed", 4, 0, ["--max-edges", "9"]),
    "lift": Lift(),
    "surgery": Surgery(),
}
