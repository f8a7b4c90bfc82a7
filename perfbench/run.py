"""susykit benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads and metrics are defined in ``BENCHMARK.json``.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off.  Their times are normalized to a fixed reference speed by
``bench_clock.SpeedClock``, because on a shared machine the speed a process
gets drifts by tens of percent between runs; the raw readings are printed
alongside, on lines ``raw NAME VALUE``.  With ``--trace 1`` it runs the
workload traced first (so the per-layer numbers describe the cold path),
then once more untraced on the same inputs, checks that both produced
identical outputs, reports the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out/``.  Span times are
normalized like all other times.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The process
exits 2 without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import bench_tracing as bt
from bench_clock import SpeedClock
from bench_workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up is repeated and its median reported, so that set-up time is a
# steady metric.  Every round is cold, as a CLI user's is: the run's own
# set-up, then the others each in a fresh interpreter.
SETUP_ROUNDS = 5

# Set iteration order, and with it the order some searches take, follows
# the string hash seed; pinning it keeps run-to-run times comparable.
HASH_SEED = "0"


def set_up(wl, seed, seconds):
    """One cold set-up: import susykit and build the workload's inputs.
    Returns the normalized and raw set-up times and the set-up state."""
    with SpeedClock() as clock:
        t0 = perf_counter()
        sk = importlib.import_module("susykit")
        importlib.import_module("susykit.cli")
        state = wl.setup(sk, seed, seconds)
        t1 = perf_counter()
    return clock.normalize(t0, t1), clock.raw(t0, t1), sk, state


def more_set_ups(args) -> list[tuple[float, float]]:
    """``SETUP_ROUNDS - 1`` more cold set-ups, one fresh interpreter each."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; "
            "from bench_workloads import WORKLOADS; "
            "print(*run.set_up(WORKLOADS[sys.argv[3]], *map(int, sys.argv[4:6]))[:2])")
    cmd = [sys.executable, "-c", code, HERE, SRC, args.workload, str(args.seed), str(args.seconds)]
    rounds = []
    for _ in range(SETUP_ROUNDS - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        normalized, raw = map(float, proc.stdout.split())
        rounds.append((normalized, raw))
    return rounds


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(duration, intervals, ops, attempted, setup, peak_rss_mb) -> dict:
    """End-to-end metrics from the readings around the timed calls and
    around single operations, the set-up times and the peak memory;
    ``duration(a, b)`` turns two readings into seconds."""
    wall = sum(duration(a, b) for a, b in intervals)
    if ops is None:
        # operations are emitted in one batch: each costs the batch average
        p50 = p99 = wall * 1000.0 / attempted
    else:
        ms = [duration(a, b) * 1000.0 for a, b in ops]
        p50, p99 = quantile(ms, 50), quantile(ms, 99)
    return {
        "wall_s": (wall, "s"),
        "ops_per_s": (attempted / wall, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p99_ms": (p99, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(spans, workload) -> dict:
    s = bt.summarize(spans)

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    out = {}
    canon_calls = get("canon.canonical_form", "calls")
    for key in ("calls", "self_s", "total_s"):
        out[f"canon.canonical_form.{key}"] = get("canon.canonical_form", key)
    out["canon.certificate_digest.calls"] = get("canon.certificate_digest", "calls")
    out["canon.calls_per_stratum"] = canon_calls / workload.strata if workload.strata else 0.0
    for fn in ("enumerate_strata", "enumerate_modular_shapes", "contraction_poset"):
        out[f"strata.{fn}.total_s"] = get(f"strata.{fn}", "total_s")
    inside = bt.calls_inside(spans, "canon.canonical_form", "strata.enumerate_modular_shapes")
    kept = get("strata.enumerate_modular_shapes", "items")
    out["strata.shapes_per_canon_call"] = kept / inside if inside else 0.0
    for name in (
        "lifting.lift_count_general", "lifting.enumerate_edge_colorings",
        "lifting.lift_tree_coloring", "gf2.solve_gf2",
        "susy.validate_susy_graph", "susy.validate_susy_morphism", "susy.is_stable",
        "susy.compose", "graphs.flags_at",
        "calculus.contract_pair", "calculus.decompose_to_elementaries",
        "operad.evaluate_operad", "operad.recipe_compose", "operad.check_operad_axioms",
    ):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.total_s"] = get(name, "total_s")
    out["lifting.colorings_emitted"] = get("lifting.enumerate_edge_colorings", "items")
    out["jsonio.graph_to_json.total_s"] = get("jsonio.graph_to_json", "total_s")
    out["jsonio.dumps.total_s"] = get("jsonio.dumps", "total_s")
    out["cli.self_s"] = get("cli.main", "self_s")
    out["trace.spans"] = len(spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)

    if not os.path.isfile(os.path.join(SRC, "susykit", "__init__.py")):
        print(f"error: no susykit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    setup_s, setup_raw_s, sk, state = set_up(wl, args.seed, args.seconds)
    # The benchmark's own inputs should not weigh on the program's garbage
    # collections: move everything alive now out of the collector's view.
    gc.collect()
    gc.freeze()
    if not args.trace:
        with SpeedClock() as clock:
            intervals, ops, outputs = wl.run(sk, state)
        # read before the checks, whose parsing would otherwise set the peak
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, problems = wl.check(state, outputs)[:3]
        setups = [(setup_s, setup_raw_s), *more_set_ups(args)]
        metrics = end_to_end(clock.normalize, intervals, ops, attempted,
                             [n for n, _ in setups], peak_rss_mb)
        raw = end_to_end(clock.raw, intervals, ops, attempted,
                         [r for _, r in setups], peak_rss_mb)
        notes = [f"  latency samples {len(ops) if ops else 0}; speed relative to "
                 f"nominal {clock.mean_speed():.4f} over {len(clock.ticks)} probes"]
        notes += [f"raw {k} {v!r}" for k, (v, _) in raw.items() if k != "peak_rss_mb"]
    else:
        tracer = bt.Tracer()
        with SpeedClock() as clock:
            tracer.install()
            try:
                intervals, _, outputs = wl.run(sk, state, tracer)
            finally:
                tracer.uninstall()
        traced_wall = sum(clock.normalize(a, b) for a, b in intervals)
        attempted, failed, problems, digest = wl.check(state, outputs)
        # span times on the same normalized scale as every other time
        at = clock.normalized.at
        spans = [(s[0], at(s[1]), at(s[2]), *s[3:]) for s in tracer.spans]
        layers = per_layer(spans, wl)
        os.makedirs(OUT, exist_ok=True)
        bt.write_spans(spans, os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
        del outputs, tracer, spans
        gc.collect()
        with SpeedClock() as clock:
            intervals, _, again = wl.run(sk, state)
        untraced_wall = sum(clock.normalize(a, b) for a, b in intervals)
        if wl.check(state, again)[3] != digest:
            failed = attempted
            problems.append("traced and untraced runs produced different outputs")
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
        notes = [f"  untraced wall_s {untraced_wall:.6f}"]

    for p in problems[:20]:
        print(f"FAILED: {p}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  fail_ratio {failed / attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6f} {unit}")
    print("\n".join(notes))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith(".calls") or metric in ("lifting.colorings_emitted", "trace.spans"):
        return "count"
    if metric.endswith("_s"):
        return "s"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
