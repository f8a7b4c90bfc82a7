"""Run the benchmark over several seeds and write one result file.

    python3 perfbench/suite.py --runs 10 --out perfbench/out/mine.json [--traced]

Runs every workload of ``BENCHMARK.json`` over seeds 1..RUNS, each run for
its ``run_seconds``, in a fresh ``perfbench/run.py`` process, one at a
time; seed k goes to every workload before seed k + 1 starts.
``--traced`` adds one traced run per workload, at seed 1.  The file
records every run's metrics and the raw (not normalized) times of the
untraced runs; the table printed at the end gives each end-to-end
metric's median and spread (quartile distance over median) next to its
bound.  Diff two files with
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from compare import quartiles, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    raw = [line.split() for line in lines if line.startswith("raw ")]
    return {
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": {name: float(value) for _, name, value in raw},
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="Run the benchmark over several seeds.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]

    seconds = bench["run_seconds"]
    result = {"seconds": seconds, "runs": {w: [] for w in workloads}}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            run = run_once(w, seed, seconds, 0)
            result["runs"][w].append(run)
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k} {v:.6g}" for k, v in run["metrics"].items())
                + ("" if run["correct"] else "  INCORRECT"), flush=True)
    if args.traced:
        for w in workloads:
            result["runs"][w].append(run_once(w, 1, seconds, 1))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    ok = True
    for w in workloads:
        runs = [r for r in result["runs"][w] if r["trace"] == 0]
        failed = sum(r["failed"] for r in runs)
        ok &= failed == 0
        print(f"{w}: {len(runs)} runs, {failed} failed operations")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in runs]
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = "" if s < m["bound"] / 3 or m["name"] == "setup_s" else "  WIDE"
            print(f"  {m['name']:12s} median {med:12.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {100 * s:6.2f}%  bound {100 * m['bound']:.0f}%{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
