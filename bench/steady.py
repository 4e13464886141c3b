"""Steadiness check: run every workload on several seeds, one run at a time.

    python3 bench/steady.py

Runs every workload in BENCHMARK.json on seeds 1 to 10 for its
run_seconds. For each workload and end-to-end metric it prints the
median, the first and third quartile (`statistics.quantiles(values, n=4)`)
and the spread (q3 - q1) / median, next to the metric's bound in
BENCHMARK.json; a spread above a third of the bound is flagged, and the
exit code is 1. It also checks that the
share of failed operations is identical in every run of a workload.
Raw results go to bench/out/steady-<workload>.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"], res["wall_s"] = seed, wall
            runs.append(res)
            print(f"{workload} seed {seed}: {wall:.1f} s, {res['attempted']} ops, {res['failed']} failed, "
                  f"correct {res['correct']}", flush=True)
        with open(os.path.join(HERE, "out", f"steady-{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
        if not runs:
            continue
        shares = {(r["failed"] * 1.0 / r["attempted"]) for r in runs}
        fractions = {(r["failed"], r["attempted"]) for r in runs}
        same = all(f1 * a2 == f2 * a1 for f1, a1 in fractions for f2, a2 in fractions)
        ok &= same and all(r["correct"] for r in runs)
        print(f"  failed share identical in every run: {same} ({sorted(shares)})")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            print(f"  {name:14s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:6.3f}"
                  f"  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
