"""Benchmark for finitetop: one workload, one seed, one run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cli-cold, spaces-large, exhaustive-small, numeric-logic (see
README.md). The run sets up (package import and input files), computes
the expected values with the oracles, then repeats whole rounds of
operations in a closed loop, one at a time, until `--seconds` have passed
and at least 100 operations ran. Every output is checked against the
oracles. The set-up is repeated about ten times, spread over the run,
and `setup_s` is the median. Every time is scaled to a reference host
speed, measured by a fixed loop run just before and after it (`timed`),
and an operation's time is its median over the run's rounds. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
alternate rounds run with span tracing on, and the metrics are the
per-layer ones plus the tracing overhead. Spans go to bench/out/.
"""

import argparse
import collections
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

import layers
from checks import Program
from workloads import FAULTS, WORKLOADS, Context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_OPS = 100
SETUP_SAMPLES = 10  # set-ups repeated during a run, besides the first
LAYER_MODULES = ("spaces", "construct", "filters", "locales", "pmetric", "approx", "logic", "formats", "cli")
PROBE_LOOPS = 1500
REF_PROBE_S = 100e-6  # the probe's best time on the reference machine (README.md), rounded


def probe():
    """Seconds a fixed pure-Python loop takes now: the host's momentary speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def timed(fn):
    """fn() -> (its result, its seconds at the reference speed).

    A shared host runs the same code up to twice as slow for seconds or
    minutes at a time; the probe slows with it, so the wall time times
    REF_PROBE_S over the mean of the probes before and after is the time
    the call would take on the host at its reference speed (README.md).
    """
    before = probe()
    t0 = time.perf_counter()
    res = fn()
    dt = time.perf_counter() - t0
    return res, dt * 2 * REF_PROBE_S / (before + probe())


def attempt(op):
    try:
        return op.call()
    except Exception as e:  # the program raised inside a library call
        return e


def fresh_import():
    """Import finitetop.cli from scratch; returns (modules namespace, seconds)."""
    for name in [m for m in sys.modules if m == "finitetop" or m.startswith("finitetop.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("finitetop.cli")
    dt = time.perf_counter() - t0
    mods = types.SimpleNamespace(**{m: sys.modules[f"finitetop.{m}"] for m in LAYER_MODULES})
    return mods, dt


def setup(workload, seed, work):
    """A fresh package import and the input files; the timed set-up."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    mods, import_s = fresh_import()
    prog = Program(ROOT, work)
    prog.cli = mods.cli
    ctx = Context(prog, work, seed, workload)
    ctx.mods = mods
    ops = WORKLOADS[workload](ctx)
    return ctx, ops, import_s


class SetupSampler:
    """Repeats the set-up at even intervals while the operations run.

    The host's speed changes from one second to the next, so set-ups made
    back to back can all land in one slow moment; spread over the run,
    their median is steady. Each repeat writes to a scratch directory and
    then puts the run's own finitetop modules back in `sys.modules`.
    """

    def __init__(self, workload, seed, work, seconds):
        self.args = (workload, seed, work + "-setup")
        self.interval = seconds / SETUP_SAMPLES
        self.times = []
        self.next_at = time.perf_counter() + self.interval / 2

    def __call__(self):
        if time.perf_counter() < self.next_at:
            return
        saved = {m: mod for m, mod in sys.modules.items() if m == "finitetop" or m.startswith("finitetop.")}
        _, dt = timed(lambda: setup(*self.args))
        self.times.append(dt)
        for name in [m for m in sys.modules if m == "finitetop" or m.startswith("finitetop.")]:
            del sys.modules[name]
        sys.modules.update(saved)
        shutil.rmtree(self.args[2], ignore_errors=True)
        self.next_at = time.perf_counter() + self.interval


def run_rounds(ctx, ops, seconds, tracer, between):
    """Closed loop over whole rounds; with a tracer, odd rounds are traced.

    `between()` runs after each untraced operation and its check.
    """
    records = []  # (op, seconds, reason or None, traced)
    start = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
            ctx.prog.trace_file = os.path.join(ctx.work, "child-spans.jsonl")
        try:
            for op in ops:
                res, dt = timed(lambda: attempt(op))
                if isinstance(res, Exception):
                    reason = f"raised {type(res).__name__}: {res}"
                else:
                    try:
                        reason = op.check(res)
                    except Exception:
                        reason = "check failed: " + traceback.format_exc().strip().splitlines()[-1]
                records.append((op, dt, reason, traced))
                if not traced:
                    between()
        finally:
            if traced:
                tracer.uninstall()
                ctx.prog.trace_file = None
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) >= MIN_OPS and (tracer is None or r >= 2):
            return records, elapsed


def op_times(records, traced=False):
    """Each operation's median time at the reference speed over the run's rounds.

    The median, not the minimum: a probe that lands on a slow moment the
    call missed shrinks that call's scaled time, and a minimum would keep
    exactly those.
    """
    times = collections.defaultdict(list)
    for op, dt, _, t in records:
        if t == traced:
            times[id(op)].append(dt)
    return {k: statistics.median(v) for k, v in times.items()}


def end_to_end(records, setup_s, children):
    times = list(op_times(records).values())
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (statistics.median(times) * 1000, "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10, method="inclusive")[8] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(records, tracer, child_file, import_s, out_path):
    spans = list(tracer.spans)
    counts = dict(tracer.counts)
    imports = []
    if child_file and os.path.exists(child_file):
        with open(child_file, encoding="utf-8") as fh:
            for line in fh:
                d = json.loads(line)
                base = len(spans)
                spans += [(n, k, t0, t1, p + base if p >= 0 else -1) for n, k, t0, t1, p in d["spans"]]
                for key, v in d["counts"].items():
                    counts[key] = counts.get(key, 0) + v
                imports.append(d["import_s"])
    out = layers.layer_metrics(spans, counts, sum(1 for *_, t in records if t))
    out["cli.import_ms"] = ((statistics.median(imports) if imports else import_s) * 1000, "ms")
    plain, traced = op_times(records), op_times(records, traced=True)
    overhead = statistics.median(traced[k] / plain[k] for k in traced) - 1.0
    out["trace.overhead_pct"] = (overhead * 100, "%")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "group", "start", "end", "parent"], "spans": spans, "counts": counts}, fh)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "finitetop", "__init__.py")):
        print(f"error: no finitetop sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        (ctx, ops, first_import_s), first_setup_s = timed(lambda: setup(args.workload, args.seed, work))
        ctx.resolve()
        tracer = layers.Tracer() if args.trace else None
        sampler = SetupSampler(args.workload, args.seed, work, args.seconds)
        records, elapsed = run_rounds(ctx, ops, args.seconds, tracer, (lambda: None) if args.trace else sampler)

        failures = [(op, reason) for op, _, reason, _ in records if reason]
        correct = all(op.fault for op, _ in failures)
        times_failed = collections.Counter(op.name for op, _ in failures)
        for op, reason in dict((op.name, (op, reason)) for op, reason in failures).values():
            tag = f"known fault {op.fault}: {FAULTS[op.fault]}" if op.fault else "UNEXPECTED"
            print(f"failed x{times_failed[op.name]}: {op.name} -- {reason} [{tag}]")

        if args.trace:
            out_path = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.json")
            child_file = os.path.join(work, "child-spans.jsonl")
            metrics = per_layer(records, tracer, child_file, first_import_s, out_path)
            print(f"spans written to {os.path.relpath(out_path, ROOT)}")
        else:
            setup_s = statistics.median([first_setup_s] + sampler.times)
            metrics = end_to_end(records, setup_s, args.workload == "cli-cold")
        print(f"{args.workload} seed {args.seed}: {len(records)} operations in {elapsed:.1f} s")
        for name, (value, unit) in metrics.items():
            print(f"  {name:28s} {value:14.4f} {unit}")
        result = {
            "correct": correct,
            "attempted": len(records),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(work + "-setup", ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # bench/work, once no other run uses it


if __name__ == "__main__":
    sys.exit(main())
