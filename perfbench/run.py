#!/usr/bin/env python3
"""Seeded closed-loop benchmark of `ifd`: one operation at a time, one process.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The run sets up (imports, corpus, one
warm-up operation), repeats whole passes over the workload's corpus until
``--seconds`` have elapsed, then checks every distinct output against the
independent reference.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` untraced and traced passes alternate, the spans are
written to perfbench/out/, and the metrics are the per-layer ones.  The
exit code is 1 when a check fails and 2 when the run cannot start.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads
from workloads import OpFailed, fingerprint

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, run the warm-up operation and exit (one setup_s sample)")
    return ap.parse_args(argv)


def measure_setup(args):
    """Wall time of fresh processes that only set up; the median is setup_s."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed: {done.stderr.strip()[-500:]}")
    return statistics.median(times)


class Runner:
    """Timed passes over one workload's corpus, with outputs kept for checking."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.op_times = []
        self.pass_times = {False: [], True: []}
        self.outputs = {}   # op index -> {fingerprint: output}
        self.first = {}     # op index -> first output, for value_over_lb
        self.peak_child_kb = 0

    def one_pass(self, traced):
        tracer = self.tracer if traced else None
        if tracer is not None and self.wl.in_process:
            tracer.install("ifd")
        total = 0.0
        try:
            for i, op in enumerate(self.wl.ops):
                self.attempted += 1
                start = time.perf_counter()
                try:
                    if tracer is None:
                        out = self.wl.run(op)
                    else:
                        tracer.op = self.attempted
                        with tracer.span("op", workload=self.wl.name, index=i):
                            out = self.wl.run(op, tracer)
                except OpFailed as exc:
                    self.failed += 1
                    self.errors.append(str(exc))
                    continue
                finally:
                    elapsed = time.perf_counter() - start
                    total += elapsed
                if not traced:
                    self.op_times.append(elapsed)
                    self.peak_child_kb = max(self.peak_child_kb, out.get("maxrss_kb", 0))
                self.first.setdefault(i, out)
                self.outputs.setdefault(i, {}).setdefault(fingerprint(out), out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.pass_times[traced].append(total)

    def timed(self, seconds, traced):
        """Whole passes until ``seconds`` have elapsed."""
        start = time.perf_counter()
        while not self.pass_times[traced] or time.perf_counter() - start < seconds:
            if traced:
                self.one_pass(False)
            self.one_pass(traced)

    def check(self):
        problems = []
        for i, outs in sorted(self.outputs.items()):
            for out in outs.values():
                problems += self.wl.check(self.wl.ops[i], out, self.tracer)
        return problems

    def value_over_lb(self):
        logs = []
        for i, out in sorted(self.first.items()):
            lb = self.wl.lower_bound(self.wl.ops[i])
            if lb > 0.0:
                logs += [math.log(v / lb) for v in self.wl.values(self.wl.ops[i], out)]
        return math.exp(math.fsum(logs) / len(logs)) if logs else float("nan")


def end_to_end(runner, setup_s):
    if runner.wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = runner.peak_child_kb
    return {
        "setup_s": setup_s,
        "op_s": statistics.median(runner.op_times),
        "total_s": statistics.median(runner.pass_times[False]),
        "peak_rss_mb": peak_kb / 1024.0,
        "value_over_lb": runner.value_over_lb(),
    }


def per_layer(runner):
    passes = len(runner.pass_times[True])
    out = tracing.layer_metrics(runner.tracer.records(), passes)
    untraced = statistics.median(runner.pass_times[False])
    out["trace.overhead_s"] = statistics.median(runner.pass_times[True]) - untraced
    cli = {"cli.startup_s": 0.0, "cli.runtime_s": 0.0, "cli.overhead_s": 0.0}
    if not runner.wl.in_process:
        # the first pass is untraced, so its reports time the plain CLI
        runtime = sum(out_["runtime_ms"] for out_ in runner.first.values()) / 1000.0
        cli = {"cli.startup_s": runner.wl.startup_s(), "cli.runtime_s": runtime,
               "cli.overhead_s": untraced - runtime}
    out.update(cli)
    return out


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ifd", "__init__.py")):
        print("perfbench: src/ifd not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    outdir = os.path.join(HERE, "out")
    workdir = os.path.join(outdir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, spec, outdir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, outdir, workdir):
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
    if args.setup_only:
        wl.setup()
        wl.run(wl.warm_up)
        return 0

    setup_s = measure_setup(args)
    wl.setup()
    wl.run(wl.warm_up)
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(wl, tracer)
    runner.timed(args.seconds, traced=bool(args.trace))
    if not runner.op_times:
        print("perfbench: every operation failed:\n" + "\n".join(runner.errors[:5]),
              file=sys.stderr)
        return 1
    if args.trace:
        problems = runner.check()
        values = per_layer(runner)
        wanted = spec["per_layer"]
        path = os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.json")
        tracing.write(path, tracer.records(), values)
    else:
        values = end_to_end(runner, setup_s)
        problems = runner.check()
        wanted = spec["end_to_end"]
    for line in runner.errors[:10] + problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
