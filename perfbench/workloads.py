"""The three workloads: inputs, one timed operation, and its output checks.

Every check compares against the independent reference or against a
quantity the benchmark computes itself; none compares against a stored
copy of earlier output.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import corpus
from reference import Polyline, check_path, close, lower_bound, path_cost

REL = 1e-9       # value vs re-integrated path, average vs integral / length
ABS = 1e-12      # absolute slack for values that are exactly zero
EXACT_TOL = 1e-9  # C4 instances against their analytic values
DESK_EPSILON = 0.25


class OpFailed(Exception):
    """The operation itself failed (exception or non-zero exit), not a check."""


class Pair:
    """One curve pair as the reference sees it, with its lower bound cached."""

    def __init__(self, a, b, exact=None):
        self.a, self.b = np.asarray(a, float), np.asarray(b, float)
        self.r1, self.r2 = Polyline(a), Polyline(b)
        self.exact = exact
        self._lb = None

    @property
    def total_length(self):
        return self.r1.length + self.r2.length

    @property
    def lb(self):
        if self._lb is None:
            self._lb = lower_bound(self.r1, self.r2)
        return self._lb

    def check_matching(self, label, value, path):
        """Path shape, value against its re-integration, value against LB."""
        problems = [f"{label}: {p}" for p in check_path(path, self.r1.length, self.r2.length)]
        ref = path_cost(self.r1, self.r2, path)
        if not close(value, ref, REL, ABS):
            problems.append(f"{label}: value {value!r} but the path re-integrates to {ref!r}")
        if value < self.lb:
            problems.append(f"{label}: value {value!r} below the lower bound {self.lb!r}")
        return problems

    def check_average(self, label, value, average):
        expect = value / self.total_length
        if close(average, expect, REL, ABS):
            return []
        return [f"{label}: average {average!r}, expected {expect!r}"]

    def check_exact(self, label, value):
        if self.exact is None or abs(value - self.exact) <= EXACT_TOL:
            return []
        return [f"{label}: value {value!r}, exact value {self.exact!r}"]


# per-run measurements that are not outputs of the program
_NOT_OUTPUT = ("runtime_ms", "maxrss_kb")


def fingerprint(out):
    """Digest of an output, so that repeats of a checked output are not re-checked."""
    h = hashlib.sha1()

    def feed(v):
        if isinstance(v, dict):
            for k in sorted(v):
                if k not in _NOT_OUTPUT:
                    h.update(k.encode())
                    feed(v[k])
        elif isinstance(v, (list, tuple)):
            for x in v:
                feed(x)
        elif isinstance(v, str):
            h.update(v.encode())
        else:
            h.update(np.asarray(v, dtype=float).tobytes())

    feed(out)
    return h.hexdigest()


class Workload:
    """One corpus of pairs; an operation is an index into ``ops``."""

    in_process = True

    def lower_bound(self, op):
        return self.pairs[op].lb

    def values(self, op, out):
        """The reported values of one output, for value_over_lb."""
        return [out["value"]]


class Grid(Workload):
    """Library calls on one pair: g1 at two epsilons, then the oracle mode."""

    name = "grid"
    C_G1 = 10.0
    BUDGET = 4_000_000
    CALLS = [("g1", eps) for eps in corpus.GRID_EPSILONS] + [("oracle", DESK_EPSILON)]

    def __init__(self, seed, root, workdir):
        self.seed = seed
        self._oracle = {}

    def setup(self):
        import ifd

        self.ifd = ifd
        self.pairs = [Pair(a, b) for a, b in corpus.grid_pairs(self.seed)]
        self.curves = [(ifd.build_curve(p.a), ifd.build_curve(p.b)) for p in self.pairs]
        self.ops = list(range(len(self.pairs)))
        self.warm_up = self.ops[0]

    def config(self, mode, eps):
        if mode == "oracle":
            return self.ifd.GraphConfig.desk(epsilon=eps, mode="oracle")
        return self.ifd.GraphConfig(epsilon=eps, c_g1=self.C_G1, c_radius=62.0, c_mesh=8.0,
                                    max_vertices=self.BUDGET, mode="g1")

    def run(self, op, tracer=None):
        t1, t2 = self.curves[op]
        calls = []
        for mode, eps in self.CALLS:
            try:
                res = self.ifd.approximate_integral_frechet(t1, t2, self.config(mode, eps))
            except self.ifd.errors.IfdError as exc:
                raise OpFailed(f"pair {op} {mode} eps={eps}: {type(exc).__name__}: {exc}") from exc
            calls.append({"mode": mode, "eps": eps, "value": res.value,
                          "average": res.average, "path": res.path.vertices})
        return {"calls": calls}

    def values(self, op, out):
        return [c["value"] for c in out["calls"]]

    def g1_mesh(self, k, eps):
        p = self.pairs[k]
        mu = min(p.r1.segment_lengths.min(), p.r2.segment_lengths.min())
        return eps * mu / (self.C_G1 * p.total_length)

    def oracle_value(self, k, eps, tracer=None):
        """Dense right/up/diagonal lattice at the g1 mesh: g1 must be within (1+eps)."""
        key = (k, eps)
        if key not in self._oracle:
            from ifd import shortest_path

            t1, t2 = self.curves[k]
            h = self.g1_mesh(k, eps)
            if tracer is None:
                self._oracle[key] = shortest_path.dense_grid_oracle(t1, t2, h, max_points=20_000_000)
            else:
                p = self.pairs[k]
                points = _lattice_points(p.r1.cum, h) * _lattice_points(p.r2.cum, h)
                with tracer.span("shortest_path.dense_grid_oracle", points=points):
                    self._oracle[key] = shortest_path.dense_grid_oracle(
                        t1, t2, h, max_points=20_000_000)
        return self._oracle[key]

    def check(self, op, out, tracer=None):
        pair = self.pairs[op]
        problems = []
        for c in out["calls"]:
            label = f"grid pair {op} {c['mode']} eps={c['eps']}"
            problems += pair.check_matching(label, c["value"], c["path"])
            problems += pair.check_average(label, c["value"], c["average"])
            if c["mode"] == "g1":
                oracle = self.oracle_value(op, c["eps"], tracer)
                if c["value"] > (1.0 + c["eps"]) * oracle + ABS:
                    problems.append(f"{label}: value {c['value']!r} above (1+eps) x oracle {oracle!r}")
        return problems


def _lattice_points(cuts, h):
    return 1 + sum(max(1, math.ceil((hi - lo) / h - 1e-12)) for lo, hi in zip(cuts[:-1], cuts[1:]))


class Arrangement(Workload):
    """`ifd compute` in a subprocess with the CLI defaults."""

    name = "arrangement"
    in_process = False

    def __init__(self, seed, root, workdir):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def setup(self):
        self.pairs = [Pair(a, b, exact) for a, b, exact in corpus.arrangement_pairs(self.seed)]
        self.files = []
        for k, p in enumerate(self.pairs):
            names = []
            for side, pts in (("a", p.a), ("b", p.b)):
                path = os.path.join(self.workdir, f"pair{k}{side}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"vertices": pts.tolist()}, fh)
                names.append(path)
            self.files.append(names)
        self.ops = list(range(len(self.pairs)))
        self.warm_up = self.ops[0]

    def command(self, k, report, spans=None):
        a, b = self.files[k]
        args = ["compute", "--a", a, "--b", b, "--epsilon", str(DESK_EPSILON), "--out", report]
        if spans is None:
            return [sys.executable, "-m", "ifd.cli"] + args
        here = os.path.dirname(os.path.abspath(__file__))
        return [sys.executable, os.path.join(here, "traced_cli.py"), spans] + args

    def spawn(self, argv, log):
        """Run a child to completion; returns (exit code, peak RSS in KiB)."""
        with open(log, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def run(self, op, tracer=None):
        report = os.path.join(self.workdir, f"report{op}.json")
        log = os.path.join(self.workdir, f"stderr{op}.txt")
        spans = os.path.join(self.workdir, f"spans{op}.json") if tracer is not None else None
        for stale in (report, spans):
            if stale is not None and os.path.exists(stale):
                os.remove(stale)
        code, rss = self.spawn(self.command(op, report, spans), log)
        if code != 0:
            with open(log, encoding="utf-8") as fh:
                raise OpFailed(f"pair {op}: exit {code}: {fh.read().strip()[-300:]}")
        with open(report, encoding="utf-8") as fh:
            rep = json.load(fh)
        if tracer is not None:
            with open(spans, encoding="utf-8") as fh:
                tracer.absorb(json.load(fh))
        return {"value": rep["integral"], "average": rep["average"],
                "path": np.asarray(rep["path"], dtype=float),
                "runtime_ms": rep["runtime_ms"], "maxrss_kb": rss}

    def check(self, op, out, tracer=None):
        pair = self.pairs[op]
        label = f"arrangement pair {op}"
        problems = pair.check_matching(label, out["value"], out["path"])
        problems += pair.check_average(label, out["value"], out["average"])
        problems += pair.check_exact(label, out["value"])
        return problems

    def startup_s(self):
        """Median wall time of `python -c "import ifd.cli"` over three children."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            code, _ = self.spawn([sys.executable, "-c", "import ifd.cli"],
                                 os.path.join(self.workdir, "startup.txt"))
            times.append(time.perf_counter() - start)
            if code != 0:
                raise OpFailed(f"import ifd.cli exited {code}")
        return sorted(times)[1]


class Transform(Workload):
    """locally_optimize on a random staircase, with matching_cost before and after."""

    name = "transform"

    def __init__(self, seed, root, workdir):
        self.seed = seed

    def setup(self):
        import ifd

        self.ifd = ifd
        cases = corpus.transform_cases(self.seed)
        self.pairs = [Pair(a, b) for a, b, _ in cases]
        self.curves = [(ifd.build_curve(a), ifd.build_curve(b)) for a, b, _ in cases]
        self.stairs = [ifd.MonotonePath.from_points(s) for _, _, s in cases]
        self.ops = list(range(len(cases)))
        self.warm_up = self.ops[0]

    def run(self, op, tracer=None):
        matching = self.ifd.matching
        t1, t2 = self.curves[op]
        path = self.stairs[op]
        try:
            before = matching.matching_cost(t1, t2, path)
            opt = matching.locally_optimize(t1, t2, path)
            after = matching.matching_cost(t1, t2, opt)
        except self.ifd.errors.IfdError as exc:
            raise OpFailed(f"staircase {op}: {type(exc).__name__}: {exc}") from exc
        return {"before": before, "value": after, "path": opt.vertices}

    def check(self, op, out, tracer=None):
        pair = self.pairs[op]
        label = f"staircase {op}"
        problems = pair.check_matching(f"{label} before", out["before"], self.stairs[op].vertices)
        problems += pair.check_matching(f"{label} after", out["value"], out["path"])
        if out["value"] > out["before"] * (1.0 + 1e-10):
            problems.append(f"{label}: cost rose from {out['before']!r} to {out['value']!r}")
        return problems


WORKLOADS = {w.name: w for w in (Grid, Arrangement, Transform)}
