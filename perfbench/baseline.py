#!/usr/bin/env python3
"""Traced figures for the instances named in the ROADMAP baseline table.

    python3 perfbench/baseline.py            # C6 pair and C5 pair 0, traced
    python3 perfbench/baseline.py --cli 8    # plus `ifd compute` defaults on C5 pairs

The C5 (seed 105) and C6 (seed 106) pairs are redrawn with the acceptance
suite's curve recipe; layer times come from the same spans as the traced
benchmark run.  ``--cli N`` runs the CLI defaults on the first N C5 pairs
and prints each exit code; a run still going after ``--timeout`` seconds
is stopped and reported as such.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from tracing import Tracer, self_time_by_name  # noqa: E402


def suite_curve(rng, n_segments):
    """The acceptance suite's equalized random curve (tests/helpers.py)."""
    pts = [rng.uniform(0.0, 1.0, 2)]
    ang = rng.uniform(0.0, 2.0 * np.pi)
    for _ in range(n_segments):
        ang += rng.uniform(-0.9, 0.9)
        step = rng.uniform(0.8, 1.2) / n_segments
        pts.append(pts[-1] + step * np.array([math.cos(ang), math.sin(ang)]))
    return np.asarray(pts)


def c5_pairs(count):
    rng = np.random.default_rng(105)
    out = []
    for _ in range(count):
        a = suite_curve(rng, int(rng.integers(2, 7)))
        b = suite_curve(rng, int(rng.integers(2, 7)))
        out.append((a, b))
    return out


def c6_pair():
    rng = np.random.default_rng(106)
    a = suite_curve(rng, 3)
    return a, suite_curve(rng, 4)


def traced(label, fn):
    import ifd

    tracer = Tracer()
    tracer.install("ifd")
    try:
        with tracer.span("case"):
            start = time.perf_counter()
            notes = fn(ifd)
            wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    records = tracer.records()
    print(f"{label}: {wall:.2f} s wall")
    for s in records["spans"]:
        if s["name"] in ("graphs.build_g1", "graphs.build_g2"):
            size = f"{s.get('vertices', 0)} V, {s.get('edges', 0)} E" if "vertices" in s else s.get("error")
            print(f"  {s['name']:34s} {s['end'] - s['start']:8.3f} s  {size}")
    for name, t in sorted(self_time_by_name(records).items()):
        if name != "case":
            print(f"  self {name:29s} {t:8.3f} s")
    for line in notes or ():
        print(f"  {line}")


def cli_defaults(pairs, timeout):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        for k, (a, b) in enumerate(pairs):
            files = []
            for side, pts in (("a", a), ("b", b)):
                path = os.path.join(tmp, f"{k}{side}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"vertices": pts.tolist()}, fh)
                files.append(path)
            argv = [sys.executable, "-m", "ifd.cli", "compute", "--a", files[0], "--b", files[1],
                    "--epsilon", "0.25", "--out", os.path.join(tmp, f"{k}.json")]
            start = time.perf_counter()
            try:
                done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                      timeout=timeout)
                last = done.stderr.strip().splitlines()[:1]
                print(f"C5 pair {k} ({len(a) - 1}x{len(b) - 1} segments): exit {done.returncode} "
                      f"after {time.perf_counter() - start:.1f} s {last[0] if last else ''}")
            except subprocess.TimeoutExpired:
                print(f"C5 pair {k} ({len(a) - 1}x{len(b) - 1} segments): still running after "
                      f"{timeout:.0f} s, stopped")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cli", type=int, default=0, help="C5 pairs to run through the CLI defaults")
    ap.add_argument("--timeout", type=float, default=30.0)
    args = ap.parse_args()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    a, b = c6_pair()

    def c6(ifd):
        cfg = ifd.GraphConfig.desk(epsilon=0.25, c_g1=10.0, max_vertices=2_000_000)
        ifd.approximate_integral_frechet(ifd.build_curve(a), ifd.build_curve(b), cfg)

    traced("C6 pair, desk eps=0.25 c_g1=10, both graphs", c6)

    a0, b0 = c5_pairs(1)[0]

    def c5(ifd):
        from ifd import shortest_path

        t1, t2 = ifd.build_curve(a0), ifd.build_curve(b0)
        cfg = ifd.GraphConfig(epsilon=0.1, c_g1=10.0, c_radius=62.0, c_mesh=8.0,
                              max_vertices=4_000_000, mode="g1")
        ifd.approximate_integral_frechet(t1, t2, cfg)
        st = ifd.stats(t1, t2)
        h = 0.1 * st.mu / (10.0 * (st.len1 + st.len2))
        start = time.perf_counter()
        shortest_path.dense_grid_oracle(t1, t2, h, max_points=20_000_000)
        return [f"dense oracle on the same lattice: {time.perf_counter() - start:.3f} s"]

    traced("C5 pair 0, g1 eps=0.1 c_g1=10", c5)
    if args.cli:
        cli_defaults(c5_pairs(args.cli), args.timeout)


if __name__ == "__main__":
    main()
