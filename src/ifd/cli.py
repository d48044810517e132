"""Command line: curve ingestion, JSON reports, SVG rendering.

    ifd compute --a a.json --b b.json --epsilon 0.25 --mode both --out report.json

Curve files are JSON ``{"vertices": [[x, y], ...]}`` or CSV with one
``x,y`` pair per line.  Exit codes: 0 success, 2 input error, 3 budget
exceeded / no feasible graph, 4 internal numeric error.
"""

import argparse
import dataclasses
import json
import math
import sys
import time

from .curves import PolygonalCurve, build_curve
from .errors import (
    BudgetExceeded,
    Disconnected,
    NegativeRadicand,
    NoFeasibleGraph,
    NotMonotone,
    OutOfRange,
    TooFewVertices,
)
from .graphs import GraphConfig, approximate_integral_frechet
from .matching import MonotonePath, locally_optimize, matching_cost
from .param_space import _clip_slope1, build_cells, free_space_axes

__all__ = ["main", "load_curve", "render_svg", "build_report"]

def load_curve(path: str) -> PolygonalCurve:
    """Read a curve file; JSON and CSV ingest to identical curves."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        obj = json.loads(text)
        pts = obj["vertices"] if isinstance(obj, dict) else obj
    else:
        pts = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            xs = line.replace(";", ",").split(",")
            if len(xs) != 2:
                raise ValueError(f"{path}: expected 'x,y', got {line!r}")
            pts.append((float(xs[0]), float(xs[1])))
    return build_curve(pts)


def load_path_file(path: str) -> MonotonePath:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict):
        obj = obj.get("path", obj.get("vertices"))
    return MonotonePath.from_points(obj)


def build_report(result, cfg, runtime_ms, extra=None) -> dict:
    report = {
        "integral": result.value,
        "average": result.average,
        "winning_mode": result.winning_mode,
        "path": [[float(x), float(y)] for x, y in result.path.vertices],
        "graph_stats": result.graph_stats,
        "config": {
            "epsilon": cfg.epsilon,
            "c_g1": cfg.c_g1,
            "c_radius": cfg.c_radius,
            "c_mesh": cfg.c_mesh,
            "max_vertices": cfg.max_vertices,
            "mode": cfg.mode,
        },
    }
    if extra:
        report.update(extra)
    report["runtime_ms"] = runtime_ms
    return report


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def render_svg(t1: PolygonalCurve, t2: PolygonalCurve, overlays=None) -> str:
    """Deterministic SVG of the parameter space.

    Layers, in order: cell grid, free-space axes, ellipse slices for each
    requested threshold, grid-ball outlines, the path.  Fixed element
    order and 6-decimal coordinates keep the output byte-stable.
    """
    overlays = overlays or {}
    grid = build_cells(t1, t2)
    l1, l2 = grid.extent
    margin = 20.0
    side = 600.0
    sc = side / max(l1, l2)
    width = l1 * sc + 2 * margin
    height = l2 * sc + 2 * margin

    def px(x):
        return margin + x * sc

    def py(y):
        return height - margin - y * sc

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
    ]
    for x in grid.x_cuts:
        out.append(
            f'<line x1="{_fmt(px(x))}" y1="{_fmt(py(0.0))}" x2="{_fmt(px(x))}" '
            f'y2="{_fmt(py(l2))}" stroke="#cccccc" stroke-width="1"/>'
        )
    for y in grid.y_cuts:
        out.append(
            f'<line x1="{_fmt(px(0.0))}" y1="{_fmt(py(y))}" x2="{_fmt(px(l1))}" '
            f'y2="{_fmt(py(y))}" stroke="#cccccc" stroke-width="1"/>'
        )
    for col in grid.cells:
        for cell in col:
            if cell.kind == "antiparallel":
                continue
            axes = free_space_axes(cell)
            if axes.ell is not None:
                p, q = axes.ell
                out.append(
                    f'<line x1="{_fmt(px(p.x))}" y1="{_fmt(py(p.y))}" '
                    f'x2="{_fmt(px(q.x))}" y2="{_fmt(py(q.y))}" '
                    f'stroke="#3366cc" stroke-width="1.5"/>'
                )
    for delta in overlays.get("deltas", ()):
        for col in grid.cells:
            for cell in col:
                for run in _slice_outline(cell, float(delta)):
                    pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in run)
                    out.append(
                        f'<polyline points="{pts}" fill="none" '
                        f'stroke="#33aa55" stroke-width="1"/>'
                    )
    for cx, cy, r in overlays.get("balls", ()):
        x0, x1 = max(cx - r, 0.0), min(cx + r, l1)
        y0, y1 = max(cy - r, 0.0), min(cy + r, l2)
        if x1 > x0 and y1 > y0:
            out.append(
                f'<rect x="{_fmt(px(x0))}" y="{_fmt(py(y1))}" '
                f'width="{_fmt((x1 - x0) * sc)}" height="{_fmt((y1 - y0) * sc)}" '
                f'fill="none" stroke="#dd8833" stroke-dasharray="4 3" stroke-width="1"/>'
            )
    path = overlays.get("path")
    if path is not None:
        verts = getattr(path, "vertices", path)
        pts = " ".join(f"{_fmt(px(float(x)))},{_fmt(py(float(y)))}" for x, y in verts)
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="#cc3333" stroke-width="2"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _slice_outline(cell, delta, samples: int = 96):
    """Sampled boundary of {w = delta} within a cell, as in-cell point runs."""
    if cell.kind == "antiparallel":
        return
    lam1 = 1.0 - cell.c  # curvature along (1, 1)/sqrt(2)
    lam2 = 1.0 + cell.c
    axes = free_space_axes(cell)
    rad_sq = delta * delta - axes.w_center * axes.w_center
    if rad_sq <= 0:
        return
    e1 = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    e2 = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))
    cx, cy = axes.center
    if lam1 <= 1e-12:
        # parallel cell: the level set is a pair of slope +1 lines
        b = math.sqrt(rad_sq / lam2)
        for sgn in (-1.0, 1.0):
            ox = cx + sgn * b * e2[0]
            oy = cy + sgn * b * e2[1]
            run = _clip_slope1(oy - ox, cell.x0, cell.x1, cell.y0, cell.y1)
            if run:
                yield run
        return
    r1 = math.sqrt(rad_sq / lam1)
    r2 = math.sqrt(rad_sq / lam2)
    run = []
    for t in range(samples + 1):
        th = 2.0 * math.pi * t / samples
        x = cx + math.cos(th) * r1 * e1[0] + math.sin(th) * r2 * e2[0]
        y = cy + math.cos(th) * r1 * e1[1] + math.sin(th) * r2 * e2[1]
        if cell.contains((x, y)):
            run.append((x, y))
        elif run:
            yield run
            run = []
    if run:
        yield run


# the knobs that each mode's searches read: g1 its mesh divisor, g2 its
# ball mesh and radius, and the oracle only the budget
_KNOBS = {
    "g1": "raising --max-vertices, a larger --epsilon or a smaller --c-g1",
    "g2": "raising --max-vertices, a larger --epsilon or a smaller --c-mesh or --c-radius",
    "both": "raising --max-vertices, a larger --epsilon or a smaller --c-g1, --c-mesh or --c-radius",
    "oracle": "raising --max-vertices",
}


def _make_parser():
    parser = argparse.ArgumentParser(prog="ifd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("compute", help="approximate the integral distance of two curves")
    c.add_argument("--a", required=True, help="first curve file (JSON or CSV)")
    c.add_argument("--b", required=True, help="second curve file (JSON or CSV)")
    c.add_argument("--epsilon", type=float, required=True)
    c.add_argument("--mode", choices=["g1", "g2", "both", "oracle"], default="both")
    c.add_argument("--c-g1", type=float, default=None)
    c.add_argument("--c-radius", type=float, default=None)
    c.add_argument("--c-mesh", type=float, default=None)
    c.add_argument("--max-vertices", type=int, default=None)
    c.add_argument("--paper-constants", action="store_true",
                   help="use the worst-case constants instead of the desk preset")
    c.add_argument("--out", default=None, help="write the JSON report here (default stdout)")
    c.add_argument("--svg", default=None, help="write an SVG of the parameter space")
    c.add_argument("--delta", type=float, nargs="*", default=[],
                   help="ellipse-slice thresholds to draw in the SVG")
    c.add_argument("--optimize-matching", default=None,
                   help="path file to run the locally-optimal transform on")
    return parser


def _resolve_config(args) -> GraphConfig:
    preset = GraphConfig(args.epsilon) if args.paper_constants else GraphConfig.desk(args.epsilon)
    overrides = {
        name: value
        for name in ("c_g1", "c_radius", "c_mesh", "max_vertices")
        if (value := getattr(args, name)) is not None
    }
    return dataclasses.replace(preset, mode=args.mode, **overrides)


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        t1 = load_curve(args.a)
        t2 = load_curve(args.b)
        cfg = _resolve_config(args)
        opt_input = load_path_file(args.optimize_matching) if args.optimize_matching else None
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            TooFewVertices, NotMonotone) as exc:
        print(f"ifd: input error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        result = approximate_integral_frechet(t1, t2, cfg)
        extra = None
        if opt_input is not None:
            optimized = locally_optimize(t1, t2, opt_input)
            extra = {
                "optimized": {
                    "input_cost": matching_cost(t1, t2, opt_input),
                    "cost": matching_cost(t1, t2, optimized),
                    "path": [[float(x), float(y)] for x, y in optimized.vertices],
                }
            }
    except (BudgetExceeded, NoFeasibleGraph, Disconnected) as exc:
        print(f"ifd: infeasible at this configuration: {exc}", file=sys.stderr)
        hint = "; --mode oracle also works on small inputs" if cfg.mode != "oracle" else ""
        print(f"ifd: try {_KNOBS[cfg.mode]}{hint}", file=sys.stderr)
        return 3
    except (NegativeRadicand, OutOfRange, FloatingPointError) as exc:
        print(f"ifd: numeric error: {exc}", file=sys.stderr)
        return 4
    runtime_ms = 1000.0 * (time.perf_counter() - started)

    report = build_report(result, cfg, runtime_ms, extra)
    text = json.dumps(report, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"ifd: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    if args.svg:
        try:
            svg = render_svg(t1, t2, {"path": result.path, "deltas": args.delta})
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            print(f"ifd: cannot write svg: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
