"""Command line: curve ingestion, JSON reports, SVG rendering.

    ifd compute --a a.json --b b.json --epsilon 0.25 --mode both --out report.json

Curve files are JSON ``{"vertices": [[x, y], ...]}`` or CSV with one
``x,y`` pair per line.  Exit codes: 0 success, 2 input error, 3 budget
exceeded / no feasible graph, 4 internal numeric error.
"""

import argparse
import dataclasses
import gc
import json
import sys
import time

import numpy as np

from .curves import PolygonalCurve, build_curve
from .errors import (
    BudgetExceeded,
    Disconnected,
    NoFeasibleGraph,
    NotMonotone,
    OutOfRange,
    TooFewVertices,
)
from .graphs import MODES, GraphConfig, approximate_integral_frechet
from .matching import MonotonePath, _check_in_rectangle, locally_optimize, matching_cost
from .param_space import _clipped_axis, _cross, _level_roots, build_cells

__all__ = ["main", "run", "load_curve", "render_svg", "build_report"]

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
        "config": dataclasses.asdict(cfg),
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
    requested threshold, the path.  Fixed element order and 6-decimal
    coordinates keep the output byte-stable.
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
            ell = _clipped_axis(cell)
            if ell is not None:
                p, q = ell
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
    path = overlays.get("path")
    if path is not None:
        verts = getattr(path, "vertices", path)
        pts = " ".join(f"{_fmt(px(float(x)))},{_fmt(py(float(y)))}" for x, y in verts)
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="#cc3333" stroke-width="2"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


_OUTLINE_ROWS = 96  # sampled rows per slice outline


def _slice_outline(cell, delta):
    """Sampled boundary of {w = delta} within a cell, as in-cell point runs.

    On the row at height eta the leash runs along T1's segment from the
    pinned point T2(y), so the row meets the level where x - x0 =
    along -+ sqrt(delta^2 - off^2); along and off are linear in eta.  The
    rows are spread over the heights where |off| <= delta, so a small
    slice keeps its resolution; each root gives one run of points.
    """
    cross = _cross(cell.u, cell.v)
    off0 = _cross(cell.u, cell.b0 - cell.a0)
    lo, hi = 0.0, cell.height
    if cross != 0.0:
        ends = sorted(((-delta - off0) / cross, (delta - off0) / cross))
        lo, hi = max(lo, ends[0]), min(hi, ends[1])
    if lo > hi or (cross == 0.0 and abs(off0) > delta):
        return
    eta = np.linspace(lo, hi, _OUTLINE_ROWS + 1)
    # the pinned point's offsets along and across u; the clip keeps the
    # rows at the ends of the range from rounding off the level
    along = cell.du + eta * float(cell.u @ cell.v)
    off = np.clip(off0 + eta * cross, -delta, delta)
    ys = (cell.y0 + eta).tolist()
    for root in _level_roots(along, off, delta):
        inside = np.concatenate(([0], (root >= 0.0) & (root <= cell.width), [0]))
        ends = np.flatnonzero(np.diff(inside)).tolist()  # where runs start and stop
        xs = (cell.x0 + root).tolist()
        for start, stop in zip(ends[::2], ends[1::2]):
            yield list(zip(xs[start:stop], ys[start:stop]))


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
    c.add_argument("--mode", choices=list(MODES), default="both")
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
        if not all(d >= 0.0 for d in args.delta):
            raise ValueError(f"--delta must be nonnegative, got {args.delta}")
        opt_input = load_path_file(args.optimize_matching) if args.optimize_matching else None
        if opt_input is not None:
            _check_in_rectangle(t1, t2, opt_input)
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            TooFewVertices, NotMonotone, OutOfRange) as exc:
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
    except (OutOfRange, FloatingPointError) as exc:
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


def run(argv=None) -> int:
    """Process entry of ``ifd`` and ``python -m ifd.cli``: :func:`main` on a frozen import heap.

    Every import is done by now, so ``gc.freeze()`` moves what numpy and
    ``ifd`` allocated at import into the permanent generation; neither a
    later full collection nor the one at interpreter exit walks it again.
    :func:`main` itself leaves the collector alone, for library callers.
    """
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
