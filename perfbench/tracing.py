"""Spans around calls into `ifd`, installed from the benchmark's own files.

``Tracer.install`` swaps module attributes of `ifd` for timing wrappers and
``uninstall`` puts the originals back, so untraced passes run the library
untouched.  Calls made once or a few times per operation become spans
(name, start, end, parent).  Calls made per cell, edge or lattice row
would flood memory as spans, so each of those is aggregated per parent
span into a record with a call count and busy time.  A span's self time
is its duration minus its child spans and its aggregated calls.
"""

import json
import time
from contextlib import contextmanager

# (module, attribute, name): one span per call
SPAN_TARGETS = [
    ("graphs", "build_g1", "graphs.build_g1"),
    ("graphs", "build_g2", "graphs.build_g2"),
    ("graphs", "dijkstra", "shortest_path.dijkstra"),
    ("graphs", "dense_grid_oracle_path", "graphs.dense_grid_oracle_path"),
    ("matching", "matching_cost", "matching.matching_cost"),
    ("matching", "locally_optimize", "matching.locally_optimize"),
]
# (module, attribute, name): aggregated per parent span
AGG_TARGETS = [
    ("graphs", "build_cells", "param_space.build_cells"),
    ("matching", "build_cells", "param_space.build_cells"),
    ("shortest_path", "build_cells", "param_space.build_cells"),
    ("graphs", "free_space_axes", "param_space.free_space_axes"),
    ("graphs", "edge_min", "param_space.edge_min"),
    ("graphs", "segment_weighted_length", "integrals.segment_weighted_length"),
    ("matching", "segment_weighted_length", "integrals.segment_weighted_length"),
    ("graphs", "horizontal_strip_weights", "integrals.strip_weights"),
    ("graphs", "vertical_strip_weights", "integrals.strip_weights"),
    ("matching", "cell_shortest_path", "cell_paths.cell_shortest_path"),
]


def _graph_attrs(g):
    return {"vertices": int(g.n_vertices), "edges": int(g.n_edges)}


def _path_attrs(p):
    return {"vertices": int(len(p.vertices))}


def _size_attrs(arr):
    return {"edges": int(arr.size)}


RESULT_ATTRS = {
    "graphs.build_g1": _graph_attrs,
    "graphs.build_g2": _graph_attrs,
    "matching.locally_optimize": _path_attrs,
    "integrals.strip_weights": _size_attrs,
}


class Tracer:
    """In-memory span store; one per process, written once as JSON."""

    def __init__(self):
        self.spans = []
        self.aggs = {}
        self._stack = [None]
        self._in_agg = False
        self._saved = []
        self.op = None

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name, "parent": self._stack[-1],
               "op": self.op, "start": time.perf_counter(), "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def _span_wrapper(self, fn, name):
        extra = RESULT_ATTRS.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if extra is not None:
                    rec.update(extra(out))
                return out
        return wrapper

    def _agg_wrapper(self, fn, name):
        extra = RESULT_ATTRS.get(name)

        def wrapper(*args, **kwargs):
            if self._in_agg:
                return fn(*args, **kwargs)
            self._in_agg = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                self._in_agg = False
            key = (self._stack[-1], name)
            rec = self.aggs.get(key)
            if rec is None:
                rec = self.aggs[key] = {"name": name, "parent": key[0], "op": self.op,
                                        "start": start, "end": start, "count": 0, "busy": 0.0}
            rec["count"] += 1
            rec["busy"] += busy
            rec["end"] = start + busy
            if extra is not None:
                for k, v in extra(out).items():
                    rec[k] = rec.get(k, 0) + v
            return out
        return wrapper

    def _csr_wrapper(self, fn):
        def wrapper(graph):
            if graph._csr is not None:
                return fn(graph)
            with self.span("graphs.csr") as rec:
                out = fn(graph)
                rec["nnz"] = int(out.nnz)
                return out
        return wrapper

    def install(self, ifd_pkg):
        """Swap the listed `ifd` functions for wrappers; a second call does nothing."""
        import importlib

        if self._saved:
            return
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (AGG_TARGETS, self._agg_wrapper)):
            for mod_name, attr, name in targets:
                mod = importlib.import_module(f"{ifd_pkg}.{mod_name}")
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, make(fn, name))
        graphs = importlib.import_module(f"{ifd_pkg}.graphs")
        cls = graphs.MonotoneDigraph
        self._saved.append((cls, "csr", cls.csr))
        cls.csr = self._csr_wrapper(cls.csr)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def records(self):
        return {"spans": self.spans, "aggregates": list(self.aggs.values())}

    def absorb(self, records):
        """Attach a child process's records below the current span and op."""
        parent, base = self._stack[-1], len(self.spans)
        for rec in records["spans"]:
            rec = dict(rec, id=rec["id"] + base, op=self.op)
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + base
            self.spans.append(rec)
        for rec in records["aggregates"]:
            rec = dict(rec, op=self.op)
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + base
            self.aggs[(rec["parent"], rec["name"], len(self.aggs))] = rec


def self_times(records):
    """Self time of every span: duration minus child spans and aggregated calls."""
    spans = records["spans"]
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    for a in records["aggregates"]:
        if a["parent"] is not None:
            out[a["parent"]] -= a["busy"]
    return out


def self_time_by_name(records):
    """Summed self time per name; aggregated calls count as their busy time."""
    by_id = {s["id"]: s for s in records["spans"]}
    totals = {}
    for sid, t in self_times(records).items():
        name = by_id[sid]["name"]
        totals[name] = totals.get(name, 0.0) + t
    for a in records["aggregates"]:
        totals[a["name"]] = totals.get(a["name"], 0.0) + a["busy"]
    return totals


def write(path, records, metrics):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"self_s": self_time_by_name(records), "metrics": metrics, **records}, fh)


def layer_metrics(records, passes):
    """Per-layer figures per pass over the corpus, from one traced run's records.

    Build and call times are inclusive; ``shortest_path.dijkstra_s`` is self
    time, so the CSR it builds on first use counts only in ``graphs.csr_s``.
    The dense oracle runs in the checks, once per run, so it is not divided.
    """
    spans, aggs = records["spans"], records["aggregates"]
    selfs = self_times(records)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def incl(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def attr(name, key):
        return sum(s.get(key, 0) for s in named(name))

    def agg(name, key):
        return sum(a.get(key, 0) for a in aggs if a["name"] == name)

    def per_us(num, den):
        return 1e6 * num / den if den else 0.0

    out = {
        "param_space.build_cells_s": agg("param_space.build_cells", "busy") / passes,
        "param_space.axes_s": agg("param_space.free_space_axes", "busy") / passes,
        "param_space.edge_min_s": agg("param_space.edge_min", "busy") / passes,
        "graphs.budget_rejects": sum(
            1 for n in ("graphs.build_g1", "graphs.build_g2") for s in named(n)
            if s.get("error") == "BudgetExceeded") / passes,
        "graphs.csr_s": incl("graphs.csr") / passes,
        "graphs.csr_nnz": attr("graphs.csr", "nnz") / passes,
        "graphs.oracle_path_s": incl("graphs.dense_grid_oracle_path") / passes,
        "shortest_path.dijkstra_s": sum(
            selfs[s["id"]] for s in named("shortest_path.dijkstra")) / passes,
        "shortest_path.dense_grid_oracle_s": incl("shortest_path.dense_grid_oracle"),
        "shortest_path.oracle_points": attr("shortest_path.dense_grid_oracle", "points"),
        "integrals.scalar_us_per_segment": per_us(
            agg("integrals.segment_weighted_length", "busy"),
            agg("integrals.segment_weighted_length", "count")),
        "integrals.strip_us_per_edge": per_us(
            agg("integrals.strip_weights", "busy"), agg("integrals.strip_weights", "edges")),
        "matching.matching_cost_s": incl("matching.matching_cost") / passes,
        "matching.locally_optimize_s": incl("matching.locally_optimize") / passes,
        "matching.path_vertices": attr("matching.locally_optimize", "vertices") / passes,
        "cell_paths.cell_shortest_path_s": agg("cell_paths.cell_shortest_path", "busy") / passes,
        "cell_paths.calls": agg("cell_paths.cell_shortest_path", "count") / passes,
    }
    for g in ("g1", "g2"):
        name = f"graphs.build_{g}"
        built = [s for s in named(name) if "vertices" in s]
        vertices = sum(s["vertices"] for s in built)
        out[f"graphs.{g}_build_s"] = incl(name) / passes
        out[f"graphs.{g}_vertices"] = vertices / passes
        out[f"graphs.{g}_edges"] = sum(s["edges"] for s in built) / passes
        out[f"graphs.{g}_us_per_vertex"] = per_us(sum(s["end"] - s["start"] for s in built), vertices)
    return out
