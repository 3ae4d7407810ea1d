"""Spans around the public functions of each ifscert module, recorded from outside.

A module that does ``from .metric import chain_profile`` holds its own binding
of that name, so wrapping ``metric.chain_profile`` alone would let the calls
made through ``certify`` or ``cli`` escape their spans. :func:`install` wraps
every binding of each hooked object in every loaded ``ifscert`` module, and
the hooked methods on their classes. Nothing is installed for an untraced run,
so it pays no tracing cost at all.

A span records its name, start, end, parent and counts. Spans stay in memory;
the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1]["id"] if self._stack else None
        sp = {"id": len(self.spans), "name": name, "parent": parent,
              "start": time.perf_counter_ns(), "end": None, "counts": {}}
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter_ns()
            self._stack.pop()


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _graph_counts(args, kwargs, graph):
    return {"graphs": 1, "graph_points": len(graph.cloud), "graph_edges": graph.edge_count}


def _kdtree_counts(args, kwargs, tree):
    return {"kdtree_builds": 1, "kdtree_points": int(tree.n)}


def _refine_counts(args, kwargs, cloud):
    # the model (``self``) and pitch identify a refinement; repeats of the
    # same key inside one operation are work a cache could have reused
    model, delta = args[0], (args[1] if len(args) > 1 else kwargs["delta"])
    return {"refine_calls": 1, "refine_points": len(cloud), "key": f"{id(model)}:{float(delta)!r}"}


def _segments(args, kwargs, result):
    line = _first(args, kwargs, "line")
    return {"calls": 1, "segments": len(line.vertices) - 1 + int(line.closed)}


def _hutchinson_counts(args, kwargs, cloud):
    return {"points_in": len(args[1] if len(args) > 1 else kwargs["cloud"]), "points_out": len(cloud)}


def _eval_counts(args, kwargs, out):
    return {"points": len(out) if out.ndim == 2 else 1}


def _attractor_counts(args, kwargs, result):
    return {"iterations": len(result.steps)}


def _write_counts(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes_written": len(text)}  # model, IFS, CSV and SVG text is ASCII


def _read_counts(args, kwargs, result):
    return {"bytes_read": os.path.getsize(_first(args, kwargs, "path"))}


def _svg_counts(args, kwargs, text):
    return {"bytes": len(text)}


# (defining module, attribute, span name, counter). The defining module may be
# outside ifscert (scipy's cKDTree); every ifscert binding of the object is wrapped.
FUNCTION_HOOKS = [
    ("ifscert.cli", "main", "cli.main", None),
    ("ifscert.metric", "eps_graph", "metric.eps_graph", _graph_counts),
    ("ifscert.metric", "chain_distance_on_graph", "metric.query", None),
    ("ifscert.metric", "chain_profile", "metric.chain_profile", None),
    ("ifscert.metric", "hausdorff", "metric.hausdorff", None),
    ("scipy.sparse.csgraph", "dijkstra", "metric.dijkstra", None),
    ("scipy.spatial", "cKDTree", "metric.kdtree", _kdtree_counts),
    ("ifscert.continua", "build_needle", "continua.build", None),
    ("ifscert.continua", "build_P", "continua.build", None),
    ("ifscert.continua", "build_zigzag_ln", "continua.build", None),
    ("ifscert.geometry", "self_intersects", "geometry.self_intersects", _segments),
    ("ifscert.geometry", "sample_polyline", "geometry.sample_polyline", None),
    ("ifscert.ifs", "eval_map", "ifs.eval_map", _eval_counts),
    ("ifscert.ifs", "hutchinson", "ifs.hutchinson", _hutchinson_counts),
    ("ifscert.ifs", "attractor", "ifs.attractor", _attractor_counts),
    ("ifscert.ifs", "classify_contraction", "ifs.classify", None),
    ("ifscert.certify", "fixed_set_check", "certify.check", None),
    ("ifscert.certify", "p_point_coverage", "certify.check", None),
    ("ifscert.certify", "needle_dichotomy_check", "certify.check", None),
    # atomic_write nests inside save_* under the same name, so the name's
    # self time is the whole save and every file written counts its bytes
    ("ifscert.formats", "save_model", "formats.save", None),
    ("ifscert.formats", "save_ifs", "formats.save", None),
    ("ifscert.formats", "save_profile", "formats.save", None),
    ("ifscert.formats", "atomic_write", "formats.save", _write_counts),
    ("ifscert.formats", "load_model", "formats.load", _read_counts),
    ("ifscert.formats", "load_ifs", "formats.load", _read_counts),
    ("ifscert.formats", "load_profile_csv", "formats.load", _read_counts),
    ("ifscert.svg", "model_svg", "svg.render", _svg_counts),
    ("ifscert.svg", "profile_svg", "svg.render", _svg_counts),
]

# (module, class, method, span name, counter)
METHOD_HOOKS = [
    ("ifscert.geometry", "ContinuumModel", "refine", "continua.refine", _refine_counts),
    ("ifscert.metric", "EpsGraph", "matrix", "metric.csr", None),
]


def _wrap(tracer: Tracer, fn, name: str, counter):
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
            if counter is not None:
                sp["counts"].update(counter(args, kwargs, out))
            return out

    # no __dict__ copy: the wrapped object may be a class (cKDTree)
    return functools.update_wrapper(traced, fn, updated=())


def install(tracer: Tracer) -> list[str]:
    """Wrap every hooked binding in the loaded ifscert modules; return the hooks that failed.

    A hook fails when its target no longer exists, or when no ifscert module
    binds it (say, ifscert stops using scipy's ``dijkstra``). Its metrics would
    then read zero, which looks like a gain, so the caller fails the run.
    """
    missing = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "ifscert" or n.startswith("ifscert.")]
    for home, attr, name, counter in FUNCTION_HOOKS:
        orig = getattr(sys.modules.get(home), attr, None)
        if orig is None:
            missing.append(f"{home}.{attr} not found")
            continue
        traced = _wrap(tracer, orig, name, counter)
        bound = 0
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)
                    bound += 1
        if not bound:
            missing.append(f"{home}.{attr} bound by no ifscert module")
    for home, cls_name, attr, name, counter in METHOD_HOOKS:
        cls = getattr(sys.modules.get(home), cls_name, None)
        if cls is None or not hasattr(cls, attr):
            missing.append(f"{home}.{cls_name}.{attr} not found")
            continue
        setattr(cls, attr, _wrap(tracer, getattr(cls, attr), name, counter))
    return missing


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children (ns)."""
    own = {sp["id"]: sp["end"] - sp["start"] for sp in spans}
    for sp in spans:
        if sp["parent"] is not None:
            own[sp["parent"]] -= sp["end"] - sp["start"]
    return own


def _ancestors(spans_by_id: dict, sp: dict):
    parent = sp["parent"]
    while parent is not None:
        up = spans_by_id[parent]
        yield up
        parent = up["parent"]


# per-layer metric -> (span name, what to sum): "self" sums self seconds,
# anything else sums that count over the span name
LAYER_METRICS = {
    "metric.eps_graph_s": ("metric.eps_graph", "self"),
    "metric.csr_s": ("metric.csr", "self"),
    "metric.dijkstra_s": ("metric.dijkstra", "self"),
    "metric.graphs": ("metric.eps_graph", "graphs"),
    "metric.graph_points": ("metric.eps_graph", "graph_points"),
    "metric.graph_edges": ("metric.eps_graph", "graph_edges"),
    "metric.chain_profile_s": ("metric.chain_profile", "self"),
    "metric.query_s": ("metric.query", "self"),
    "metric.kdtree_builds": ("metric.kdtree", "kdtree_builds"),
    "metric.kdtree_points": ("metric.kdtree", "kdtree_points"),
    "metric.kdtree_s": ("metric.kdtree", "self"),
    "metric.hausdorff_s": ("metric.hausdorff", "self"),
    "continua.build_s": ("continua.build", "self"),
    "continua.refine_s": ("continua.refine", "self"),
    "continua.refine_calls": ("continua.refine", "refine_calls"),
    "continua.refine_points": ("continua.refine", "refine_points"),
    "geometry.self_intersects_s": ("geometry.self_intersects", "self"),
    "geometry.self_intersects_calls": ("geometry.self_intersects", "calls"),
    "geometry.segments": ("geometry.self_intersects", "segments"),
    "geometry.sample_polyline_s": ("geometry.sample_polyline", "self"),
    "ifs.hutchinson_s": ("ifs.hutchinson", "self"),
    "ifs.hutchinson_points_in": ("ifs.hutchinson", "points_in"),
    "ifs.hutchinson_points_out": ("ifs.hutchinson", "points_out"),
    "ifs.eval_map_s": ("ifs.eval_map", "self"),
    "ifs.eval_map_points": ("ifs.eval_map", "points"),
    "ifs.attractor_s": ("ifs.attractor", "self"),
    "ifs.attractor_iterations": ("ifs.attractor", "iterations"),
    "ifs.classify_s": ("ifs.classify", "self"),
    "certify.self_s": ("certify.check", "self"),
    "formats.save_s": ("formats.save", "self"),
    "formats.load_s": ("formats.load", "self"),
    "formats.bytes_written": ("formats.save", "bytes_written"),
    "formats.bytes_read": ("formats.load", "bytes_read"),
    "svg.render_s": ("svg.render", "self"),
    "svg.bytes": ("svg.render", "bytes"),
    "cli.self_s": ("cli.main", "self"),
}

# spans the benchmark itself opens; their self time is benchmark glue
BENCH_SPANS = ("bench.pass", "bench.op")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (its spans only)."""
    own = self_times(spans)
    by_id = {sp["id"]: sp for sp in spans}
    out = {}
    for metric, (name, what) in LAYER_METRICS.items():
        hits = [sp for sp in spans if sp["name"] == name]
        if what == "self":
            out[metric] = sum(own[sp["id"]] for sp in hits) / 1e9
        else:
            out[metric] = sum(sp["counts"].get(what, 0) for sp in hits)

    # derived counts: chain profiles run by certificates, queries answered
    # per graph built, and refinements that repeat an earlier one in their op
    out["certify.chain_profiles"] = sum(
        1 for sp in spans if sp["name"] == "metric.chain_profile"
        and any(up["name"] == "certify.check" for up in _ancestors(by_id, sp))
    )
    queries = sum(1 for sp in spans if sp["name"] == "metric.query")
    out["metric.queries_per_graph"] = queries / out["metric.graphs"] if out["metric.graphs"] else 0.0
    seen, reuse = set(), 0
    for sp in spans:
        if sp["name"] == "continua.refine":
            root = next((up["id"] for up in _ancestors(by_id, sp)
                         if up["name"] in ("cli.main", "bench.op")), None)
            key = (root, sp["counts"]["key"])
            reuse += key in seen
            seen.add(key)
    out["continua.refine_reuse"] = reuse

    passes = [sp for sp in spans if sp["name"] == "bench.pass"]
    wall = sum(sp["end"] - sp["start"] for sp in passes) / 1e9
    glue = sum(own[sp["id"]] for sp in spans if sp["name"] in BENCH_SPANS) / 1e9
    out["trace.wall_s"] = wall
    out["trace.self_sum_s"] = sum(out[m] for m, (_, what) in LAYER_METRICS.items() if what == "self")
    out["trace.untracked_s"] = glue
    out["trace.spans"] = len(spans)
    return out
