"""Spans around the program's public functions, and layer metrics.

The program is not edited: each traced function is wrapped from outside,
at its defining module and at every other ``geokatz`` module that holds
the same function object (``from ... import`` bindings), so calls made
through any binding or alias are recorded. Targets are looked up by
name; a target that no longer exists is listed in ``Tracer.missing``
and its metrics read 0 instead of failing the run.

Spans live in memory (name, start, end, thread, parent span, run id and
a few counts) and are written out once, after the run.
"""

import inspect
import itertools
import json
import os
import sys
import threading
import time
import uuid
from functools import wraps


def _score_entries(args):
    scores = args["scores"]
    universe = getattr(scores, "universe", None)
    if universe is not None:
        return {"entries": universe.n_pairs}
    return {"entries": int(getattr(scores, "size", len(scores)))}


def _file_bytes(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) \
        else 0


# (span name, defining module, function, counts taken from the bound
# arguments and the return value once the call has ended)
TARGETS = (
    ("synth.generate", "geokatz.synth", "generate", None),
    ("synth.write_movements", "geokatz.synth", "write_movements", None),
    ("synth.write_truth", "geokatz.synth", "write_truth", None),
    ("graphs.ingest", "geokatz.graphs", "ingest_movements",
     lambda a, out: {"accepted": out.accepted, "rejected": out.rejected}),
    ("graphs.build_network", "geokatz.graphs", "build_network", None),
    ("graphs.split", "geokatz.graphs", "temporal_split", None),
    ("graphs.adjacency", "geokatz.graphs", "build_adjacency", None),
    ("graphs.pairs", "geokatz.graphs", "candidate_pairs", None),
    ("geo.distance_matrix", "geokatz.geo", "distance_matrix",
     lambda a, out: {"pairs": int(out.size)}),
    ("geo.weighted_adjacency", "geokatz.geo", "weighted_adjacency", None),
    ("kernels.series", "geokatz._kernels", "katz_series_rows",
     lambda a, out: {"sources": len(a["sources"])}),
    ("katz.spectral", "geokatz.katz", "spectral_radius",
     lambda a, out: {"iterations": out.iterations}),
    ("katz.scores", "geokatz.katz", "katz_scores", None),
    ("katz.decay", "geokatz.katz", "edge_weighted_katz_scores", None),
    ("katz.normalize", "geokatz.katz", "normalize", None),
    ("katz.combine", "geokatz.katz", "combine", None),
    ("katz.export", "geokatz.katz", "write_score_table",
     lambda a, out: {"rows": a["table"].universe.n_pairs,
                     "bytes": _file_bytes(a["dest"])}),
    ("metrics.threshold", "geokatz.metrics", "optimal_threshold",
     lambda a, out: _score_entries(a)),
    ("metrics.evaluate", "geokatz.metrics", "evaluate",
     lambda a, out: _score_entries(a)),
    ("metrics.curve", "geokatz.metrics", "write_curve",
     lambda a, out: {"points": len(a["curve"].thresholds)}),
    ("metrics.report", "geokatz.metrics", "write_report", None),
    ("pipeline.run", "geokatz.pipeline", "run", None),
    ("config.load", "geokatz.config", "load_run_config", None),
)

EXPORT_SPANS = ("katz.export", "metrics.curve", "metrics.report")


def patch_everywhere(module_name, attr, make_wrapper):
    """Replace a function at every ``geokatz`` module binding it.

    Returns the original function, or None when the module or the name
    does not exist.
    """
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = __import__(module_name, fromlist=[attr])
        except ImportError:
            return None
    original = getattr(module, attr, None)
    if not callable(original):
        return None
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "geokatz"
                               or name.startswith("geokatz.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
    return original


class Tracer:
    """Records one span per call of each target function."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def install(self):
        for name, module, attr, counts in TARGETS:
            original = patch_everywhere(
                module, attr,
                lambda fn, name=name, counts=counts:
                self._wrap(name, fn, counts))
            if original is None:
                self.missing.append(f"{module}.{attr}")

    def _wrap(self, name, fn, counts):
        signature = inspect.signature(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            # Calls on pool threads start with an empty stack; their
            # parent is the run that submitted them.
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            stack.append(span_id)
            if name == "pipeline.run":
                self._root = span_id
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "name": name, "start": start,
                    "end": end, "thread": threading.get_ident(),
                    "parent": parent, "run": self.run_id}
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counts(bound.arguments, out))
            self.spans.append(span)
            return out

        return traced

    def next_run(self):
        """Start a new run id, keeping only the set-up spans."""
        self.spans = [s for s in self.spans if s["name"] == "config.load"]
        self.run_id = uuid.uuid4().hex

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "missing": self.missing,
                       "spans": self.spans}, fh)


def _union(intervals):
    """Merged, sorted intervals covering the given (start, end) pairs."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _length(intervals):
    return sum(end - start for start, end in _union(intervals))


def _subtract(start, end, holes):
    """Parts of (start, end) that none of the ``holes`` intervals cover."""
    left = []
    for hole_start, hole_end in _union(holes):
        if hole_start > start:
            left.append((start, min(hole_start, end)))
        start = max(start, hole_end)
    if end > start:
        left.append((start, end))
    return left


def _self_intervals(spans, children):
    """Self time of each span: its interval minus its own children's."""
    left = []
    for span in spans:
        left += _subtract(span["start"], span["end"],
                          [(c["start"], c["end"])
                           for c in children.get(span["id"], ())])
    return left


def layer_metrics(spans):
    """Per-layer metrics of one traced run, keyed by metric name."""
    by_name, children = {}, {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        children.setdefault(span["parent"], []).append(span)

    def intervals(*names):
        return [(s["start"], s["end"]) for n in names
                for s in by_name.get(n, ())]

    def busy(*names):
        return _length(intervals(*names))

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    root = by_name["pipeline.run"][0]
    run_s = root["end"] - root["start"]
    inner = [(max(s["start"], root["start"]), min(s["end"], root["end"]))
             for s in spans
             if s["name"] not in ("pipeline.run", "config.load")
             and s["end"] > root["start"] and s["start"] < root["end"]]
    layers_s = _length(inner)
    scores = intervals("katz.scores")
    scores_s = _length(scores)
    ingest_s = busy("graphs.ingest")
    sweep_s = busy("metrics.threshold", "metrics.evaluate")
    export_s = busy("katz.export")
    export_bytes = total("katz.export", "bytes")
    return {
        "synth.generate_s": busy("synth.generate"),
        "synth.write_s": busy("synth.write_movements", "synth.write_truth"),
        "graphs.ingest_s": ingest_s,
        "graphs.ingest_rows_per_s": rate(
            total("graphs.ingest", "accepted")
            + total("graphs.ingest", "rejected"), ingest_s),
        "graphs.rows_accepted": total("graphs.ingest", "accepted"),
        "graphs.rows_rejected": total("graphs.ingest", "rejected"),
        "graphs.build_network_s": busy("graphs.build_network"),
        "graphs.split_s": busy("graphs.split"),
        "graphs.adjacency_s": busy("graphs.adjacency"),
        "graphs.pairs_s": busy("graphs.pairs"),
        "geo.distance_matrix_s": busy("geo.distance_matrix"),
        "geo.distance_pairs": total("geo.distance_matrix", "pairs"),
        "geo.weighted_adjacency_s": busy("geo.weighted_adjacency"),
        "kernels.series_s": busy("kernels.series"),
        "kernels.series_sources": total("kernels.series", "sources"),
        "katz.spectral_s": busy("katz.spectral"),
        "katz.spectral_iterations": total("katz.spectral", "iterations"),
        "katz.scores_s": scores_s,
        "katz.scores_calls": calls("katz.scores"),
        "katz.scores_self_s": _length(_self_intervals(
            by_name.get("katz.scores", ()), children)),
        "katz.scores_overlap": rate(
            sum(end - start for start, end in scores), scores_s),
        "katz.normalize_s": busy("katz.normalize"),
        "katz.normalize_calls": calls("katz.normalize"),
        "katz.decay_s": busy("katz.decay"),
        "katz.decay_calls": calls("katz.decay"),
        "katz.combine_s": busy("katz.combine"),
        "katz.export_s": export_s,
        "katz.export_rows": total("katz.export", "rows"),
        "katz.export_bytes": export_bytes,
        "katz.export_mb_per_s": rate(export_bytes / 1e6, export_s),
        "metrics.threshold_s": busy("metrics.threshold"),
        "metrics.threshold_calls": calls("metrics.threshold"),
        "metrics.evaluate_s": busy("metrics.evaluate"),
        "metrics.pairs_per_s": rate(
            total("metrics.threshold", "entries")
            + total("metrics.evaluate", "entries"), sweep_s),
        "metrics.curve_s": busy("metrics.curve"),
        "metrics.curve_points": total("metrics.curve", "points"),
        "metrics.report_s": busy("metrics.report"),
        "pipeline.self_s": run_s - layers_s,
        "pipeline.export_share": busy(*EXPORT_SPANS) / run_s,
        "config.load_s": rate(busy("config.load"), calls("config.load")),
        "trace.run_s": run_s,
        "trace.layers_s": layers_s,
    }
