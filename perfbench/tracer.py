"""Span tracing of fcone's layers, installed from outside the library.

``Tracer.install`` replaces each layer function listed in ``LAYERS`` by a
wrapper, in every fcone module that holds a reference to it (so
``fcone.cones.rank`` is wrapped as well as ``fcone.exactlin.rank``), and
``Tracer.uninstall`` puts the originals back.  A wrapper records one span
per call: its name, start, end, the span that caused it, and the job it
belongs to.  A span's self time is its duration minus the durations of the
wrapped spans it directly contains.  Aggregates cover every call; the span
list keeps the first ``SPAN_CAP`` spans, enough to read a pass's structure.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

# metric prefix, defining module, attribute (Class.method for methods)
LAYERS = (
    ("exactlin.rank", "fcone.exactlin", "rank"),
    ("exactlin.kernel_basis", "fcone.exactlin", "kernel_basis"),
    ("exactlin.dot", "fcone.exactlin", "dot"),
    ("exactlin.primitive", "fcone.exactlin", "primitive"),
    ("cones.extreme_rays", "fcone.cones", "extreme_rays"),
    ("cones.contains", "fcone.cones", "contains"),
    ("cones.extremality_certificate", "fcone.cones", "extremality_certificate"),
    ("covers.eigen_det_class", "fcone.covers", "eigen_det_class"),
    ("covers.weighted_pullbacks", "fcone.covers", "weighted_pullbacks"),
    ("moduli.FullDivisor", "fcone.moduli", "FullDivisor.__init__"),
    ("moduli.symmetrize", "fcone.moduli", "symmetrize"),
    ("moduli.full_pairing", "fcone.moduli", "full_pairing"),
    ("moduli.proportional", "fcone.moduli", "proportional"),
    ("moduli.SymDivisor.class_vector", "fcone.moduli", "SymDivisor.class_vector"),
    ("moduli.sym_pairing", "fcone.moduli", "sym_pairing"),
    ("eigenforms.eigen_rank_degree_fcurve", "fcone.eigenforms", "eigen_rank_degree_fcurve"),
    ("tables.annotation_candidates", "fcone.tables", "annotation_candidates"),
    ("tables.ray_annotations", "fcone.tables", "ray_annotations"),
    ("tables.t3_certificate_blocks", "fcone.tables", "t3_certificate_blocks"),
    ("cli.main", "fcone.cli", "main"),
)

# work counted at a layer boundary from the call's arguments and result
COUNTERS = {
    "exactlin.rank": ("rows", lambda args, result: len(args[0])),
    "cones.extreme_rays": ("rays_out", lambda args, result: len(result.rays)),
    "covers.eigen_det_class": ("terms", lambda args, result: len(result.delta_map())),
    "covers.weighted_pullbacks": (
        "terms", lambda args, result: sum(len(d.delta_map()) for d in result)),
    "moduli.proportional": ("hits", lambda args, result: result is not None),
}

_ORIGINAL = "__perfbench_original__"
# spans kept for the trace file; the aggregates count every call
SPAN_CAP = 50_000


def _fcone_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "fcone" or name.startswith("fcone.")]


class Tracer:
    def __init__(self):
        self.functions: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, total_s]
        self.counts: dict[str, int] = {}
        self.jobs: dict[int, str] = {}
        self.spans: list[tuple] = []  # (job, span, parent span, name, start, end)
        self.dropped = 0
        self._origin = perf_counter()
        self._stack: list[list] = []  # [name, span id, time in child spans]
        self._next_id = 0
        self._job = -1
        self._patches: list[tuple] = []

    def _call(self, name, counter, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [name, span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            agg = self.functions.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
                edge = self.edges.setdefault((parent[0], name), [0, 0.0])
                edge[0] += 1
                edge[1] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((self._job, span_id, parent and parent[1], name,
                                   start - self._origin, end - self._origin))
            else:
                self.dropped += 1
        if counter is not None:
            key = f"{name}.{counter[0]}"
            self.counts[key] = self.counts.get(key, 0) + counter[1](args, result)
        return result

    def run_job(self, job_id: int, label: str, fn):
        """Run one job under a root span; its spans share the job id."""
        self._job = job_id
        self.jobs[job_id] = label
        return self._call("job", None, fn, (), {})

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, counter, fn, args, kwargs)

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def install(self) -> None:
        modules = _fcone_modules()
        for name, module, path in LAYERS:
            owner = sys.modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = vars(owner)[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every original; return the names still not restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
                if vars(o).get(a) is not orig]
        owners = {id(o): o for o, _, _ in self._patches} | {id(m): m for m in _fcone_modules()}
        left += [f"{getattr(o, '__name__', o)}.{k}" for o in owners.values()
                 for k, v in vars(o).items() if hasattr(v, _ORIGINAL)]
        self._patches = []
        return left

    def metrics(self, passes: int, speed: float, overhead_s: float, untraced_s: float) -> dict:
        """Per-layer metrics per pass of the job list, as {name: (value, unit)}.

        Self times are scaled by ``speed``, the traced passes' reference
        seconds per wall-clock second.
        """
        out = {}
        for name, _, _ in LAYERS:
            calls, _, self_s = self.functions.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.self_s"] = (self_s * speed / passes, "s")
        for name, (counter, _) in COUNTERS.items():
            if counter != "hits":
                out[f"{name}.{counter}"] = (self.counts.get(f"{name}.{counter}", 0) / passes, "count")
        rays = self.counts.get("cones.extreme_rays.rays_out", 0)
        ranks = self.edges.get(("cones.extreme_rays", "exactlin.rank"), (0, 0.0))[0]
        out["cones.extreme_rays.rank_calls_per_ray"] = (ranks / rays if rays else 0.0, "ratio")
        asked = self.functions.get("moduli.proportional", (0,))[0]
        hits = self.counts.get("moduli.proportional.hits", 0)
        out["moduli.proportional.hit_ratio"] = (hits / asked if asked else 0.0, "ratio")
        out["trace.overhead_s"] = (overhead_s, "s")
        out["trace.overhead_frac"] = (overhead_s / untraced_s, "ratio")
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["functions"] = {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(self.functions.items())
        }
        doc["edges"] = [
            {"parent": p, "child": c, "calls": n, "total_s": t}
            for (p, c), (n, t) in sorted(self.edges.items())
        ]
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["jobs"] = self.jobs
        doc["span_fields"] = ["job", "span", "parent", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        doc["spans_dropped"] = self.dropped
        path.write_text(json.dumps(doc) + "\n")
