"""Outside-in spans around the public calls of each swarmsphere layer.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` rebinds each
traced function in every ``swarmsphere`` module namespace that holds it
(``from .geometry import exact_mean`` copies the binding into ``dynamics``
and ``kinetic``), and patches traced methods and ``__post_init__`` on their
classes.  Spans are kept in memory as (id, name, start, end, parent, counts)
and summarised or written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, {count metric: fn(args, kwargs, result) -> int}).  An
# attribute "Class.__post_init__" is reported as the constructor "Class".
TRACED = [
    ("geometry", "exact_mean", {"geometry.exact_mean.elements": lambda a, k, r: np.size(a[0])}),
    ("geometry", "renormalize_rows", {}),
    ("geometry", "reorthonormalize", {}),
    ("geometry", "Ensemble.__post_init__", {}),
    ("geometry", "Ensemble.omega_groups", {}),
    ("dynamics", "step", {"dynamics.step.particle_steps": lambda a, k, r: r.n}),
    ("dynamics", "simulate", {}),
    ("dynamics", "eval_field", {}),
    ("dynamics", "MeanField.evaluate", {}),
    ("dynamics", "ReplayField.evaluate", {}),
    ("ws", "ws_evolve", {"ws.ball_guard_events": lambda a, k, r: r.guard_events}),
    ("ws", "ws_rhs", {}),
    ("ws", "WsState.__post_init__", {}),
    ("ws", "push_forward", {}),
    ("ws", "conjugacy_residual", {}),
    ("functionals", "estimate_cycle_moment", {
        "functionals.estimate_cycle_moment.samples": lambda a, k, r: r.samples,
        "functionals.estimate_cycle_moment.rejected": lambda a, k, r: r.rejected}),
    ("functionals", "conservation_drift", {
        "functionals.conservation_drift.tuple_evals":
            lambda a, k, r: r.tuples.shape[0] * r.estimates.size}),
    ("kinetic", "order_parameter_series", {}),
    ("kinetic", "instability_experiment", {}),
    ("kinetic", "order_parameter", {}),
    ("kinetic", "dR2_dt_analytic", {}),
    ("kinetic", "ball_mass", {}),
    ("kinetic", "per_omega_conservation", {}),
    ("io", "write_csv", {"io.write_csv.bytes": lambda a, k, r: r.stat().st_size}),
    ("io", "write_json", {}),
    ("io", "sha256_file", {}),
    ("cli", "parse_config", {}),
    ("cli", "run_experiment", {}),
]


class Tracer:
    """Collects spans from the wrappers that ``install`` puts in place."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, name: str, fn, counters: dict):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = [sid, name, start, end, parent, None]
                spans.append(span)
            if counters:
                span[5] = {m: int(f(args, kwargs, out)) for m, f in counters.items()}
            return out

        return traced

    def install(self) -> None:
        """Rebind every traced name; the swarmsphere modules must be imported."""
        modules = [m for n, m in sys.modules.items() if n == "swarmsphere" or n.startswith("swarmsphere.")]
        for mod_name, attr, counters in TRACED:
            module = importlib.import_module(f"swarmsphere.{mod_name}")
            name = f"{mod_name}.{attr.removesuffix('.__post_init__')}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, vars(cls)[meth], counters))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        """Per span name: calls, self_s, total_s, plus summed count metrics."""
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        layers: dict[str, dict] = {}
        counts: dict[str, int] = defaultdict(int)
        for sid, name, start, end, _, span_counts in self.spans:
            s = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - covered[sid]
            for metric, value in (span_counts or {}).items():
                counts[metric] += value
        return {"layers": layers, "counts": dict(counts)}

    def write_spans(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[sid, index[name], start, end, parent] for sid, name, start, end, parent, _ in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["id", "name", "start", "end", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
