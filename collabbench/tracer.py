"""Span tracing of collabdesign from outside the program.

install() replaces the public functions of each layer, wherever a
collabdesign module (or a dict at module level, such as a dispatch table)
holds a reference to them, with wrappers that record a span: id, name,
start, end, parent, thread and a few facts read from the arguments or the
result. Spans stay in memory until the round ends. uninstall() puts the
originals back, so untraced rounds run the unmodified program.

Each thread keeps its own span stack, so spans on the seed fan-out's worker
threads nest under their own seed cell, and the cell names the fan-out span
of the main thread as its parent.
"""
from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _solve_info(args, kwargs, state):
    pen = _arg(args, kwargs, 1, "spec").penalty.value
    return {"iterations": state.iterations, f"iterations.{pen}": state.iterations,
            f"solves.{pen}": 1, "degenerate": int(state.degenerate),
            "unconverged": int(not (state.converged or state.degenerate))}


def _calibrate_info(args, kwargs, result):
    target = float(_arg(args, kwargs, 2, "target_deactivation"))
    w = np.asarray(result[1].W.W)
    return {"miss_links": abs(int(np.count_nonzero(w == 0.0)) - round(target * w.size))}


def _detect_info(args, kwargs, result):
    w = np.atleast_2d(np.asarray(getattr(args[0], "W", args[0])))
    return {"samples": int(result.trials) * int(w.shape[1])}


def _write_info(args, kwargs, path):
    return {"bytes": path.stat().st_size}


def _eigh_info(args, kwargs, result):
    n = int(np.shape(args[0])[-1])
    return {"n3": n * n * n}


# (module, attribute, span name, info) for every wrapped program function.
TARGETS = (
    ("collabdesign.cli", "main", "cli.main", None),
    ("collabdesign.runconfig", "build_config", "runconfig.build_config", None),
    ("collabdesign.persist", "write_csv", "persist.write", _write_info),
    ("collabdesign.persist", "write_matrix_csv", "persist.write", _write_info),
    ("collabdesign.persist", "write_json", "persist.write", _write_info),
    ("collabdesign.model", "generate_signal_class", "model.generate_signal_class", None),
    ("collabdesign.model", "build_omega", "model.build_omega", None),
    ("collabdesign.design", "design_cost_free", "design.design_cost_free", None),
    ("collabdesign.design", "design_random", "design.design_random", None),
    ("collabdesign.linalg", "sym_eig", "linalg.sym_eig", None),
    ("collabdesign.linalg", "polar_factor", "linalg.polar_factor", None),
    ("collabdesign.linalg", "projector_of", "linalg.projector_of", None),
    ("collabdesign.sparse", "initial_u", "sparse.initial_u", None),
    ("collabdesign.sparse", "solve_gpower", "sparse.solve_gpower", _solve_info),
    ("collabdesign.sparse", "gradient_l0", "sparse.gradient", None),
    ("collabdesign.sparse", "gradient_l1", "sparse.gradient", None),
    ("collabdesign.sparse", "objective_l0", "sparse.objective", None),
    ("collabdesign.sparse", "objective_l1", "sparse.objective", None),
    ("collabdesign.sparse", "design_sparse", "sparse.design_sparse", None),
    ("collabdesign.sparse", "calibrate_gamma", "sparse.calibrate_gamma", _calibrate_info),
    ("collabdesign.metrics", "cumulative_dc", "metrics.cumulative_dc", None),
    ("collabdesign.metrics", "metrics_report", "metrics.metrics_report", None),
    ("collabdesign.experiments", "span_cdc", "experiments.span_cdc", None),
    ("collabdesign.detect", "simulate_detection", "detect.simulate_detection", _detect_info),
)
NUMPY_TARGETS = (("svd", "numpy.svd", None), ("eigh", "numpy.eigh", _eigh_info))

# Each span's self time goes to the layer of its nearest ancestor-or-self
# span named here; numpy calls count for the layer that made them, except
# eigh, which is spectral work wherever it runs.
LAYER_OF = {
    "cli.main": "cli",
    "runconfig.build_config": "cli",
    "persist.write": "persist",
    "experiments.over_seeds": "fanout",
    "experiments.seed_cell": "fanout",
    "model.generate_signal_class": "inputs",
    "design.design_random": "inputs",
    "sparse.calibrate_gamma": "calibration",
    "sparse.design_sparse": "recovery",
    "sparse.solve_gpower": "solver",
    "sparse.initial_u": "spectral",
    "linalg.sym_eig": "spectral",
    "numpy.eigh": "spectral",
    "model.build_omega": "spectral",
    "design.design_cost_free": "spectral",
    "experiments.span_cdc": "cdc",
    "metrics.cumulative_dc": "cdc",
    "metrics.metrics_report": "cdc",
    "linalg.projector_of": "cdc",
    "detect.simulate_detection": "detect",
}
LAYERS = ("solver", "spectral", "recovery", "calibration", "cdc", "detect", "fanout", "inputs",
          "persist", "cli")


class Tracer:
    """In-memory spans: (id, name, start, end, parent, thread, info)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, info=None, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        extra = info(args, kwargs, result) if info is not None else None
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), extra))
        return result

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        return traced

    def _over_seeds(self, original):
        def run(fn, seeds, workers):
            runner = self._stack()[-1]

            def cell(seed):
                return self.call("experiments.seed_cell", fn, (seed,), {}, parent=runner)

            return original(cell, seeds, workers)

        @functools.wraps(original)
        def traced(fn, seeds, workers):
            return self.call("experiments.over_seeds", run, (fn, seeds, workers), {},
                             info=lambda a, k, r: {"workers": int(workers)})

        return traced

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("collabdesign") or module is None:
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, original))
                    namespace[key] = wrapper
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._undo.append((value, dkey, original))
                            value[dkey] = wrapper

    def install(self) -> None:
        for modname, attr, name, info in TARGETS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._replace_everywhere(original, self.wrap(name, original, info))
        experiments = sys.modules.get("collabdesign.experiments")
        original = getattr(experiments, "_over_seeds", None)
        if original is None:
            self.missing.append("collabdesign.experiments._over_seeds")
        else:
            self._replace_everywhere(original, self._over_seeds(original))
        for attr, name, info in NUMPY_TARGETS:
            original = getattr(np.linalg, attr)
            self._undo.append((vars(np.linalg), attr, original))
            setattr(np.linalg, attr, self.wrap(name, original, info))

    def uninstall(self) -> None:
        while self._undo:
            namespace, key, original = self._undo.pop()
            namespace[key] = original

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals: list) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans: list[tuple]) -> dict:
    """Per-layer metrics of one traced round.

    A name's calls and s count only its outermost spans (none of its
    ancestors has the same name), so nested writes are not counted twice;
    s sums their durations over all threads. A span's self time is its
    duration minus the union of its children's intervals.
    """
    by_id = {sp[0]: sp for sp in spans}
    children: dict = {}
    for sp in spans:
        children.setdefault(sp[4], []).append(sp)
    self_time = {}
    for sp in spans:
        kids = [(max(c[2], sp[2]), min(c[3], sp[3])) for c in children.get(sp[0], ())]
        self_time[sp[0]] = (sp[3] - sp[2]) - _union_length([k for k in kids if k[1] > k[0]])

    memo: dict = {}

    def lineage(sid):
        """(layer, names of ancestors-or-self) of a span."""
        if sid in memo:
            return memo[sid]
        chain, cur = [], sid
        while cur and cur in by_id and cur not in memo:
            chain.append(cur)
            cur = by_id[cur][4]
        layer, names = memo.get(cur, ("other", frozenset()))
        for c in reversed(chain):
            name = by_id[c][1]
            layer = LAYER_OF.get(name, layer)
            names = names | {name}
            memo[c] = (layer, names)
        return memo[sid]

    m: dict = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    total_self = 0.0
    layer_self = dict.fromkeys(LAYERS, 0.0)
    under = {"sparse.solve_gpower": 0.0, "sparse.calibrate_gamma": 0.0, "sparse.initial_u": 0.0}
    solves_in_calibration = 0
    for sp in spans:
        sid, name, start, end, parent, _, info = sp
        layer, names = lineage(sid)
        st = self_time[sid]
        total_self += st
        layer_self[layer] = layer_self.get(layer, 0.0) + st
        for root in under:
            if root in names:
                under[root] += st
        if name == "sparse.design_sparse":
            add("sparse.design_sparse.self_s", st)
        outermost = name not in lineage(parent)[1] if parent in by_id else True
        if not outermost:
            continue
        add(f"{name}.calls", 1)
        add(f"{name}.s", end - start)
        for key, value in (info or {}).items():
            add(f"{name}.{key}", value)
        if name == "sparse.solve_gpower" and "sparse.calibrate_gamma" in names:
            solves_in_calibration += 1

    out = {k: float(v) for k, v in m.items()}
    for pen in ("l0", "l1"):
        solves = m.get(f"sparse.solve_gpower.solves.{pen}", 0)
        out[f"sparse.iterations_per_solve.{pen}"] = (
            m.get(f"sparse.solve_gpower.iterations.{pen}", 0) / solves if solves else 0.0
        )
    calls = m.get("sparse.calibrate_gamma.calls", 0)
    out["sparse.calibrate_gamma.solves_per_call"] = solves_in_calibration / calls if calls else 0.0
    cells = [sp for sp in spans if sp[1] == "experiments.seed_cell"]
    runners = [sp for sp in spans if sp[1] == "experiments.over_seeds"]
    busy = sum(sp[3] - sp[2] for sp in cells)
    capacity = sum((sp[3] - sp[2]) * sp[6]["workers"] for sp in runners)
    out["experiments.fanout_efficiency"] = busy / capacity if capacity > 0 else 0.0
    out["trace.spans"] = float(len(spans))
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0)
        out[f"layer.{layer}.share"] = layer_self.get(layer, 0.0) / total_self if total_self else 0.0
    for root, value in under.items():
        out[f"share.under_{root.split('.')[1]}"] = value / total_self if total_self else 0.0
    return out


def write_spans(path, rounds: list[list[tuple]], machine: dict, missing: list[str]) -> None:
    """gzip'd JSON lines: a header record, then one record per span."""
    with gzip.open(path, "wt", compresslevel=3) as fh:
        fh.write(json.dumps({"machine": machine, "missing_targets": missing,
                             "fields": ["round", "id", "name", "start", "end", "parent",
                                        "thread", "info"]}) + "\n")
        for k, spans in enumerate(rounds):
            for sp in spans:
                fh.write(json.dumps([k, *sp]) + "\n")
