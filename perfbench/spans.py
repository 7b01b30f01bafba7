"""In-memory span tracing of edgecert's public functions, from outside the program.

A :class:`Tracer` replaces each traced function at every binding inside the
``edgecert`` package that holds it (``from .x import y`` makes a second
binding in the importing module), records one span per call and puts the
originals back on :meth:`Tracer.uninstall`. Spans stay in memory as tuples
``(name, start_ns, end_ns, parent_index, request)``; the request is the node
id of the nearest enclosing span that carries one.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# Traced functions, by defining module. Every name here is reached by a
# gen|train|certify|attack|report run (targeted and global attack together).
LAYERS: dict[str, tuple[str, ...]] = {
    "graph": ("load_graph", "sbm_generate", "khop_subgraph", "slot_pair", "to_struct_vector",
              "normalized_adjacency"),
    "noise": ("sample_edgedrop", "apply_xor", "delta_bound"),
    "encoder": ("forward", "init_params", "load_params", "save_params"),
    "trainer": ("train_res", "augment", "loss_and_grads", "write_train_log"),
    "linear_eval": ("fit_logreg", "predict", "predict_many", "load_logreg", "save_logreg"),
    "certify": ("certify_node", "smoothed_predict", "base_predict", "vote_on_struct_vector",
                "confidence_bounds", "beta_quantile", "certified_k", "certified_accuracy",
                "write_certification_report", "write_curve"),
    "attack": ("evasion_eval", "random_targeted_attack", "random_global_attack", "add_edges",
               "write_attack_report"),
    "cli": ("parse_config", "load_dataset", "split_nodes", "parallel_map", "cmd_gen", "cmd_train",
            "cmd_certify", "cmd_attack", "cmd_report"),
    "checkpoint": ("read_checkpoint", "write_checkpoint"),
    "rng": ("derive_seed", "stream_rng"),
}

# Functions whose positional argument at this index is the node a call serves.
REQUEST_ARG = {
    "certify.certify_node": 1,
    "certify.smoothed_predict": 1,
    "certify.base_predict": 1,
    "attack.random_targeted_attack": 1,
}

PACKAGE = "edgecert"


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _package_modules() -> list:
    importlib.import_module(PACKAGE)
    for mod in LAYERS:
        importlib.import_module(f"{PACKAGE}.{mod}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Span recorder for the functions named in :data:`LAYERS`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name in traced_names():
            mod, fn = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
            wrapper = self.wrap(name, original, REQUEST_ARG.get(name))
            for m in modules:
                if getattr(m, fn, None) is original:
                    self._patched.append((m, fn, original))
                    setattr(m, fn, wrapper)

    def uninstall(self) -> None:
        for m, fn, original in reversed(self._patched):
            setattr(m, fn, original)
        self._patched.clear()

    def wrap(self, name: str, fn, req_arg: int | None = None):
        """fn, recording a span named ``name`` per call; args[req_arg] is its request."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            req = int(args[req_arg]) if req_arg is not None and len(args) > req_arg else None
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, req)

        return wrapper


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[int]:
    """Per-span self time (ns): duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for idx, (_, t0, t1, _, _) in enumerate(spans):
        covered = 0
        cursor = t0
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append(t1 - t0 - covered)
    return out


def requests(spans) -> list[int | None]:
    """Request (node id) of each span, inherited from the nearest ancestor that has one."""
    out: list[int | None] = []
    for _, _, _, parent, req in spans:
        out.append(req if req is not None or parent < 0 else out[parent])
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return float(xs[rank - 1])


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    That is the sample of rank n - 10; below 11 samples it is the median.
    """
    n = len(values)
    if n < 11:
        return percentile(values, 50.0), 50.0, n
    return float(sorted(values)[n - 11]), 100.0 * (n - 10) / n, n


def summarize(spans) -> dict[str, dict]:
    """Calls, total and self time (s) and the median call (s) of every traced name."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    durs: dict[str, list[int]] = {}
    for (name, t0, t1, _, _), s in zip(spans, selfs):
        row = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (t1 - t0) / 1e9
        row["self_s"] += s / 1e9
        durs.setdefault(name, []).append(t1 - t0)
    for name, row in by_name.items():
        row["p50_s"] = percentile(durs[name], 50.0) / 1e9
    return by_name


def durations(spans, name: str) -> list[float]:
    """Durations (s) of every span with this name, in call order."""
    return [(t1 - t0) / 1e9 for n, t0, t1, _, _ in spans if n == name]


def draw_times(spans, vote: str = "certify.vote_on_struct_vector",
               draw: str = "noise.sample_edgedrop") -> list[float]:
    """Wall time (s) of each Monte-Carlo draw.

    A draw runs from one noise draw's start to the next one's inside the same
    vote span; the last draw of a vote ends with the vote.
    """
    starts: dict[int, list[int]] = {}
    for name, t0, _, parent, _ in spans:
        if name == draw and parent >= 0 and spans[parent][0] == vote:
            starts.setdefault(parent, []).append(t0)
    out = []
    for parent, ts in starts.items():
        ts.append(spans[parent][2])
        out.extend((b - a) / 1e9 for a, b in zip(ts, ts[1:]))
    return out
