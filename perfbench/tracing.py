"""Span tracing from outside the program.

The program has no spans of its own, so the traced run wraps each layer's
public functions and methods at run time and records one span per call:
name, start, end, parent span, the operation it belongs to and the driver
that was running.  Spans stay in flat integer arrays in memory and are
written out once, when the run ends.

Functions that other modules import by name (``engine`` and ``fedproto``
import ``local_forward``, ``global_value``, ``sample_direction`` and more)
must be replaced in every module that holds a binding, not only where they
are defined; otherwise those call sites would count zero calls.  ``rebind``
does that.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name).  The span name's first part is the layer.
TARGETS = [
    ("streams", "stream", "streams.stream"),
    ("models", "local_forward", "models.local_forward"),
    ("models", "global_value", "models.global_value"),
    ("models", "nonconvex_reg", "models.nonconvex_reg"),
    ("models", "init_state", "models.init_state"),
    ("estimator", "sample_direction", "estimator.sample_direction"),
    ("estimator", "client_block_zoe", "estimator.block_zoe"),
    ("estimator", "server_block_zoe", "estimator.block_zoe"),
    ("estimator", "smoothed_value_mc_quadratic", "estimator.mc_quadratic"),
    ("estimator", "smoothed_grad_mc_quadratic", "estimator.mc_quadratic"),
    ("fedproto", "encode_message", "fedproto.encode_message"),
    ("fedproto", "Transcript.record", "fedproto.record"),
    ("fedproto", "Transcript.record_raw", "fedproto.record_raw"),
    ("fedproto", "Transcript.to_jsonl", "fedproto.to_jsonl"),
    ("fedproto", "Transcript.from_jsonl", "fedproto.from_jsonl"),
    ("fedproto", "ServerCache.row", "fedproto.cache_row"),
    ("fedproto", "ServerCache.put", "fedproto.cache_put"),
    ("fedproto", "StalenessQueue.pop_next", "fedproto.queue.pop"),
    ("fedproto", "DelayModel.latency_time", "fedproto.latency_time"),
    ("fedproto", "DelayModel.compute_time", "fedproto.compute_time"),
    ("fedproto", "PartyNode.start_step", "fedproto.start_step"),
    ("fedproto", "PartyNode.warm_upload", "fedproto.warm_upload"),
    ("fedproto", "PartyNode.apply_reply", "fedproto.apply_reply"),
    ("fedproto", "ServerNode.handle_upload", "fedproto.handle_upload"),
    ("fedproto", "ServerNode.answer_round", "fedproto.answer_round"),
    ("fedproto", "warmup_cache", "fedproto.warmup"),
    ("fedproto", "audit_transcript", "fedproto.audit"),
    ("engine", "run_algorithm", "engine.run_algorithm"),
    ("engine", "evaluate_loss", "engine.evaluate"),
    ("engine", "evaluate_accuracy", "engine.evaluate"),
    ("verify", "check_smoothing_bounds", "verify.check_smoothing_bounds"),
    ("verify", "check_unbiasedness", "verify.check_unbiasedness"),
    ("cli", "main", "cli.main"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "ExperimentSpec.from_config", "cli.from_config"),
    ("cli", "ExperimentSpec.load", "cli.load"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "load_libsvm", "cli.data"),
    ("cli", "split_tenfold", "cli.data"),
    ("cli", "synthetic_pair", "cli.data"),
    ("cli", "make_synthetic", "cli.data"),
]

DRIVERS = ("asyrevel_gau", "asyrevel_uni", "synrevel", "nonfed", "tig")


def rebind(old, new) -> None:
    """Point every module-level binding of ``old`` in the program at ``new``."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("revelight"):
            for key, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, key, new)


def patch(module, attr: str, make):
    """Replace ``module.attr`` (``Class.method`` allowed) by ``make(current)``."""
    owner_name, _, name = attr.rpartition(".")
    if not owner_name:
        old = getattr(module, name)
        new = make(old)
        rebind(old, new)
        return
    cls = getattr(module, owner_name)
    raw = vars(cls)[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(make(raw.__func__)))
    else:
        setattr(cls, name, make(raw))


class Tracer:
    """In-memory span store plus the queue observations at ``pop_next``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.drv = array("q")
        self.stack = [-1]
        self.current_op = -1
        self.current_drv = -1
        self.on = True
        # one row per pop_next call: operation, driver, delivered depth, and
        # staleness (>= 0), -1 for a stall, -2 for an idle None
        self.pops: list[tuple[int, int, int, int]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.op.append(self.current_op)
            self.drv.append(self.current_drv)
            self.start.append(0)
            self.end.append(0)
            self.stack.append(i)
            self.start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()

        return traced

    def _wrap_run(self, name: str, fn):
        """Span for run_algorithm that also marks the driver for its children."""
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def run_algorithm(cfg, *args, **kwargs):
            saved, self.current_drv = self.current_drv, DRIVERS.index(cfg.algorithm)
            try:
                return traced(cfg, *args, **kwargs)
            finally:
                self.current_drv = saved

        return run_algorithm

    def _wrap_pop(self, name: str, fn):
        """Span for pop_next that also records depth, staleness and stalls."""
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def pop_next(queue, processed_count):
            depth = len(queue.pending)
            out = traced(queue, processed_count)
            if self.on:
                if out is not None:
                    stal = processed_count - out[1]
                else:
                    stal = -1 if queue.pending else -2
                self.pops.append((self.current_op, self.current_drv, depth, stal))
            return out

        return pop_next

    def install(self, rl) -> None:
        """Wrap every target in the loaded program modules ``rl``."""
        special = {"run_algorithm": self._wrap_run, "StalenessQueue.pop_next": self._wrap_pop}
        for mod_name, attr, span in TARGETS:
            make = special.get(attr, self.wrap)
            patch(getattr(rl, mod_name), attr, functools.partial(make, span))

    def arrays(self) -> dict[str, np.ndarray]:
        out = {k: np.frombuffer(getattr(self, k), dtype=np.int64).copy()
               for k in ("name", "start", "end", "parent", "op", "drv")}
        out["names"] = np.array(self.names)
        out["pops"] = np.array(self.pops, dtype=np.int64).reshape(-1, 4)
        return out

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def count(spans: dict, name: str, op: int | None = None, drivers=None) -> int:
    """Number of spans called ``name``, optionally in one operation and drivers."""
    names = list(spans["names"])
    if name not in names:
        return 0
    mask = spans["name"] == names.index(name)
    if op is not None:
        mask &= spans["op"] == op
    if drivers is not None:
        mask &= np.isin(spans["drv"], [DRIVERS.index(d) for d in drivers])
    return int(np.count_nonzero(mask))


def layer_metrics(spans: dict, n_ops: int, events_per_op: int, op_seconds: float) -> dict:
    """Per-layer figures from the traced operations, per operation.

    ``.calls`` are per-operation call counts; every traced operation runs the
    same inputs, so they are exact.  ``us_per_call`` is the mean inclusive
    span time.  A layer's ``self_s`` is the time its spans cover minus the
    time their child spans cover.
    """
    names = list(spans["names"])
    name = spans["name"]
    dur = (spans["end"] - spans["start"]) / 1e9
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    layer_of = np.array([n.split(".")[0] for n in names] or [""])

    def ids(span):
        return name == names.index(span) if span in names else np.zeros(name.size, bool)

    def calls(span):
        return int(np.count_nonzero(ids(span))) / n_ops

    def us_per_call(span):
        mask = ids(span)
        return float(dur[mask].mean() * 1e6) if mask.any() else 0.0

    def total(span):
        return float(dur[ids(span)].sum()) / n_ops

    def self_s(layer):
        return float(own[layer_of[name] == layer].sum()) / n_ops if name.size else 0.0

    m = {}
    for layer in ("streams", "models", "estimator", "fedproto", "engine", "verify", "cli"):
        m[f"{layer}.self_s"] = self_s(layer)
    for span in ("streams.stream", "models.local_forward", "models.global_value",
                 "models.nonconvex_reg", "estimator.sample_direction", "estimator.block_zoe",
                 "fedproto.encode_message", "fedproto.record", "fedproto.cache_row"):
        m[f"{span}.calls"] = calls(span)
        m[f"{span}.us_per_call"] = us_per_call(span)
    m["streams.stream.calls_per_event"] = calls("streams.stream") / events_per_op
    m["estimator.mc_quadratic.self_s"] = float(own[ids("estimator.mc_quadratic")].sum()) / n_ops
    for step in ("start_step", "apply_reply", "handle_upload", "answer_round"):
        m[f"fedproto.{step}.us_per_call"] = us_per_call(f"fedproto.{step}")

    asy = ("asyrevel_gau", "asyrevel_uni")
    uploads = count(spans, "fedproto.start_step", drivers=asy)
    draws = count(spans, "fedproto.latency_time", drivers=asy)
    m["fedproto.latency_draws_per_message"] = draws / uploads if uploads else 0.0

    pops = spans["pops"]
    stal = pops[:, 3]
    served = stal[stal >= 0]
    m["fedproto.queue.pop_calls"] = pops.shape[0] / n_ops
    m["fedproto.queue.us_per_pop"] = us_per_call("fedproto.queue.pop")
    m["fedproto.queue.stalls"] = int(np.count_nonzero(stal == -1)) / n_ops
    m["fedproto.queue.stall_ratio"] = (
        float(np.count_nonzero(stal == -1)) / pops.shape[0] if pops.shape[0] else 0.0
    )
    m["fedproto.queue.max_depth"] = float(pops[:, 2].max()) if pops.shape[0] else 0.0
    m["fedproto.queue.staleness_mean"] = float(served.mean()) if served.size else 0.0
    m["fedproto.queue.staleness_p99"] = (
        float(np.percentile(served, 99, method="inverted_cdf")) if served.size else 0.0
    )
    m["fedproto.queue.staleness_max"] = float(served.max()) if served.size else 0.0
    m["fedproto.cache_put.calls"] = calls("fedproto.cache_put")
    m["fedproto.warmup_s"] = total("fedproto.warmup")
    m["fedproto.to_jsonl_s"] = total("fedproto.to_jsonl")
    m["fedproto.from_jsonl_s"] = total("fedproto.from_jsonl")
    m["fedproto.audit_s"] = total("fedproto.audit")

    m["engine.evaluate.calls"] = calls("engine.evaluate")
    m["engine.evaluate.s"] = total("engine.evaluate")
    m["engine.evaluate.share"] = m["engine.evaluate.s"] * n_ops / op_seconds
    m["verify.check_smoothing_bounds_s"] = total("verify.check_smoothing_bounds")
    m["verify.check_unbiasedness_s"] = total("verify.check_unbiasedness")
    # nested data calls (synthetic_pair -> make_synthetic) count once
    data = ids("cli.data")
    outer = data & ~np.isin(parent, np.flatnonzero(data))
    m["cli.data_s"] = float(dur[outer].sum()) / n_ops
    return m
