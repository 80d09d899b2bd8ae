"""Span tracer that wraps cnre's public functions from outside the package.

Nothing under ``src/`` is changed: ``Tracer.install`` replaces module and
class attributes with timing wrappers and ``Tracer.uninstall`` puts the
originals back. Callers inside cnre look those names up at call time
(``retrieval.query``, ``lightgcn_propagate`` inside ``cascade_forward``),
so the wrappers see every call. A name that a later version of cnre no
longer has is skipped and its metric reads 0.

Spans (name, start, end, parent) are kept in memory and written out by
``write``. The per-layer figure for a span name is its self time: its
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from funnel import BEHAVIORS

PATHS = ("strong", "medium", "weak", "default")

# span name -> per-layer metric reporting its self time
TIMED = {
    "dataio.build": "dataio.build_s",
    "dataio.split": "dataio.split_s",
    "dataio.sample": "dataio.sample_s",
    "propagation.adjacency": "propagation.adjacency_s",
    "propagation.cascade": "propagation.cascade_s",
    "propagation.unified.lightgcn": "propagation.unified.lightgcn_s",
    **{f"propagation.{b}.{part}": f"propagation.{b}.{part}_s"
       for b in BEHAVIORS for part in ("lightgcn", "hypergraph", "project")},
    "tensorgrad.backward": "tensorgrad.backward_s",
    "tensorgrad.adam": "tensorgrad.adam_s",
    "reasoning.reason_batch": "reasoning.reason_batch_s",
    "reasoning.gate_snapshot": "reasoning.gate_snapshot_s",
    "reasoning.mediator": "reasoning.mediator_s",
    "retrieval.query": "retrieval.query_s",
    "retrieval.build": "retrieval.build_s",
    "training.head": "training.head_s",
    "training.checkpoint_load": "training.checkpoint_load_s",
    "training.batch_loss": "training.loss_s",
    "evalexplain.rank_items": "evalexplain.rank_items_s",
    "evalexplain.explain": "evalexplain.explain_s",
    "evalexplain.counterfactual": "evalexplain.counterfactual_s",
    "evalexplain.evaluate": "evalexplain.rank_user_s",
}

COUNTED = (
    "dataio.triples", "propagation.cascade_calls", "training.steps",
    "reasoning.pairs", "reasoning.observe_chain_calls",
    *(f"reasoning.path.{p}" for p in PATHS),
    *(f"reasoning.path.{p}.{side}" for p in PATHS for side in ("pos", "neg")),
    "retrieval.query_calls", "retrieval.query_keys",
)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, child seconds]
        self.counts = Counter()
        self.last_bpr = 0.0
        self._stack = []
        self._patches = []
        self._paused = False
        self._adj_names = {}
        self._behavior = "other"
        self._query_keys = set()
        self._loss_calls = Counter()  # batch_loss span -> reason_batch calls so far
        self._indices = []   # keeps indexes alive so their ids stay unique

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        k = self._stack.pop()
        span = self.spans[k]
        span[2] = time.perf_counter()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name (used for the benchmark's phases)."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def paused(self, fn, *args, **kwargs):
        """Call fn with every wrapper passing straight through (output checks)."""
        self._paused = True
        try:
            return fn(*args, **kwargs)
        finally:
            self._paused = False

    # -- patching ----------------------------------------------------------

    def _wrap(self, owner, attr, name, after=None, before=None):
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            return
        kind = type(orig) if isinstance(orig, (classmethod, staticmethod)) else None
        func = orig.__func__ if kind else orig
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return func(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            label = name(args, kwargs) if callable(name) else name
            tracer._open(label)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    def _count(self, owner, attr, counter):
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer._paused:
                tracer.counts[counter] += 1
            return orig(*args, **kwargs)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self):
        from cnre import dataio, evalexplain, propagation, reasoning, retrieval, training
        from cnre import tensorgrad as tg

        for attr in ("build_dataset", "load_interactions", "build_dataset_from_pairs",
                     "compute_conversion_order", "reorder_behaviors"):
            self._wrap(dataio, attr, "dataio.build")
        self._wrap(dataio, "leave_one_out_split", "dataio.split")
        self._wrap(dataio, "sample_bpr_triples", "dataio.sample",
                   after=lambda a, k, r: self.counts.update({"dataio.triples": len(r)}))

        self._wrap(propagation, "build_normalized_adjacency", "propagation.adjacency")
        self._wrap(propagation, "cascade_forward", "propagation.cascade",
                   before=self._enter_cascade,
                   after=lambda a, k, r: self.counts.update({"propagation.cascade_calls": 1}))
        self._wrap(propagation, "lightgcn_propagate", self._lightgcn_name)
        for attr in ("hypergraph_incidence", "hypergraph_convolve"):
            self._wrap(propagation, attr, lambda a, k: f"propagation.{self._behavior}.hypergraph")
        self._wrap(propagation, "adaptive_project",
                   lambda a, k: f"propagation.{self._behavior}.project")

        self._wrap(tg.Tensor, "backward", "tensorgrad.backward")
        self._wrap(tg.ParameterStore, "adam_step", "tensorgrad.adam",
                   after=lambda a, k, r: self.counts.update({"training.steps": 1}))

        self._wrap(reasoning, "reason_batch", "reasoning.reason_batch",
                   after=self._count_paths)
        self._wrap(reasoning.GateSnapshot, "from_cascade", "reasoning.gate_snapshot")
        for attr in ("strong_mediator", "conjunction_mediator", "disjunction_mediator"):
            self._wrap(reasoning, attr, "reasoning.mediator")
        self._count(reasoning, "observe_chain", "reasoning.observe_chain_calls")
        self._count(evalexplain, "observe_chain", "reasoning.observe_chain_calls")

        self._wrap(retrieval, "query", "retrieval.query", before=self._count_query)
        self._wrap(retrieval, "build_index", "retrieval.build",
                   after=lambda a, k, r: self._indices.append(r))

        for attr in ("predict_logit", "predict"):
            self._wrap(training, attr, "training.head")
        self._wrap(training.CnreModel, "from_checkpoint", "training.checkpoint_load")
        self._wrap(training.CnreModel, "batch_loss", "training.batch_loss")
        self._wrap(training.CnreModel, "fit", "training.fit", after=self._record_bpr)

        self._wrap(evalexplain, "evaluate", "evalexplain.evaluate")
        self._wrap(evalexplain, "rank_items", "evalexplain.rank_items")
        self._wrap(evalexplain, "explain", "evalexplain.explain")
        self._wrap(evalexplain, "counterfactual", "evalexplain.counterfactual")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- hooks ---------------------------------------------------------------

    def _enter_cascade(self, args, kwargs):
        names = dict(zip(("adjacencies", "unified_adj", "params", "behavior_names"), args))
        names.update(kwargs)
        self._adj_names = {id(a): str(b) for a, b in zip(names["adjacencies"],
                                                         names["behavior_names"])}
        self._adj_names[id(names["unified_adj"])] = "unified"
        self._behavior = "other"

    def _lightgcn_name(self, args, kwargs):
        adj = args[0] if args else kwargs["adj"]
        self._behavior = self._adj_names.get(id(adj), "other")
        return f"propagation.{self._behavior}.lightgcn"

    def _count_paths(self, args, kwargs, result):
        traces = result[1]
        self.counts["reasoning.pairs"] += len(traces)
        # fit's batch_loss reasons over the positives, then the negatives
        side = None
        top = self._stack[-1] if self._stack else -1
        if top >= 0 and self.spans[top][0] == "training.batch_loss":
            side = ("pos", "neg")[self._loss_calls[top] % 2]
            self._loss_calls[top] += 1
        for t in traces:
            self.counts[f"reasoning.path.{t.path.value}"] += 1
            if side:
                self.counts[f"reasoning.path.{t.path.value}.{side}"] += 1

    def _count_query(self, args, kwargs):
        index = args[0] if args else kwargs["index"]
        item = args[3] if len(args) > 3 else kwargs.get("exclude_id")
        self.counts["retrieval.query_calls"] += 1
        self._query_keys.add((id(index), item))
        self.counts["retrieval.query_keys"] = len(self._query_keys)

    def _record_bpr(self, args, kwargs, history):
        if history:
            self.last_bpr = float(history[-1])

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer figures: self time per TIMED metric, counts and ratios."""
        self_time = defaultdict(float)
        for name, start, end, _, child in self.spans:
            self_time[name] += (end - start) - child
        out = {metric: (self_time.get(span, 0.0), "s") for span, metric in TIMED.items()}
        out.update({name: (int(self.counts.get(name, 0)), "count") for name in COUNTED})
        calls = self.counts.get("retrieval.query_calls", 0)
        out["retrieval.query_useful_ratio"] = (
            self.counts.get("retrieval.query_keys", 0) / calls if calls else 0.0, "ratio")
        out["training.bpr_last"] = (self.last_bpr, "nats")
        return out

    def write(self, path):
        """Write every span as one JSON line, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "parent": parent,
                                     "start": start - origin, "end": end - origin}) + "\n")
