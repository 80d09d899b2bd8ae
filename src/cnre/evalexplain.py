"""Ranking metrics, analytics, explanation traces and counterfactual edits.

Evaluation follows the leave-one-out protocol: each test user's held-out
target item is ranked against all items the user has not interacted with
under the target behavior (full ranking, no sampled negatives). HR@K and
NDCG@K use the single-relevant-item closed forms. Explanations convert a
reasoning trace into a lossless, line-serializable record; counterfactual
edits perturb the chain observation only, never the parameters.

Every read path (``rank_items``, ``evaluate``, ``explain`` and
``counterfactual``) scores pairs with ``reason_batch(tape=False)``, the
tape-free scorer of ``reasoning``, on one snapshot: a cascade and its
retrieval indices, given by the caller or built fresh. The only tape ops
of a call are the cascade's, when it builds one.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import dataio, training, tensorgrad as tg


@dataclass
class MetricsReport:
    ks: list
    hr: dict                 # K -> mean HR@K
    ndcg: dict               # K -> mean NDCG@K
    group_metrics: list      # per sparsity group: {"group", "users", "hr", "ndcg"}
    path_fractions: dict     # path label -> fraction over test pairs
    user_count: int

    def to_json_line(self):
        payload = {
            "ks": self.ks,
            "hr": {str(k): v for k, v in self.hr.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "group_metrics": self.group_metrics,
            "path_fractions": self.path_fractions,
            "user_count": self.user_count,
        }
        return json.dumps(payload, sort_keys=True, allow_nan=False)


@dataclass
class ExplanationRecord:
    user: object             # raw id
    item: object             # raw id
    flags: tuple
    path: str
    steps: list              # ordered step dicts, execution order
    score: float

    def to_json_line(self):
        payload = {
            "user": self.user,
            "item": self.item,
            "flags": list(self.flags),
            "path": self.path,
            "steps": self.steps,
            "score": self.score,
        }
        return json.dumps(payload, sort_keys=True, allow_nan=False)

    @staticmethod
    def from_json_line(line):
        d = json.loads(line)
        return ExplanationRecord(user=d["user"], item=d["item"],
                                 flags=tuple(d["flags"]), path=d["path"],
                                 steps=d["steps"], score=d["score"])


@dataclass(frozen=True)
class CounterfactualEdit:
    """Exactly one of drop/add, naming a behavior label."""

    drop: str | None = None
    add: str | None = None

    def __post_init__(self):
        if (self.drop is None) == (self.add is None):
            raise dataio.InputError("exactly one of drop/add must be given")


def hr_at_k(rank, k):
    if rank < 1:
        raise ValueError("rank is 1-based")
    return 1 if rank <= k else 0


def ndcg_at_k(rank, k):
    if rank < 1:
        raise ValueError("rank is 1-based")
    return 1.0 / math.log2(rank + 1) if rank <= k else 0.0


def _snapshot(model, cascade, indices):
    """The given cascade and retrieval indices, or fresh ones from the model."""
    if cascade is None:
        cascade = model.cascade()
    if indices is None:
        indices = model.build_indices(cascade)
    return cascade, indices


def _ranked(model, users, items, cascade, indices, codes=None):
    """Score a batch of pairs with no tape; returns (order, probabilities, traces).

    ``order`` sorts the pairs by descending logit, ties broken by ascending
    item. Rankings sort on the logits: the logistic saturates to exactly 1.0
    in float once logits are large, which would collapse well-separated
    pairs into ties.
    """
    logits, traces = model.reason_batch(users, items, cascade, indices, codes=codes, tape=False)
    return np.lexsort((items, -logits)), tg._sigmoid(logits), traces


def _unowned_items(ds, u):
    """Ascending items that user u has no train-target edge with."""
    keep = np.ones(ds.num_items, dtype=bool)
    keep[ds.items_of(ds.spec.target_index, u)] = False
    return np.flatnonzero(keep)


def rank_items(u, model, candidates=None, cascade=None, indices=None):
    """Score and sort candidates for one user.

    Returns [(item, score, path_label)] sorted by descending score, ties
    broken by ascending item index. Candidates default to all items minus
    the user's train-target items.
    """
    cascade, indices = _snapshot(model, cascade, indices)
    if candidates is None:
        candidates = _unowned_items(model.train_dataset, u)
    candidates = np.asarray(list(candidates), dtype=np.int64)
    users = np.full(candidates.shape[0], u, dtype=np.int64)
    order, probs, traces = _ranked(model, users, candidates, cascade, indices)
    return list(zip(candidates[order].tolist(), probs[order].tolist(),
                    traces.path_labels()[order].tolist()))


# Pairs per evaluate batch: many users share one scorer call, and the
# batch's temporaries (a few width-d rows per pair) stay a few MB.
EVAL_BATCH_PAIRS = 1 << 14


def _user_batches(ds, users):
    """(users, candidate arrays) in batches of about EVAL_BATCH_PAIRS pairs."""
    batch, cands, size = [], [], 0
    for u in users:
        items = _unowned_items(ds, u)
        batch.append(u)
        cands.append(items)
        size += items.shape[0]
        if size >= EVAL_BATCH_PAIRS:
            yield batch, cands
            batch, cands, size = [], [], 0
    if batch:
        yield batch, cands


def evaluate(model, split, ks=(10, 50)):
    """Mean HR/NDCG over test users plus path and sparsity analytics.

    Users are scored in batches. A held-out item's rank is one plus the
    number of candidates ranked before it: a higher logit, or an equal
    logit and a lower item, the order ``rank_items`` sorts by.
    """
    ds = model.train_dataset
    if (ds.num_users, ds.num_items) != (split.train.num_users, split.train.num_items):
        raise ValueError("model and split dimensions differ")
    ks = list(ks)
    test_users = sorted(split.test_positives)
    if not test_users:
        raise dataio.InputError("the split has no test users: no user has a held-out "
                                "target item (each needs at least 2 target edges)")

    cascade, indices = _snapshot(model, None, None)
    results = {}
    for batch, cands in _user_batches(ds, test_users):
        users = np.repeat(batch, [c.shape[0] for c in cands])
        logits, traces = model.reason_batch(users, np.concatenate(cands), cascade, indices,
                                            tape=False)
        labels = traces.path_labels()
        start = 0
        for u, items in zip(batch, cands):
            seg = logits[start:start + items.shape[0]]
            k = np.flatnonzero(items == split.test_positives[u])[0]  # IndexError if not a candidate
            rank = 1 + np.count_nonzero(seg > seg[k]) + np.count_nonzero(seg[:k] == seg[k])
            results[u] = int(rank), str(labels[start + k])
            start += items.shape[0]

    def mean(metric, users, k):
        return float(np.mean([metric(results[u][0], k) for u in users]))

    hr = {k: mean(hr_at_k, test_users, k) for k in ks}
    ndcg = {k: mean(ndcg_at_k, test_users, k) for k in ks}

    path_counts = collections.Counter(results[u][1] for u in test_users)
    path_fractions = {p: c / len(test_users) for p, c in path_counts.items()}

    group_metrics = []
    for g_idx, members in enumerate(dataio.group_users_by_sparsity(ds)):
        in_test = [u for u in members if u in results]
        group_metrics.append({"group": g_idx + 1, "users": len(in_test),
                              "hr": {str(k): mean(hr_at_k, in_test, k) if in_test else None
                                     for k in ks},
                              "ndcg": {str(k): mean(ndcg_at_k, in_test, k) if in_test else None
                                       for k in ks}})

    return MetricsReport(ks=ks, hr=hr, ndcg=ndcg, group_metrics=group_metrics,
                         path_fractions=path_fractions, user_count=len(test_users))


def _trace_to_record(model, trace, u, i, score):
    ds = model.train_dataset
    steps = [
        {"step": "observe_chain", "flags": list(trace.flags)},
        {"step": "dispatch", "path": trace.path.value},
    ]
    if trace.confidence is not None:
        steps.append({"step": "confidence", "value": trace.confidence,
                      "threshold": trace.threshold,
                      "below_threshold": trace.confidence < trace.threshold})
    if trace.neighbor_ids is not None:
        steps.append({"step": "retrieve", "space": trace.space,
                      "neighbor_ids": [ds.decode_item(j) for j in trace.neighbor_ids]})
    operator = {"collaborative": "neural_conjunction",
                "semantic": "neural_disjunction"}.get(trace.space, "concatenation")
    steps.append({"step": "operator", "name": operator,
                  "behavior": ds.spec.names[trace.behavior]})
    steps.append({"step": "predict", "score": score})
    return ExplanationRecord(user=ds.decode_user(u), item=ds.decode_item(i),
                             flags=trace.flags, path=trace.path.value,
                             steps=steps, score=score)


def explain(user_raw, item_raw, model, cascade=None, indices=None, code=None):
    """Reason once over a raw (user, item) pair, with chain code ``code`` if given."""
    ds = model.train_dataset
    u = ds.encode_user(user_raw)
    i = ds.encode_item(item_raw)
    cascade, indices = _snapshot(model, cascade, indices)
    _, probs, traces = _ranked(model, np.array([u]), np.array([i]), cascade, indices,
                               codes=code)
    return _trace_to_record(model, traces[0], u, i, float(probs[0]))


def counterfactual(user_raw, item_raw, edit, model, cascade=None, indices=None):
    """Re-run the reasoner with one bit of the pair's chain code flipped.

    Returns (base_record, edited_record, diff); model parameters and train
    edges are untouched, only the code seen by the dispatcher changes.
    """
    ds = model.train_dataset
    u = ds.encode_user(user_raw)
    i = ds.encode_item(item_raw)
    cascade, indices = _snapshot(model, cascade, indices)

    code = int(ds.chain_code_matrix[u, i])
    label = edit.drop if edit.drop is not None else edit.add
    if label not in ds.spec.names:
        raise dataio.InputError(f"unknown behavior label {label!r}")
    bit = 1 << ds.spec.index_of(label)
    if edit.drop is not None and not code & bit:
        raise dataio.InputError(f"cannot drop absent behavior '{label}'")
    if edit.add is not None and code & bit:
        raise dataio.InputError(f"cannot add already-present behavior '{label}'")

    base = explain(user_raw, item_raw, model, cascade=cascade, indices=indices)
    edited = explain(user_raw, item_raw, model, cascade=cascade, indices=indices,
                     code=code ^ bit)

    def neighbors(rec):
        for step in rec.steps:
            if step["step"] == "retrieve":
                return step["neighbor_ids"]
        return None

    diff = {
        "path_before": base.path,
        "path_after": edited.path,
        "score_delta": edited.score - base.score,
        "neighbors_before": neighbors(base),
        "neighbors_after": neighbors(edited),
    }
    return base, edited, diff


def layer_sweep(split, config, grids, ks=(10,), log=None):
    """Train and evaluate one run per layer-count combination."""
    if not grids:
        raise dataio.InputError("layer-count grid is empty")
    rows = []
    for counts in grids:
        cfg = dataclasses.replace(config, layer_counts=list(counts))
        model, _ = training.train(split, cfg, log=log)
        report = evaluate(model, split, ks=ks)
        rows.append({"layer_counts": list(counts),
                     "hr": dict(report.hr), "ndcg": dict(report.ndcg)})
    return rows


def robustness_sweep(split, config, drop_fractions, ks=(10,), user_fraction=0.5,
                     log=None):
    """Retrain and evaluate after dropping history at each fraction."""
    rows = []
    for frac in drop_fractions:
        dropped = dataio.drop_history(split.train, user_fraction, frac,
                                      seed=config.seed)
        sub_split = dataio.SplitDataset(train=dropped,
                                        test_positives=dict(split.test_positives))
        model, _ = training.train(sub_split, config, log=log)
        report = evaluate(model, sub_split, ks=ks)
        rows.append({"drop_fraction": frac,
                     "hr": dict(report.hr), "ndcg": dict(report.ndcg)})
    return rows


def rows_to_tsv(rows):
    """Tab-separated rendering of sweep rows (plot-ready)."""
    if not rows:
        return ""
    lines = []
    keys = list(rows[0].keys())
    lines.append("\t".join(keys))
    for row in rows:
        lines.append("\t".join(json.dumps(row[k]) if isinstance(row[k], (dict, list))
                               else str(row[k]) for k in keys))
    return "\n".join(lines) + "\n"
