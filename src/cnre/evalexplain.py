"""Ranking metrics, analytics, explanation traces and counterfactual edits.

Evaluation follows the leave-one-out protocol: each test user's held-out
target item is ranked against all items the user has not interacted with
under the target behavior (full ranking, no sampled negatives). HR@K and
NDCG@K use the single-relevant-item closed forms. Explanations convert a
reasoning trace into a lossless, line-serializable record; counterfactual
edits perturb the chain observation only, never the parameters.

Every read path (``rank_items``, ``evaluate``, ``explain`` and
``counterfactual``) scores pairs with ``CnreModel.score``:
``reasoning.reason_batch`` runs the same group scorers that training
runs, and on the same slots gives the same logits bit for bit. It scores
on one snapshot: a cascade and its indices (the retrieval indices and
confidence gate ``CnreModel.build_indices`` reads from it), given by the
caller or built fresh. The scorers read the slots the cascade keeps, and
those slots decide whether a tape is recorded: the float64 store's do (a
training step's are float32 casts). A fresh cascade is a bare
``model.cascade()``: it runs on, and keeps, the store's no-grad view, so
a call records no tape.
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
        payload = {**vars(self), "hr": {str(k): v for k, v in self.hr.items()},
                   "ndcg": {str(k): v for k, v in self.ndcg.items()}}
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
        # vars, not dataclasses.asdict: asdict deep-copies the steps first (4-6x slower)
        return json.dumps(vars(self), sort_keys=True, allow_nan=False)

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
    """The given cascade and retrieval indices, or fresh, tape-free ones from the model."""
    if cascade is None:
        cascade = model.cascade()
    if indices is None:
        indices = model.build_indices(cascade)
    return cascade, indices


def _unowned_items(ds, u):
    """Ascending items that user u has no train-target edge with."""
    keep = np.ones(ds.num_items, dtype=bool)
    keep[ds.items_of(ds.spec.target_index, u)] = False
    return np.flatnonzero(keep)


def rank_items(u, model, candidates=None, cascade=None, indices=None):
    """Score and sort candidates for one user.

    Returns [(item, score, path_label)] sorted by descending logit, ties
    broken by ascending item index; the score is the logit's probability.
    The sort reads the logits: the logistic saturates to exactly 1.0 in
    float once logits are large, which would collapse well-separated pairs
    into ties. Candidates default to all items minus the user's
    train-target items.
    """
    cascade, indices = _snapshot(model, cascade, indices)
    candidates = (_unowned_items(model.train_dataset, u) if candidates is None
                  else np.asarray(list(candidates), dtype=np.int64))
    users = np.full(candidates.shape[0], u, dtype=np.int64)
    logits, traces = model.score(users, candidates, cascade, indices)
    logits = logits.data[:, 0]
    order = np.lexsort((candidates, -logits))
    return list(zip(candidates[order].tolist(), tg._sigmoid(logits[order]).tolist(),
                    traces.path_labels()[order].tolist()))


# Pairs per evaluate batch: many users share one scorer call. At size M
# (8000 x 1000, d = 64, 300 users, one BLAS thread) 16k-pair batches, whose
# row gathers take 8 MiB, ran evaluate in 130-137 ms against 153-164 ms for
# 4096-pair ones (2 MiB gathers). The smaller batches' frees also left
# glibc's dynamic mmap threshold low, so the next fit epoch faulted its
# temporaries in afresh: per-process medians of 19-42k minor faults an epoch,
# against 13-24k after 16k-pair batches (getrusage, six processes each).
EVAL_BATCH_PAIRS = 1 << 14


def _user_batches(ds, users):
    """(users, candidate arrays) in order, each user once, in batches of at most
    EVAL_BATCH_PAIRS pairs; a user with more candidates than that is a batch alone."""
    batch, cands, size = [], [], 0
    for u in users:
        items = _unowned_items(ds, u)
        if batch and size + items.shape[0] > EVAL_BATCH_PAIRS:
            yield batch, cands
            batch, cands, size = [], [], 0
        batch.append(u)
        cands.append(items)
        size += items.shape[0]
    if batch:
        yield batch, cands


def evaluate(model, split, ks=(10, 50)):
    """Mean HR/NDCG over test users plus path and sparsity analytics.

    Users are scored in batches, on one snapshot of the cascade's first
    B - 1 behaviors: a candidate has no train-target edge, so its pair is
    never strong and reads behavior 0 (default), its chain behavior (weak
    and medium) or the gate and indices of behaviors up to B - 2. Those
    bundles are the full cascade's bit for bit, so the logits are those of
    a full snapshot. A held-out item's rank is one plus the number of
    candidates ranked before it: a higher logit, or an equal logit and a
    lower item, the order ``rank_items`` sorts by.
    """
    ds = model.train_dataset
    if (ds.num_users, ds.num_items) != (split.train.num_users, split.train.num_items):
        raise ValueError("model and split dimensions differ")
    ks = list(ks)
    test_users = sorted(split.test_positives)
    if not test_users:
        raise dataio.InputError("the split has no test users: no user has a held-out "
                                "target item (each needs at least 2 target edges)")

    cascade, indices = _snapshot(model, model.cascade(len(ds.spec) - 1), None)
    results = {}
    for batch, cands in _user_batches(ds, test_users):
        users = np.repeat(batch, [c.shape[0] for c in cands])
        logits, traces = model.score(users, np.concatenate(cands), cascade, indices)
        logits = logits.data[:, 0]
        labels = traces.path_labels()
        start = 0
        for u, items in zip(batch, cands):
            seg = logits[start:start + items.shape[0]]
            hit = np.flatnonzero(items == split.test_positives[u])
            if not hit.size:
                raise IndexError(f"user {u}'s held-out item {split.test_positives[u]} is not "
                                 "a candidate (an item the user has no train-target edge with)")
            k = hit[0]
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
    steps = [{"step": "observe_chain", "flags": list(trace.flags)},
             {"step": "dispatch", "path": trace.path.value}]
    if trace.confidence is not None:
        steps.append({"step": "confidence", "value": trace.confidence,
                      "threshold": trace.threshold,
                      "below_threshold": trace.confidence < trace.threshold})
    if trace.neighbor_ids is not None:
        steps.append({"step": "retrieve", "space": trace.space,
                      "neighbor_ids": [ds.decode_item(j) for j in trace.neighbor_ids]})
    steps.append({"step": "operator", "name": trace.operator_name,
                  "behavior": ds.spec.names[trace.behavior]})
    steps.append({"step": "predict", "score": score})
    return ExplanationRecord(user=ds.decode_user(u), item=ds.decode_item(i),
                             flags=trace.flags, path=trace.path.value,
                             steps=steps, score=score)


def explain(user_raw, item_raw, model, cascade=None, indices=None, code=None):
    """Reason once over a raw (user, item) pair, with chain code ``code`` if given."""
    ds = model.train_dataset
    u, i = ds.encode_user(user_raw), ds.encode_item(item_raw)
    cascade, indices = _snapshot(model, cascade, indices)
    logits, (trace,) = model.score(np.array([u]), np.array([i]), cascade, indices, codes=code)
    return _trace_to_record(model, trace, u, i, float(tg._sigmoid(logits.data[0, 0])))


def counterfactual(user_raw, item_raw, edit, model, cascade=None, indices=None):
    """Re-run the reasoner with one bit of the pair's chain code flipped.

    Returns (base_record, edited_record, diff); model parameters and train
    edges are untouched, only the code seen by the dispatcher changes.
    """
    ds = model.train_dataset
    u, i = ds.encode_user(user_raw), ds.encode_item(item_raw)
    code = int(ds.chain_codes([u], [i])[0])
    label = edit.drop if edit.drop is not None else edit.add
    if label not in ds.spec.names:
        raise dataio.InputError(f"unknown behavior label {label!r}")
    bit = 1 << ds.spec.index_of(label)
    if edit.drop is not None and not code & bit:
        raise dataio.InputError(f"cannot drop absent behavior '{label}'")
    if edit.add is not None and code & bit:
        raise dataio.InputError(f"cannot add already-present behavior '{label}'")

    cascade, indices = _snapshot(model, cascade, indices)  # once the edit is known valid
    base = explain(user_raw, item_raw, model, cascade=cascade, indices=indices, code=code)
    edited = explain(user_raw, item_raw, model, cascade=cascade, indices=indices,
                     code=code ^ bit)

    def neighbors(rec):
        return next((s["neighbor_ids"] for s in rec.steps if s["step"] == "retrieve"), None)

    diff = {
        "path_before": base.path,
        "path_after": edited.path,
        "score_delta": edited.score - base.score,
        "neighbors_before": neighbors(base),
        "neighbors_after": neighbors(edited),
    }
    return base, edited, diff


def _sweep(runs, ks):
    """Train and evaluate each (row fields, split, config) of runs, in order; one row each."""
    rows = []
    for fields, split, config in runs:
        model, _ = training.train(split, config)
        report = evaluate(model, split, ks=ks)
        rows.append({**fields, "hr": dict(report.hr), "ndcg": dict(report.ndcg)})
    return rows


def layer_sweep(split, config, grids, ks=(10,)):
    """Train and evaluate one run per layer-count combination."""
    if not grids:
        raise dataio.InputError("layer-count grid is empty")
    runs = (({"layer_counts": list(counts)}, split,
             dataclasses.replace(config, layer_counts=list(counts))) for counts in grids)
    return _sweep(runs, ks)


def robustness_sweep(split, config, drop_fractions, ks=(10,), user_fraction=0.5):
    """Retrain and evaluate after dropping history at each fraction."""
    def dropped(frac):
        train = dataio.drop_history(split.train, user_fraction, frac, seed=config.seed)
        return dataio.SplitDataset(train=train, test_positives=dict(split.test_positives))
    runs = (({"drop_fraction": frac}, dropped(frac), config) for frac in drop_fractions)
    return _sweep(runs, ks)


def rows_to_tsv(rows):
    """Tab-separated rendering of sweep rows (plot-ready)."""
    if not rows:
        return ""
    keys = list(rows[0])
    lines = ("\t".join(json.dumps(row[k]) if isinstance(row[k], (dict, list)) else str(row[k])
                       for k in keys) for row in rows)
    return "\n".join(["\t".join(keys), *lines]) + "\n"
