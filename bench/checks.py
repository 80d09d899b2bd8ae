"""Output checks built only on cnre's public oracles.

Each function returns the number of failed checks (0 when the output is
correct), so the workloads can count failed operations against the
number attempted.
"""

from __future__ import annotations

import math

import numpy as np

from cnre import evalexplain, reasoning, training

LOGIT_TOL = 1e-9


def oracle_path(train, u, i):
    return reasoning.dispatch(reasoning.observe_chain(train, u, i)).value


def batch_against_single(model, cascade, indices, u, items, sample):
    """Score one user's candidate batch and check a sample of its pairs.

    Path labels must equal dispatch(observe_chain(...)) and batch logits
    must equal the single-pair ``reasoning.reason`` logits to LOGIT_TOL.
    """
    cfg = model.config
    train = model.train_dataset
    items = np.asarray(items, dtype=np.int64)
    users = np.full(items.shape[0], u, dtype=np.int64)
    mediators, traces = model.reason_batch(users, items, cascade, indices)
    logits = training.predict_logit(mediators, model.store).data[:, 0]
    failed = 0
    for p in sample:
        i = int(items[p])
        if traces[p].path.value != oracle_path(train, u, i):
            failed += 1
            continue
        med, _ = reasoning.reason(u, i, train, cascade, indices, model.store, cfg.tau,
                                  n_c=cfg.n_c, disable_rea=cfg.disable_rea,
                                  disable_cnj=cfg.disable_cnj, disable_dsj=cfg.disable_dsj)
        single = training.predict_logit(med, model.store).data[0, 0]
        if not abs(single - logits[p]) <= LOGIT_TOL * max(1.0, abs(single)):
            failed += 1
    return failed


def report(rep, split, train):
    """Metrics finite and in range; path fractions sum to 1 and match the oracle."""
    failed = 0
    values = list(rep.hr.values()) + list(rep.ndcg.values())
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        failed += 1
    if not math.isclose(sum(rep.path_fractions.values()), 1.0, abs_tol=1e-12):
        failed += 1
    counts = {}
    for u, held in split.test_positives.items():
        label = oracle_path(train, u, held)
        counts[label] = counts.get(label, 0) + 1
    total = max(len(split.test_positives), 1)
    if {p: c / total for p, c in counts.items()} != rep.path_fractions:
        failed += 1
    return failed


def ranked_paths(ranked, train, u):
    """Every (item, score, path) row of rank_items agrees with the oracle."""
    return sum(path != oracle_path(train, u, i) or not math.isfinite(score)
               for i, score, path in ranked)


def explain_record(record):
    """An explanation survives a to_json_line / from_json_line round trip."""
    line = record.to_json_line()
    back = evalexplain.ExplanationRecord.from_json_line(line)
    return int(back != record or back.to_json_line() != line)


def parameters_unchanged(before, store):
    """Every parameter array is bit-identical to the snapshot ``before``."""
    after = store.state_arrays()
    if before.keys() != after.keys():
        return 1
    return sum(before[k].tobytes() != after[k].tobytes() for k in before)
