"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each test covers one numbered criterion; together they are the bar the
package has to clear. Headline benchmark numbers from the original
datasets are out of reach at desk scale, so acceptance rests on oracle
agreement, exhaustive structural properties, an overfit run on a planted
synthetic dataset, and directional ablation comparisons.
"""

import itertools
import math
import time

import numpy as np
import pytest

from cnre import (dataio, evalexplain, propagation, reasoning, retrieval,
                  tensorgrad as tg, training)
from cnre.reasoning import PreferenceStrength as P
from cnre.synthetic import make_planted_dataset


def test_criterion_1_gradient_suite():
    """Full-loss finite differences: max rel err < 1e-4 in under 60 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    # 20 users x 15 items, 3 behaviors, nested edge sets so chains occur
    view = {(u, i) for u in range(20) for i in range(15) if rng.random() < 0.3}
    cart = {e for e in view if rng.random() < 0.5}
    buy = {e for e in cart if rng.random() < 0.6}
    view.add((0, 0)); cart.add((0, 0)); buy.add((0, 0))
    ds = dataio.InteractionDataset.from_edges(
        spec=dataio.BehaviorSpec(("view", "cart", "buy")),
        num_users=20, num_items=15,
        per_behavior_edges=[view, cart, buy],
        user_ids=[f"u{k}" for k in range(20)],
        item_ids=[f"i{k}" for k in range(15)])
    split = dataio.SplitDataset(train=ds, test_positives={})
    cfg = training.TrainConfig(embedding_dim=8, hyperedges=4, epochs=0,
                               seed=1, n_c=4)
    model, _ = training.train(split, cfg)

    per_behavior = [dataio.sample_bpr_triples(ds, b, 10, rng) for b in range(3)]
    cascade0 = model.cascade()
    indices = model.build_indices(cascade0)
    gate = reasoning.GateSnapshot.from_cascade(cascade0)

    def loss_fn():
        loss, _ = model.batch_loss(per_behavior, model.cascade(), indices,
                                   gate=gate)
        return loss

    err = tg.finite_difference_check(loss_fn, model.store, h=1e-5,
                                     max_coords=256,
                                     rng=np.random.default_rng(2))
    elapsed = time.perf_counter() - t0
    assert err < 1e-4, f"max relative error {err:.3e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_dispatch_truth_table():
    """Exhaustive dispatch + single-flag monotonicity + chain-edit cases."""
    t0 = time.perf_counter()
    rank = reasoning.STRENGTH_RANK
    for n in (3, 4):
        for flags in itertools.product((0, 1), repeat=n):
            path = reasoning.dispatch(flags)
            assert isinstance(path, P)  # total: exactly one path per observation
            for k in range(n):
                edited = list(flags)
                edited[k] = 1 - edited[k]
                other = reasoning.dispatch(tuple(edited))
                if flags[k]:
                    assert rank[other] <= rank[path]
                else:
                    assert rank[other] >= rank[path]
    # chain-edit reproductions: full aux chain vs dropped cart, lone cart vs
    # added view
    assert reasoning.dispatch((1, 1, 0)) is P.MEDIUM
    assert reasoning.dispatch((1, 0, 0)) is P.WEAK
    assert reasoning.dispatch((0, 1, 0)) is P.WEAK
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_metric_oracles():
    """HR@K / NDCG@K equal a brute-force ranked-list walk, exactly."""
    assert abs(evalexplain.ndcg_at_k(2, 10) - 1.0 / math.log2(3)) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(2, 500))
        rank = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, n + 1))
        hit = 0
        gain = 0.0
        for pos in range(1, k + 1):
            if pos == rank:
                hit = 1
                gain = 1.0 / math.log2(pos + 1)
        assert evalexplain.hr_at_k(rank, k) == hit
        assert evalexplain.ndcg_at_k(rank, k) == gain


def test_criterion_4_retrieval_oracle():
    """Exact mode == linear scan; approximate recall@10 >= 0.95."""
    rng = np.random.default_rng(4)
    space = rng.normal(size=(5000, 16))
    exact = retrieval.build_index(space, mode="exact")
    approx = retrieval.build_index(space, mode="approximate", seed=0)

    def linear_scan(q, n_c):
        dist = np.sum((space - q) ** 2, axis=1)
        order = np.lexsort((np.arange(space.shape[0]), dist))
        return [int(i) for i in order[:n_c]]

    hits = total = 0
    for _ in range(1000):
        q = rng.normal(size=16)
        want = retrieval.query(exact, q, 10)
        assert want == linear_scan(q, 10)
        got = set(retrieval.query(approx, q, 10))
        hits += len(set(want) & got)
        total += 10
    recall = hits / total
    assert recall >= 0.95, f"approximate recall@10 = {recall:.4f}"


def test_criterion_5_overfit():
    """Planted 50x30 set, 200 epochs, d=16: BPR < 0.1 and HR@1 >= 0.9."""
    t0 = time.perf_counter()
    ds = make_planted_dataset()  # 50 users x 30 items, view/cart/buy
    split = dataio.leave_one_out_split(ds, 0)
    cfg = training.TrainConfig(embedding_dim=16, hyperedges=4, epochs=200,
                               batch_size=1024, seed=1, lr=0.01)
    model, history = training.train(split, cfg)
    assert history[-1] < 0.1, f"mean training BPR per pair = {history[-1]:.4f}"
    assert history[-1] < 0.1 * history[0]  # monotone-trend floor

    # memorized positives: each train target edge ranked against the user's
    # unobserved items plus itself
    train = split.train
    target_items = train.user_items(train.spec.target_index)
    cascade = model.cascade()
    indices = model.build_indices(cascade)
    hits = total = 0
    for u in range(train.num_users):
        for i in sorted(target_items[u]):
            cands = [j for j in range(train.num_items)
                     if j not in target_items[u]] + [i]
            ranked = evalexplain.rank_items(u, model, candidates=cands,
                                            cascade=cascade, indices=indices)
            hits += int(ranked[0][0] == i)
            total += 1
    elapsed = time.perf_counter() - t0
    assert hits / total >= 0.9, f"HR@1 on memorized positives = {hits / total:.3f}"
    assert elapsed < 120.0, f"overfit run took {elapsed:.1f}s"


def test_criterion_6_ablation_direction():
    """Full model >= w/o-reasoning and w/o-propagation HR@10 in >= 3/5 seeds."""
    ds = make_planted_dataset(num_items=20, skip_chain_prob=0.0)
    wins_rea = wins_hpp = 0
    for seed in range(5):
        split = dataio.leave_one_out_split(ds, seed)
        hr = {}
        for tag, kw in (("full", {}), ("rea", {"disable_rea": True}),
                        ("hpp", {"disable_hpp": True})):
            cfg = training.TrainConfig(embedding_dim=16, hyperedges=4,
                                       epochs=200, batch_size=1024, seed=seed,
                                       lr=0.003, l2=1e-3, **kw)
            model, _ = training.train(split, cfg)
            hr[tag] = evalexplain.evaluate(model, split, ks=(10,)).hr[10]
        wins_rea += int(hr["full"] >= hr["rea"])
        wins_hpp += int(hr["full"] >= hr["hpp"])
    assert wins_rea >= 3, f"full >= w/o-reasoning in only {wins_rea}/5 seeds"
    assert wins_hpp >= 3, f"full >= w/o-propagation in only {wins_hpp}/5 seeds"


def test_criterion_7_propagation_oracles():
    """Propagation ops match dense loop oracles to 1e-10; projection laws."""
    rng = np.random.default_rng(7)
    edges = {(u, i) for u in range(9) for i in range(7) if rng.random() < 0.35}
    edges.add((0, 0))
    us, its = zip(*sorted(edges))
    adj = propagation.build_normalized_adjacency(dataio.edge_matrix(us, its, 9, 7))
    e_u = rng.normal(size=(9, 5))
    e_i = rng.normal(size=(7, 5))
    out_u, out_i = propagation.lightgcn_propagate(adj, tg.Tensor(e_u),
                                                  tg.Tensor(e_i), 3)
    a = adj.user_to_item.toarray()
    su, si = e_u.copy(), e_i.copy()
    cu, ci = e_u, e_i
    for _ in range(3):
        cu, ci = a @ ci, a.T @ cu
        su = su + cu
        si = si + ci
    np.testing.assert_allclose(out_u.data, su, atol=1e-10)
    np.testing.assert_allclose(out_i.data, si, atol=1e-10)

    e_col = rng.normal(size=(8, 5))
    w = rng.normal(size=(5, 3))
    h = e_col @ w
    conv = propagation.hypergraph_convolve(
        propagation.hypergraph_incidence(tg.Tensor(e_col), tg.Tensor(w)),
        tg.Tensor(e_col))
    np.testing.assert_allclose(conv.data, (h @ h.T) @ e_col, atol=1e-10)

    c = rng.normal(size=(10_000, 6))
    s = rng.normal(size=(10_000, 6))
    proj = propagation.adaptive_project(tg.Tensor(c), tg.Tensor(s)).data
    coef = np.sum(c * s, axis=1, keepdims=True) / (
        np.sum(c * c, axis=1, keepdims=True) + 1e-8)
    np.testing.assert_allclose(proj, coef * c, atol=1e-10)
    # collinearity: projected rows are scalar multiples of collaborative rows
    cross = proj * np.roll(c, 1, axis=1) - c * np.roll(proj, 1, axis=1)
    assert np.max(np.abs(cross)) < 1e-8
    # contraction: projection never exceeds the semantic row's norm
    assert np.all(np.linalg.norm(proj, axis=1)
                  <= np.linalg.norm(s, axis=1) + 1e-12)


def test_criterion_8_determinism_and_persistence(tmp_path):
    """Same seed -> bit-identical checkpoints; round trip preserves metrics."""
    ds = make_planted_dataset(num_users=20, num_items=12, n_groups=3)
    split = dataio.leave_one_out_split(ds, 0)
    cfg = training.TrainConfig(embedding_dim=6, hyperedges=3, epochs=3, seed=4)

    blobs = []
    for run in range(2):
        model, _ = training.train(split, cfg)
        p = tmp_path / f"run{run}.cnre"
        model.save(str(p))
        blobs.append(p.read_bytes())
    assert blobs[0] == blobs[1], "same-seed checkpoints differ"

    model, _ = training.train(split, cfg)
    p1 = tmp_path / "first.cnre"
    model.save(str(p1))
    loaded = training.CnreModel.from_checkpoint(str(p1), split.train)
    before = evalexplain.evaluate(loaded, split)
    # the loaded weights are exactly representable in f32, so a second
    # round trip must be lossless and metrics must match bit for bit
    p2 = tmp_path / "second.cnre"
    loaded.save(str(p2))
    reloaded = training.CnreModel.from_checkpoint(str(p2), split.train)
    after = evalexplain.evaluate(reloaded, split)
    assert before.hr == after.hr and before.ndcg == after.ndcg
    assert before.path_fractions == after.path_fractions


def test_criterion_9_trace_integrity():
    """Path fractions sum to 1; weak traces carry no confidence; medium
    sub-threshold traces always carry neighbor ids."""
    ds = make_planted_dataset(num_users=25, num_items=15, n_groups=3)
    split = dataio.leave_one_out_split(ds, 0)
    cfg = training.TrainConfig(embedding_dim=8, hyperedges=3, epochs=3,
                               seed=0, n_c=4)
    model, _ = training.train(split, cfg)

    report = evalexplain.evaluate(model, split)
    assert abs(sum(report.path_fractions.values()) - 1.0) < 1e-9

    train = split.train
    cascade = model.cascade()
    indices = model.build_indices(cascade)
    n_weak = n_medium_sub = 0
    for u in range(train.num_users):
        for i in range(train.num_items):
            _, trace = reasoning.reason(u, i, train, cascade, indices,
                                        model.store, model.config.tau, n_c=4)
            if trace.path is P.WEAK:
                n_weak += 1
                assert trace.confidence is None
            if trace.path is P.MEDIUM and trace.confidence is not None \
                    and trace.confidence < trace.threshold:
                n_medium_sub += 1
                assert trace.neighbor_ids
    assert n_weak > 0, "planted set produced no weak chains"
    assert n_medium_sub > 0, "no sub-threshold medium chains exercised"
