"""Metric oracles, evaluation analytics, explanations and counterfactuals."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cnre import dataio, evalexplain, reasoning, retrieval, tensorgrad as tg, training
from cnre.synthetic import make_planted_dataset


class TestMetricClosedForms:
    def test_rank_one_is_perfect(self):
        assert evalexplain.hr_at_k(1, 10) == 1
        assert evalexplain.ndcg_at_k(1, 10) == 1.0

    def test_rank_two_ndcg(self):
        assert abs(evalexplain.ndcg_at_k(2, 10) - 1.0 / math.log2(3)) < 1e-12

    def test_rank_past_cutoff_is_zero(self):
        assert evalexplain.hr_at_k(11, 10) == 0
        assert evalexplain.ndcg_at_k(11, 10) == 0.0

    def test_matches_bruteforce_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 200))
            rank = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, n + 1))
            # brute force: walk the ranked list and accumulate the gain
            hit = 0
            gain = 0.0
            for pos in range(1, k + 1):
                if pos == rank:
                    hit = 1
                    gain = 1.0 / math.log2(pos + 1)
            assert evalexplain.hr_at_k(rank, k) == hit
            assert abs(evalexplain.ndcg_at_k(rank, k) - gain) < 1e-12

    def test_random_scores_hit_about_ten_percent(self):
        rng = np.random.default_rng(1)
        ranks = rng.integers(1, 101, size=20000)
        hr = np.mean([evalexplain.hr_at_k(int(r), 10) for r in ranks])
        assert abs(hr - 0.1) < 0.01

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            evalexplain.hr_at_k(0, 10)
        with pytest.raises(ValueError):
            evalexplain.ndcg_at_k(-1, 10)


def _quick_model(epochs=3, seed=0, **cfg_kw):
    ds = make_planted_dataset(num_users=20, num_items=12, n_groups=3, seed=seed)
    split = dataio.leave_one_out_split(ds, seed)
    cfg = training.TrainConfig(embedding_dim=6, hyperedges=3, epochs=epochs,
                               seed=seed, n_c=3, **cfg_kw)
    model, _ = training.train(split, cfg)
    return model, split


class TestRankItems:
    def test_default_candidates_exclude_owned(self):
        model, split = _quick_model()
        ds = model.train_dataset
        u = next(iter(split.test_positives))
        owned = {i for (uu, i) in ds.per_behavior_edges[-1] if uu == u}
        ranked = evalexplain.rank_items(u, model)
        items = [it for it, _, _ in ranked]
        assert set(items) == set(range(ds.num_items)) - owned
        assert split.test_positives[u] in items

    def test_sorted_by_score(self):
        model, _ = _quick_model()
        ranked = evalexplain.rank_items(0, model)
        scores = [s for _, s, _ in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_ties_broken_by_ascending_item(self):
        model, _ = _quick_model()
        for name in ("head_wo", "head_bo"):
            model.store[name].data[:] = 0.0  # every logit is exactly 0
        ranked = evalexplain.rank_items(0, model, candidates=[7, 2, 11, 5, 0])
        assert [i for i, _, _ in ranked] == [0, 2, 5, 7, 11]
        assert {s for _, s, _ in ranked} == {0.5}

    def test_path_labels_valid(self):
        model, _ = _quick_model()
        labels = {p for _, _, p in evalexplain.rank_items(1, model)}
        assert labels <= {"strong", "medium", "weak", "default"}

    def test_empty_candidate_list_ranks_nothing(self):
        model, _ = _quick_model()
        assert evalexplain.rank_items(0, model, candidates=[]) == []

    @pytest.mark.parametrize("user, candidates", [
        (0, [3, -1]),    # would score item N - 1 and report it as item -1
        (0, [3, 12]),    # item N
        (-1, [3]),       # would score user M - 1
        (20, [3]),       # user M
    ])
    def test_out_of_range_ids_raise(self, user, candidates):
        model, _ = _quick_model()
        assert (model.train_dataset.num_users, model.train_dataset.num_items) == (20, 12)
        with pytest.raises(IndexError, match="index out of range"):
            evalexplain.rank_items(user, model, candidates=candidates)

    @pytest.mark.parametrize("half", [0, 1])
    def test_nan_in_head_weight_raises(self, half):
        """A NaN in the user half or the item half of W_h fails the scorer, naming its op.

        A fresh snapshot's scorers read the slots through its no-grad view,
        which checks a slot when it wraps it, and so names the slot.
        """
        model, _ = _quick_model()
        cascade = model.cascade()
        indices = model.build_indices(cascade)
        model.store["head_wh"].data[half * model.config.embedding_dim, 0] = np.nan
        with pytest.raises(tg.NonFiniteError, match="'concatenation'"):
            evalexplain.rank_items(0, model, cascade=cascade, indices=indices)
        with pytest.raises(tg.NonFiniteError, match="'param:head_wh'"):
            evalexplain.rank_items(0, model)


def _record_calls(monkeypatch, fail=False):
    """Patch tg.record to log each op name; returns the log. With fail, an op whose
    output requires grad or keeps its inputs (a tape op) raises."""
    calls = []
    real = tg.record

    def record(data, op, inputs, vjp):
        out = real(data, op, inputs, vjp)
        if fail and (out.requires_grad or out._inputs):
            raise AssertionError(f"tape op {op!r} recorded during inference")
        calls.append(op)
        return out
    monkeypatch.setattr(tg, "record", record)
    return calls


_SCORER_OPS = {"concatenation", "conjunction", "disjunction", "batch_order"}


class TestNoTape:
    def test_read_paths_record_no_op_given_a_snapshot(self, monkeypatch):
        """On a bare cascade's snapshot, no read path records a tape op."""
        model, split = _quick_model()
        ds = model.train_dataset
        cascade = model.cascade()
        indices = model.build_indices(cascade)
        pair = _find_pair_with_flags(model, (1, 1, 0))
        assert pair is not None
        _record_calls(monkeypatch, fail=True)
        for u in range(ds.num_users):
            ranked = evalexplain.rank_items(u, model, cascade=cascade, indices=indices)
        assert {p for _, _, p in ranked} <= {"strong", "medium", "weak", "default"}
        evalexplain.explain(*pair, model, cascade=cascade, indices=indices)
        evalexplain.counterfactual(*pair, evalexplain.CounterfactualEdit(drop="cart"), model,
                                   cascade=cascade, indices=indices)

    def test_second_ranking_on_a_snapshot_builds_no_pooling_matrix(self, monkeypatch):
        """Pooled rows are filled once per snapshot; later requests only gather them."""
        model, _ = _quick_model()
        cascade = model.cascade()
        indices = model.build_indices(cascade)
        users = range(model.train_dataset.num_users)
        builds = []
        real = reasoning._pooling_matrix

        def counted(id_lists, n_items, dtype):
            builds.append(len(id_lists))
            return real(id_lists, n_items, dtype)
        monkeypatch.setattr(reasoning, "_pooling_matrix", counted)
        first = [evalexplain.rank_items(u, model, cascade=cascade, indices=indices)
                 for u in users]
        # each item's row is filled at most once per (operator, auxiliary behavior)
        assert builds and sum(builds) <= 2 * 2 * model.train_dataset.num_items

        def fail(id_lists, n_items, dtype):
            raise AssertionError("pooling matrix built for a filled snapshot")
        monkeypatch.setattr(reasoning, "_pooling_matrix", fail)
        assert [evalexplain.rank_items(u, model, cascade=cascade, indices=indices)
                for u in users] == first

    def test_evaluate_records_one_cascade_whatever_the_user_count(self, monkeypatch):
        """Besides its scorer ops, evaluate runs the ops of one bare cascade of the
        first B - 1 behaviors, none of them a tape op."""
        model, split = _quick_model()
        calls = _record_calls(monkeypatch, fail=True)
        model.cascade(len(model.train_dataset.spec) - 1)
        one_cascade = list(calls)
        assert one_cascade and not _SCORER_OPS & set(one_cascade)
        users = sorted(split.test_positives)
        for n in (1, len(users)):
            calls.clear()
            sub = dataio.SplitDataset(train=split.train, test_positives={
                u: split.test_positives[u] for u in users[:n]})
            evalexplain.evaluate(model, sub)
            assert _SCORER_OPS & set(calls)
            assert [op for op in calls if op not in _SCORER_OPS] == one_cascade

    def test_fresh_snapshot_records_no_tape(self, monkeypatch):
        """Given no cascade, a read path builds one on a no-grad view of the
        store: its ops run, but no output requires grad, and the results are
        those of a snapshot built on the store itself."""
        model, split = _quick_model()
        pair = _find_pair_with_flags(model, (1, 1, 0))
        edit = evalexplain.CounterfactualEdit(drop="cart")
        cascade = model.cascade(params=model.store)
        indices = model.build_indices(cascade)
        want = (evalexplain.explain(*pair, model, cascade=cascade, indices=indices),
                evalexplain.counterfactual(*pair, edit, model, cascade=cascade,
                                           indices=indices))
        ops, taped = [], []
        real = tg.record

        def record(data, op, inputs, vjp):
            out = real(data, op, inputs, vjp)
            (taped if out.requires_grad else ops).append(op)
            return out
        monkeypatch.setattr(tg, "record", record)
        evalexplain.evaluate(model, split)
        got = (evalexplain.explain(*pair, model),
               evalexplain.counterfactual(*pair, edit, model))
        assert ops and taped == []
        assert got == want

    @pytest.mark.parametrize("n", [None, 1])
    def test_default_cascade_is_tape_free_with_the_store_cascades_bits(self, n):
        """A bare cascade runs on a SlotView of the store: no bundle tensor keeps
        recorded inputs, and each holds the bits of the cascade over the store."""
        model, _ = _quick_model()
        view, store = model.cascade(n), model.cascade(n, model.store)
        assert len(view.per_behavior) == len(store.per_behavior) == (n or 3)
        for got, want in zip(view.per_behavior, store.per_behavior):
            for field in dataclasses.fields(got):
                t, w = getattr(got, field.name), getattr(want, field.name)
                assert not t.requires_grad and t._inputs == () and t._vjp is None, field.name
                assert w.requires_grad and w._inputs, field.name  # the store's records a tape
                assert t.data.tobytes() == w.data.tobytes(), field.name

    def test_default_snapshot_serves_what_a_store_snapshot_serves(self):
        """rank_items, explain and counterfactual give the same records on a default
        snapshot as on one over the store, each with its own indices."""
        model, _ = _quick_model()
        ds = model.train_dataset
        pairs = [(ds.decode_user(u), ds.decode_item(i))
                 for u in range(ds.num_users) for i in range(ds.num_items)]
        edits = [(_find_pair_with_flags(model, (1, 1, 0)), "cart"),
                 (_find_pair_with_flags(model, (1, 0, 0)), "view")]

        def served(cascade):
            indices = model.build_indices(cascade)
            snap = dict(cascade=cascade, indices=indices)
            return ([evalexplain.rank_items(u, model, **snap) for u in range(ds.num_users)],
                    [evalexplain.explain(*pair, model, **snap) for pair in pairs],
                    [evalexplain.counterfactual(*pair, evalexplain.CounterfactualEdit(
                        drop=label), model, **snap) for pair, label in edits])
        got = served(model.cascade())
        assert {rec.path for rec in got[1]} == {"strong", "medium", "weak", "default"}
        assert got == served(model.cascade(params=model.store))

    def test_nan_in_a_cascade_slot_names_the_slot(self):
        model, _ = _quick_model(epochs=0)
        model.store["base_item"].data[0, 0] = np.nan
        with pytest.raises(tg.NonFiniteError, match="'param:base_item'"):
            evalexplain.rank_items(0, model)


class TestEvaluate:
    def test_report_shape_and_ranges(self):
        model, split = _quick_model()
        report = evalexplain.evaluate(model, split, ks=(5, 10))
        assert report.user_count == len(split.test_positives)
        for k in (5, 10):
            assert 0.0 <= report.hr[k] <= 1.0
            assert 0.0 <= report.ndcg[k] <= report.hr[k] + 1e-12
        assert report.hr[5] <= report.hr[10]
        assert len(report.group_metrics) == 4

    def test_path_fractions_sum_to_one(self):
        model, split = _quick_model()
        report = evalexplain.evaluate(model, split)
        assert abs(sum(report.path_fractions.values()) - 1.0) < 1e-9

    def test_held_out_pairs_never_strong(self):
        # held-out target edges are absent from train, so the dispatcher
        # can never see the target flag during evaluation
        model, split = _quick_model()
        report = evalexplain.evaluate(model, split)
        assert "strong" not in report.path_fractions

    def test_json_line_roundtrips(self):
        model, split = _quick_model()
        report = evalexplain.evaluate(model, split)
        payload = json.loads(report.to_json_line())
        assert payload["user_count"] == report.user_count
        assert payload["hr"]["10"] == report.hr[10]

    def test_agrees_with_rank_items(self):
        model, split = _quick_model()
        report = evalexplain.evaluate(model, split, ks=(1, 5, 10))
        cascade = model.cascade()
        indices = model.build_indices(cascade)
        ranks, paths = [], []
        for u in sorted(split.test_positives):
            ranked = evalexplain.rank_items(u, model, cascade=cascade, indices=indices)
            (pos,) = [k for k, (i, _, _) in enumerate(ranked) if i == split.test_positives[u]]
            ranks.append(pos + 1)
            paths.append(ranked[pos][2])
        for k in (1, 5, 10):
            assert report.hr[k] == float(np.mean([evalexplain.hr_at_k(r, k) for r in ranks]))
            assert report.ndcg[k] == float(np.mean([evalexplain.ndcg_at_k(r, k)
                                                    for r in ranks]))
        assert report.path_fractions == {p: paths.count(p) / len(paths) for p in set(paths)}

    def test_ties_ranked_as_rank_items(self):
        """With every logit 0, a held-out rank is the item's 1-based place in rank_items:
        a tied candidate ranks before it only when its item is lower."""
        model, split = _quick_model()
        for name in ("head_wo", "head_bo"):
            model.store[name].data[:] = 0.0  # every logit is exactly 0
        n = model.train_dataset.num_items
        ranks = []
        for u, held_out in sorted(split.test_positives.items()):
            one_user = dataio.SplitDataset(train=split.train, test_positives={u: held_out})
            report = evalexplain.evaluate(model, one_user, ks=range(1, n + 1))
            rank = 1 + sum(hr == 0.0 for hr in report.hr.values())  # HR@k is 0 below the rank
            ranked = [i for i, _, _ in evalexplain.rank_items(u, model)]
            assert rank == ranked.index(held_out) + 1
            ranks.append(rank)
        assert len(set(ranks)) > 1  # a tie rule reversed would move some rank

    def test_held_out_item_that_is_not_a_candidate_raises(self):
        model, split = _quick_model()
        ds = model.train_dataset
        u = next(iter(split.test_positives))
        owned = int(ds.items_of(ds.spec.target_index, u)[0])
        bad = dataio.SplitDataset(train=split.train,
                                  test_positives={**split.test_positives, u: owned})
        with pytest.raises(IndexError, match=f"user {u}'s held-out item {owned} is not a "
                                             "candidate"):
            evalexplain.evaluate(model, bad)

    def test_split_without_test_users_is_invalid_input(self):
        model, split = _quick_model()
        empty = dataio.SplitDataset(train=split.train, test_positives={})
        with pytest.raises(dataio.InputError, match="no test users"):
            evalexplain.evaluate(model, empty)

    def test_nan_is_not_written_as_json(self):
        report = evalexplain.MetricsReport(ks=[10], hr={10: math.nan}, ndcg={10: 0.0},
                                           group_metrics=[], path_fractions={}, user_count=0)
        record = evalexplain.ExplanationRecord(user="u", item="i", flags=(0, 0, 0),
                                               path="default", steps=[], score=math.nan)
        for line in (report, record):
            with pytest.raises(ValueError, match="JSON compliant"):
                line.to_json_line()

    def test_group_metrics_cover_all_test_users(self):
        model, split = _quick_model()
        report = evalexplain.evaluate(model, split)
        assert sum(g["users"] for g in report.group_metrics) == report.user_count

    @pytest.mark.parametrize("behaviors", [("view", "cart", "buy"), ("view", "buy")])
    def test_evaluate_does_not_read_the_target_stage(self, behaviors):
        """No candidate has a train-target edge, so other finite values in the
        target's hypergraph slots move the full cascade's target bundle but not a
        byte of evaluate's report."""
        planted = make_planted_dataset(num_users=20, num_items=12, n_groups=3, seed=0)
        ds = dataio.InteractionDataset(
            dataio.BehaviorSpec(behaviors), planted.num_users, planted.num_items,
            [planted.matrices[planted.spec.index_of(b)] for b in behaviors],
            planted.user_ids, planted.item_ids)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=6, hyperedges=3, epochs=2, seed=0, n_c=3)
        model, _ = training.train(split, cfg)
        report = evalexplain.evaluate(model, split).to_json_line()
        target = model.cascade().per_behavior[-1].e_u.data.copy()
        rng = np.random.default_rng(1)
        model.store.load_arrays({f"hyp_{side}_{behaviors[-1]}": rng.normal(
            scale=3.0, size=model.store[f"hyp_{side}_{behaviors[-1]}"].shape)
            for side in "ui"})
        assert not np.array_equal(model.cascade().per_behavior[-1].e_u.data, target)
        assert evalexplain.evaluate(model, split).to_json_line() == report

    def test_evaluate_searches_each_index_once_over_all_its_rows(self, monkeypatch):
        """One _nearest call per (index, n_c) that evaluate touches, with every row
        of the index as a query."""
        model, split = _quick_model()
        calls, real = [], retrieval._nearest

        def counted(index, queries, n_c, exclude=None):
            calls.append((index, n_c, queries.shape[0]))
            return real(index, queries, n_c, exclude)
        monkeypatch.setattr(retrieval, "_nearest", counted)
        report = evalexplain.evaluate(model, split)
        assert report.path_fractions.get("weak", 0) > 0  # some pair retrieved
        keys = [(id(index), n_c) for index, n_c, _ in calls]
        assert calls and len(set(keys)) == len(keys)
        assert all(rows == index.size for index, _, rows in calls)

    @pytest.mark.parametrize("limit", [1, 7, 12, 30, evalexplain.EVAL_BATCH_PAIRS])
    def test_batches_hold_at_most_the_pair_bound(self, monkeypatch, limit):
        """Users come in order, each once with its candidates; a batch exceeds
        EVAL_BATCH_PAIRS pairs only when one user alone does."""
        ds = make_planted_dataset(num_users=20, num_items=12, n_groups=3, seed=0)
        users = np.random.default_rng(limit).permutation(ds.num_users).tolist()
        monkeypatch.setattr(evalexplain, "EVAL_BATCH_PAIRS", limit)
        batches = list(evalexplain._user_batches(ds, users))
        assert [u for batch, _ in batches for u in batch] == users
        for batch, cands in batches:
            assert len(batch) == 1 or sum(c.shape[0] for c in cands) <= limit
            for u, items in zip(batch, cands):
                np.testing.assert_array_equal(items, evalexplain._unowned_items(ds, u))


class TestExplain:
    def test_record_structure(self):
        model, split = _quick_model()
        ds = model.train_dataset
        u = next(iter(split.test_positives))
        i = split.test_positives[u]
        rec = evalexplain.explain(ds.decode_user(u), ds.decode_item(i), model)
        assert rec.user == ds.decode_user(u)
        steps = [s["step"] for s in rec.steps]
        assert steps[0] == "observe_chain"
        assert steps[1] == "dispatch"
        assert steps[-1] == "predict"
        assert any(s["step"] == "operator" for s in rec.steps)
        assert 0.0 < rec.score < 1.0

    def test_score_path_and_operator_match_rank_items(self):
        model, split = _quick_model()
        ds = model.train_dataset
        cascade = model.cascade()
        indices = model.build_indices(cascade)
        retrieving = {"medium": "neural_conjunction", "weak": "neural_disjunction"}
        for u in sorted(split.test_positives)[:3]:
            ranked = evalexplain.rank_items(u, model, candidates=range(ds.num_items),
                                            cascade=cascade, indices=indices)
            for i, score, path in ranked:
                rec = evalexplain.explain(ds.decode_user(u), ds.decode_item(i), model,
                                          cascade=cascade, indices=indices)
                assert rec.path == path
                assert rec.score == pytest.approx(score, rel=0, abs=1e-12)
                steps = [s["step"] for s in rec.steps]
                operator = rec.steps[steps.index("operator")]["name"]
                want = retrieving[path] if "retrieve" in steps else "concatenation"
                assert operator == want

    def test_deterministic_across_calls(self):
        model, split = _quick_model()
        ds = model.train_dataset
        u = next(iter(split.test_positives))
        i = split.test_positives[u]
        a = evalexplain.explain(ds.decode_user(u), ds.decode_item(i), model)
        b = evalexplain.explain(ds.decode_user(u), ds.decode_item(i), model)
        assert a.to_json_line() == b.to_json_line()

    @pytest.mark.parametrize("code", [-1, 8])
    def test_chain_code_out_of_range_raises(self, code):
        """-1 would be reported as the all-flags chain, 8 fail on a bare numpy index."""
        model, _ = _quick_model(epochs=0)
        ds = model.train_dataset
        with pytest.raises(IndexError, match=r"chain code out of range \[0, 8\)"):
            evalexplain.explain(ds.decode_user(0), ds.decode_item(0), model, code=code)

    def test_json_roundtrip(self):
        model, split = _quick_model()
        ds = model.train_dataset
        u = next(iter(split.test_positives))
        rec = evalexplain.explain(ds.decode_user(u),
                                  ds.decode_item(split.test_positives[u]), model)
        back = evalexplain.ExplanationRecord.from_json_line(rec.to_json_line())
        assert back.to_json_line() == rec.to_json_line()

    def test_neighbor_ids_are_raw_ids(self):
        model, split = _quick_model()
        ds = model.train_dataset
        for u, i in sorted(split.test_positives.items()):
            rec = evalexplain.explain(ds.decode_user(u), ds.decode_item(i), model)
            for step in rec.steps:
                if step["step"] == "retrieve":
                    for raw in step["neighbor_ids"]:
                        ds.encode_item(raw)  # must resolve
                    return
        pytest.skip("no retrieval path fired on this toy model")


def _find_pair_with_flags(model, want_flags):
    from cnre.reasoning import observe_chain
    ds = model.train_dataset
    for u in range(ds.num_users):
        for i in range(ds.num_items):
            if observe_chain(ds, u, i) == want_flags:
                return ds.decode_user(u), ds.decode_item(i)
    return None


class TestCounterfactual:
    def test_drop_cart_downgrades_medium_to_weak(self):
        model, _ = _quick_model()
        pair = _find_pair_with_flags(model, (1, 1, 0))
        assert pair is not None
        edit = evalexplain.CounterfactualEdit(drop="cart")
        base, edited, diff = evalexplain.counterfactual(pair[0], pair[1], edit, model)
        assert diff["path_before"] == "medium"
        assert diff["path_after"] == "weak"
        assert diff["score_delta"] == edited.score - base.score

    def test_add_view_upgrades_weak_to_medium(self):
        # hand-built dataset with a cart-only pair (u0, i2)
        view = {(0, 0), (0, 1), (1, 0), (1, 2)}
        cart = {(0, 0), (0, 2), (1, 2)}
        buy = {(0, 0), (0, 1), (1, 0), (1, 2)}
        ds = dataio.InteractionDataset.from_edges(
            spec=dataio.BehaviorSpec(("view", "cart", "buy")),
            num_users=2, num_items=3,
            per_behavior_edges=[view, cart, buy],
            user_ids=["u0", "u1"], item_ids=["a", "b", "c"])
        split = dataio.SplitDataset(train=ds, test_positives={})
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=0,
                                   seed=0, n_c=2)
        model, _ = training.train(split, cfg)
        edit = evalexplain.CounterfactualEdit(add="view")
        _, _, diff = evalexplain.counterfactual("u0", "c", edit, model)
        assert diff["path_before"] == "weak"
        assert diff["path_after"] == "medium"

    def test_inverse_edit_restores_base(self):
        model, _ = _quick_model()
        pair = _find_pair_with_flags(model, (1, 1, 0))
        base, edited, _ = evalexplain.counterfactual(
            pair[0], pair[1], evalexplain.CounterfactualEdit(drop="cart"), model)
        # the edited observation (1,0,0) plus adding the cart back = base path
        base2, edited2, _ = evalexplain.counterfactual(
            pair[0], pair[1], evalexplain.CounterfactualEdit(drop="view"), model)
        assert base2.path == base.path
        assert base2.score == base.score

    def test_parameters_untouched(self):
        model, _ = _quick_model()
        pair = _find_pair_with_flags(model, (1, 1, 0))
        before = model.store.state_arrays()
        evalexplain.counterfactual(pair[0], pair[1],
                                   evalexplain.CounterfactualEdit(drop="cart"), model)
        after = model.store.state_arrays()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_edit_validation(self):
        model, _ = _quick_model()
        with pytest.raises(ValueError):
            evalexplain.CounterfactualEdit()
        with pytest.raises(ValueError):
            evalexplain.CounterfactualEdit(drop="cart", add="view")
        pair = _find_pair_with_flags(model, (1, 1, 0))
        with pytest.raises(ValueError, match="unknown behavior"):
            evalexplain.counterfactual(pair[0], pair[1],
                                       evalexplain.CounterfactualEdit(drop="wish"),
                                       model)
        with pytest.raises(ValueError, match="cannot add"):
            evalexplain.counterfactual(pair[0], pair[1],
                                       evalexplain.CounterfactualEdit(add="cart"),
                                       model)
        with pytest.raises(ValueError, match="cannot drop absent behavior 'buy'"):
            evalexplain.counterfactual(pair[0], pair[1],
                                       evalexplain.CounterfactualEdit(drop="buy"),
                                       model)

    def test_invalid_edit_raises_before_any_snapshot(self, monkeypatch):
        model, _ = _quick_model(epochs=0)
        pair = _find_pair_with_flags(model, (1, 1, 0))

        def cascade(*args, **kwargs):
            raise AssertionError("a snapshot was built for an invalid edit")
        monkeypatch.setattr(model, "cascade", cascade)
        for edit in ({"drop": "wish"}, {"drop": "buy"}, {"add": "cart"}):
            with pytest.raises(dataio.InputError):
                evalexplain.counterfactual(pair[0], pair[1],
                                           evalexplain.CounterfactualEdit(**edit), model)

    def test_disable_rea_reports_default_on_both_sides(self):
        model, _ = _quick_model(disable_rea=True)
        pair = _find_pair_with_flags(model, (1, 1, 0))
        base, edited, diff = evalexplain.counterfactual(
            pair[0], pair[1], evalexplain.CounterfactualEdit(drop="cart"), model)
        assert (base.flags, edited.flags) == ((1, 1, 0), (1, 0, 0))
        assert diff["path_before"] == diff["path_after"] == "default"


class TestSweeps:
    def _split_cfg(self):
        ds = make_planted_dataset(num_users=15, num_items=10, n_groups=3)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=1, seed=0)
        return split, cfg

    def test_layer_sweep_rows(self):
        split, cfg = self._split_cfg()
        rows = evalexplain.layer_sweep(split, cfg, [[1, 1, 1], [1, 1, 2]], ks=(5,))
        assert [r["layer_counts"] for r in rows] == [[1, 1, 1], [1, 1, 2]]
        for r in rows:
            assert 0.0 <= r["hr"][5] <= 1.0

    def test_layer_sweep_empty_grid_rejected(self):
        split, cfg = self._split_cfg()
        with pytest.raises(ValueError):
            evalexplain.layer_sweep(split, cfg, [])

    def test_robustness_sweep_rows(self):
        split, cfg = self._split_cfg()
        rows = evalexplain.robustness_sweep(split, cfg, [0.0, 0.4], ks=(5,))
        assert [r["drop_fraction"] for r in rows] == [0.0, 0.4]

    def test_sweep_rows_are_each_runs_train_and_evaluate(self):
        split, cfg = self._split_cfg()
        counts, frac = [1, 1, 2], 0.4
        dropped = dataio.SplitDataset(
            train=dataio.drop_history(split.train, 0.5, frac, seed=cfg.seed),
            test_positives=dict(split.test_positives))
        runs = [(evalexplain.layer_sweep(split, cfg, [counts], ks=(5,)),
                 {"layer_counts": counts}, split, dataclasses.replace(cfg, layer_counts=counts)),
                (evalexplain.robustness_sweep(split, cfg, [frac], ks=(5,)),
                 {"drop_fraction": frac}, dropped, cfg)]
        for rows, fields, run_split, run_cfg in runs:
            model, _ = training.train(run_split, run_cfg)
            report = evalexplain.evaluate(model, run_split, ks=(5,))
            assert report.hr != report.ndcg  # so a row with the two swapped fails
            assert rows == [{**fields, "hr": report.hr, "ndcg": report.ndcg}]
            assert list(rows[0]) == [*fields, "hr", "ndcg"]

    def test_sweep_deterministic(self):
        split, cfg = self._split_cfg()
        a = evalexplain.layer_sweep(split, cfg, [[1, 1, 1]], ks=(5,))
        b = evalexplain.layer_sweep(split, cfg, [[1, 1, 1]], ks=(5,))
        assert a == b

    def test_rows_to_tsv(self):
        rows = [{"drop_fraction": 0.1, "hr": {5: 0.5}}]
        tsv = evalexplain.rows_to_tsv(rows)
        lines = tsv.strip().split("\n")
        assert lines[0] == "drop_fraction\thr"
        assert lines[1].startswith("0.1\t")
        assert evalexplain.rows_to_tsv([]) == ""
