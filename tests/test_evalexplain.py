"""Metric oracles, evaluation analytics, explanations and counterfactuals."""

import json
import math

import numpy as np
import pytest

from cnre import dataio, evalexplain, tensorgrad as tg, training
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
        owned = {i for (uu, i) in ds.target_edges() if uu == u}
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

    @pytest.mark.parametrize("half, message", [(0, "head user rows"),
                                               (1, r"inference table \('head'")])
    def test_nan_in_head_weight_raises(self, half, message):
        """A NaN in the user half or the item half of W_h fails the scorer, naming where."""
        model, _ = _quick_model()
        model.store["head_wh"].data[half * model.config.embedding_dim, 0] = np.nan
        with pytest.raises(tg.NonFiniteError, match=message):
            evalexplain.rank_items(0, model)


def _record_calls(monkeypatch, fail=False):
    """Patch tg.record to log each op name (or to raise); returns the log."""
    calls = []
    real = tg.record

    def record(data, op, inputs, vjp):
        if fail:
            raise AssertionError(f"tape op {op!r} recorded during inference")
        calls.append(op)
        return real(data, op, inputs, vjp)
    monkeypatch.setattr(tg, "record", record)
    return calls


class TestNoTape:
    def test_read_paths_record_no_op_given_a_snapshot(self, monkeypatch):
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

    def test_evaluate_records_one_cascade_whatever_the_user_count(self, monkeypatch):
        model, split = _quick_model()
        calls = _record_calls(monkeypatch)
        model.cascade()
        one_cascade = list(calls)
        assert one_cascade
        users = sorted(split.test_positives)
        for n in (1, len(users)):
            calls.clear()
            sub = dataio.SplitDataset(train=split.train, test_positives={
                u: split.test_positives[u] for u in users[:n]})
            evalexplain.evaluate(model, sub)
            assert calls == one_cascade


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

    def test_held_out_item_that_is_not_a_candidate_raises(self):
        model, split = _quick_model()
        ds = model.train_dataset
        u = next(iter(split.test_positives))
        owned = int(ds.items_of(ds.spec.target_index, u)[0])
        bad = dataio.SplitDataset(train=split.train,
                                  test_positives={**split.test_positives, u: owned})
        with pytest.raises(IndexError):
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
