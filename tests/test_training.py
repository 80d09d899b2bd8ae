"""Head/loss oracles, training-loop behavior and checkpoint persistence."""

import dataclasses
import json
import operator
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnre import dataio, propagation, reasoning, tensorgrad as tg, training
from cnre.synthetic import make_planted_dataset

import unfused
from gradcheck import finite_difference_check


def _head_store(d=4, seed=0, zero=False):
    rng = np.random.default_rng(seed)
    store = tg.ParameterStore()
    if zero:
        store.add("head_wh", np.zeros((2 * d, d)))
        store.add("head_wo", np.zeros((d, 1)))
    else:
        store.add("head_wh", tg.xavier_uniform(rng, 2 * d, d))
        store.add("head_wo", tg.xavier_uniform(rng, d, 1))
    store.add("head_bh", np.zeros((1, d)))
    store.add("head_bo", np.zeros((1, 1)))
    return store, rng


class TestPredict:
    """The head's probability is ``tg._sigmoid`` of ``predict_logit``."""

    def test_zero_head_gives_half(self):
        store, _ = _head_store(zero=True)
        logit = training.predict_logit(tg.Tensor(np.zeros((3, 8))), store).data
        np.testing.assert_array_equal(logit, 0.0)
        np.testing.assert_allclose(tg._sigmoid(logit), 0.5)

    def test_output_in_open_interval(self):
        store, rng = _head_store()
        logit = training.predict_logit(tg.Tensor(rng.normal(size=(50, 8)) * 10), store).data
        out = tg._sigmoid(logit)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_matches_loop_oracle(self):
        store, rng = _head_store(d=3, seed=1)
        med = rng.normal(size=(6, 6))
        got = training.predict_logit(tg.Tensor(med), store).data
        wh, bh = store["head_wh"].data, store["head_bh"].data
        wo, bo = store["head_wo"].data, store["head_bo"].data
        for r in range(6):
            hidden = np.maximum(med[r] @ wh + bh[0], 0.0)
            logit = hidden @ wo + bo[0]
            np.testing.assert_allclose(got[r], logit, atol=1e-12)
            np.testing.assert_allclose(tg._sigmoid(got[r]), 1.0 / (1.0 + np.exp(-logit)),
                                       atol=1e-12)


class TestBprLoss:
    def test_equal_scores_give_ln2(self):
        y = tg.Tensor(np.full((3, 1), 0.7))
        loss = training.bpr_loss(y, y)
        np.testing.assert_allclose(loss.item(), 3 * np.log(2.0), atol=1e-12)

    def test_vanishes_for_large_margin(self):
        pos = tg.Tensor(np.array([[40.0]]))
        neg = tg.Tensor(np.array([[-40.0]]))
        assert training.bpr_loss(pos, neg).item() < 1e-12

    def test_monotone_decreasing_in_margin(self):
        neg = tg.Tensor(np.zeros((1, 1)))
        vals = [training.bpr_loss(tg.Tensor(np.array([[m]])), neg).item()
                for m in (-2.0, -0.5, 0.0, 0.5, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_additivity_over_batch(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=(5, 1))
        neg = rng.normal(size=(5, 1))
        whole = training.bpr_loss(tg.Tensor(pos), tg.Tensor(neg)).item()
        parts = sum(training.bpr_loss(tg.Tensor(pos[k:k + 1]),
                                      tg.Tensor(neg[k:k + 1])).item()
                    for k in range(5))
        np.testing.assert_allclose(whole, parts, atol=1e-12)


class TestMultiTaskLoss:
    def test_zero_weight_is_plain_sum(self):
        store, _ = _head_store()
        terms = [tg.Tensor(np.array(1.5)), tg.Tensor(np.array(0.25))]
        out = training.multi_task_loss(terms, 0.0, store)
        np.testing.assert_allclose(out.item(), 1.75, atol=1e-12)

    def test_hand_computed_regularizer(self):
        store = tg.ParameterStore()
        store.add("a", np.array([[1.0, 2.0]]))
        store.add("b", np.array([[3.0]]))
        out = training.multi_task_loss([tg.Tensor(np.array(2.0))], 0.1, store)
        np.testing.assert_allclose(out.item(), 2.0 + 0.1 * (1 + 4 + 9), atol=1e-12)

    def test_empty_terms_rejected(self):
        store, _ = _head_store()
        with pytest.raises(ValueError):
            training.multi_task_loss([], 0.1, store)


def test_auxiliary_score_compositional_identity():
    ds = make_planted_dataset(num_users=12, num_items=8, n_groups=3)
    split = dataio.leave_one_out_split(ds, 0)
    cfg = training.TrainConfig(embedding_dim=5, hyperedges=2, epochs=0, seed=1)
    model, _ = training.train(split, cfg)
    cascade = model.cascade()
    users, items = np.array([0, 3, 7]), np.array([1, 4, 2])
    got = reasoning.concat_scores(users, items, 0, cascade).data
    bundle = cascade.per_behavior[0]
    med = unfused.strong_mediator(unfused.index_rows(bundle.e_u, users),
                                  unfused.index_rows(bundle.e_i, items))
    want = training.predict_logit(med, model.store).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def _small_model(**kw):
    ds = make_planted_dataset(num_users=15, num_items=10, n_groups=3)
    split = dataio.leave_one_out_split(ds, 0)
    cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, seed=0, n_c=3, **kw)
    return split, training.CnreModel(split.train, cfg)


def _leading_batch(split, n, size=6, seed=4):
    """BPR triples for the first n behaviors and none for the rest."""
    rng = np.random.default_rng(seed)
    return [dataio.sample_bpr_triples(split.train, b, size, rng) if b < n
            else np.empty((0, 3), dtype=np.int64) for b in range(len(split.train.matrices))]


@pytest.mark.parametrize("n", [1, 2])  # views only; views and carts
def test_truncated_cascade_gives_same_loss_and_grads(n):
    split, model = _small_model(epochs=0)
    batch = _leading_batch(split, n)
    indices = model.build_indices(model.cascade())
    runs = []
    for cascade in (model.cascade(n, model.store), model.cascade(params=model.store)):
        loss, _ = model.batch_loss(batch, cascade, indices)
        model.store.zero_grad()
        loss.backward()
        runs.append((loss.data, {name: p.grad for name, p in model.store.items()}))
    (loss_n, grads_n), (loss_all, grads_all) = runs
    assert loss_n.tobytes() == loss_all.tobytes()
    assert grads_n.keys() == grads_all.keys()
    for name, g in grads_n.items():
        assert g.tobytes() == grads_all[name].tobytes(), name


def test_nan_before_relu_raises_naming_its_op():
    # tg.relu maps a NaN input to 0 and gives that entry a zero grad, so a NaN an
    # op produces just before a relu can leave the loss and leaf grads finite.
    # The group scorers' relu keeps NaN, so the NaN in the first-layer sum (the
    # add of head_bh) reaches the output, whose check names the views' head op.
    split, model = _small_model(epochs=0)
    model.store["head_bh"].data[0, 0] = np.nan  # written directly, not by adam_step
    with pytest.raises(tg.NonFiniteError, match="'concatenation'"):
        model.batch_loss(_leading_batch(split, 1), model.cascade(1, model.store), None)


GROUP_SLOTS = pytest.mark.parametrize("slot, code, op", [
    ("head_bh", 0b100, "concatenation"),  # a strong pair
    ("conj_b1", 0b011, "conjunction"),    # a medium pair below tau = 1
    ("disj_b1", 0b001, "disjunction"),    # a weak pair
])


@pytest.mark.parametrize("grad", [True, False])
@GROUP_SLOTS
def test_nan_in_a_group_slot_raises_naming_the_group_op(slot, code, op, grad):
    """A NaN in a first-layer bias reaches the group's output on both cascade kinds:
    over the store (a tape) and over its no-grad view (a bare cascade)."""
    _, model = _small_model(epochs=0, tau=1.0)
    cascade = model.cascade(params=model.store if grad else None)
    assert cascade.params["head_bh"].requires_grad is grad
    indices = model.build_indices(cascade)
    model.store[slot].data[0, 0] = np.nan
    with pytest.raises(tg.NonFiniteError, match=f"'{op}'"):
        model.score(np.arange(4), np.arange(4), cascade, indices, codes=code)


@pytest.mark.parametrize("grad", [True, False])
@GROUP_SLOTS
def test_nan_in_a_float32_cast_raises_naming_the_group_op(slot, code, op, grad):
    """The same on float32 casts, of the store (a training step's) or of its no-grad
    view: the cast's NaN names the group op."""
    _, model = _small_model(epochs=0, tau=1.0)
    casts = tg.SlotCasts(model.store if grad else tg.SlotView(model.store), np.float32)
    cascade = model.cascade(None, casts)
    assert casts["head_bh"].requires_grad is grad
    indices = model.build_indices(cascade)
    casts[slot].data[0, 0] = np.nan
    with pytest.raises(tg.NonFiniteError, match=f"'{op}'"):
        model.score(np.arange(4), np.arange(4), cascade, indices, codes=code)


def _mixed_model(**kw):
    """A model whose one-step fit epoch scores every group kind: tau = 1 sends medium
    pairs to the conjunction."""
    ds = make_planted_dataset(num_users=30, num_items=20, n_groups=4)
    split = dataio.leave_one_out_split(ds, 0)
    cfg = training.TrainConfig(**{"embedding_dim": 4, "hyperedges": 2, "seed": 0, "n_c": 3,
                                  "tau": 1.0, "batch_size": 4096, **kw})
    return split, training.CnreModel(split.train, cfg)


class TestMixedPrecision:
    """``fit`` runs each step in float32 on casts of the float64 store."""

    def test_fit_step_runs_in_float32_but_the_casts_and_the_l2_tail(self, monkeypatch):
        _, model = _mixed_model(epochs=1)
        outputs, grads = [], []
        record = tg.record

        def checked(data, op, inputs, vjp):
            def vjp_checked(g):
                got = vjp(g)
                grads.append((op, [t.data.dtype for t in inputs], [x.dtype for x in got]))
                return got
            out = record(data, op, inputs, vjp_checked)
            outputs.append((op, out.data.dtype))
            return out
        monkeypatch.setattr(tg, "record", checked)
        pooled, fill = [], reasoning.ItemTables.pooled_rows

        def pooled_rows(*a):  # its rows reach the logic ops through +=, which keeps float32
            rows = fill(*a)
            pooled.append(rows.dtype)
            return rows
        monkeypatch.setattr(reasoning.ItemTables, "pooled_rows", pooled_rows)
        model.fit()
        assert model.store.step_count == 1
        assert pooled and set(pooled) == {np.dtype(np.float32)}
        names = model.store.names()
        f32 = {op for op, dtype in outputs if dtype == np.float32}
        assert {f"cast:{n}" for n in names} | {"concatenation", "conjunction", "disjunction",
                                                "lightgcn_propagate", "batch_order"} <= f32
        # the L2 tail: a norm per slot, the adds of the norms and of BPR, the weight
        tail = [op for op, dtype in outputs if dtype != np.float32]
        assert sorted(tail) == sorted(["l2_norm_sq"] * len(names) + ["add"] * len(names)
                                      + ["mul"])
        assert {op for op, _, _ in grads} >= {f"cast:{n}" for n in names}
        for op, inputs, got in grads:
            if op.startswith("cast:"):
                assert inputs == got == [np.float64], op
            elif op not in tail:
                assert inputs == got == [np.float32] * len(inputs), op

    def test_float32_step_matches_float64_step(self):
        split, model = _mixed_model(epochs=0)
        batch = _leading_batch(split, 3, size=40)
        cascade = model.cascade(params=model.store)
        indices = model.build_indices(cascade)  # with its gate: both steps route alike
        loss64, _ = model.batch_loss(batch, cascade, indices)
        loss64.backward()
        grads64 = {name: p.grad for name, p in model.store.items()}
        model.store.zero_grad()
        cascade32 = model.cascade(None, tg.SlotCasts(model.store, np.float32))
        loss32, _ = model.batch_loss(batch, cascade32, indices)
        loss32.backward()
        assert loss64.data.dtype == loss32.data.dtype == np.float64  # the L2 term is float64
        np.testing.assert_allclose(loss32.item(), loss64.item(), rtol=1e-6)
        # float32 keeps ~7 digits: each slot within 1e-4 of its largest |grad|, plus 1e-6
        # of the step's largest for head_bo, whose grad is 0 (b_o cancels in y_pos - y_neg)
        scale = max(np.abs(g).max() for g in grads64.values())
        for name, p in model.store.items():
            want = grads64[name]
            assert p.grad.dtype == np.float64, name
            np.testing.assert_allclose(p.grad, want, rtol=0,
                                       atol=1e-4 * np.abs(want).max() + 1e-6 * scale,
                                       err_msg=name)

    def test_float32_fit_history_matches_float64(self, monkeypatch):
        """Float64 casts stand in for a float64 fit: its cascades run on the float64 graphs."""
        real = tg.SlotCasts
        histories = []
        for dtype in (np.float32, np.float64):
            monkeypatch.setattr(tg, "SlotCasts", lambda store, _, dtype=dtype: real(store, dtype))
            _, model = _mixed_model(epochs=3, lr=0.01, batch_size=64)
            histories.append(model.fit())
        np.testing.assert_allclose(histories[0], histories[1], rtol=0, atol=1e-3)

    @pytest.mark.parametrize("slots, dtype", [
        (lambda store: tg.SlotCasts(store, np.float32), np.float32),
        (lambda store: tg.SlotCasts(store, np.float64), np.float64),
        (lambda store: store, np.float64),
        pytest.param(tg.SlotView, np.float64, id="_NoGradSlots-float64"),
        (lambda store: None, np.float64)])  # the default: a SlotView of the store
    def test_a_cascade_runs_on_the_graphs_of_its_slots_dtype(self, monkeypatch, slots, dtype):
        _, model = _mixed_model(epochs=0)
        graphs, forward = [], propagation.cascade_forward

        def recorded(adjacencies, unified_adj, *a, **k):
            graphs.extend([unified_adj, *adjacencies])
            return forward(adjacencies, unified_adj, *a, **k)
        monkeypatch.setattr(propagation, "cascade_forward", recorded)
        cascade = model.cascade(None, slots(model.store))
        assert {g.dtype for g in graphs} == {np.dtype(dtype)}
        assert {getattr(bundle, field.name).data.dtype for bundle in cascade.per_behavior
                for field in dataclasses.fields(bundle)} == {np.dtype(dtype)}
        if dtype == np.float64:  # the model's own graphs, not copies
            assert all(map(operator.is_, graphs, [model.unified_adj, *model.adjacencies]))

    @pytest.mark.parametrize("value", [np.nan, 1e39])  # 1e39 is finite, but not in float32
    @pytest.mark.parametrize("slot", ["base_user", "hyp_i_cart", "conj_w1", "head_bo"])
    def test_bad_slot_value_raises_naming_its_cast(self, slot, value):
        _, model = _small_model(epochs=1)
        model.store[slot].data[0, 0] = value
        with pytest.raises(tg.NonFiniteError, match=f"'cast:{slot}'"):
            model.fit()


class TestTrainLoop:
    def test_zero_epochs_keeps_initialization(self):
        ds = make_planted_dataset(num_users=10, num_items=8, n_groups=2)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=0, seed=5)
        model, history = training.train(split, cfg)
        fresh = training.CnreModel(split.train, cfg)
        assert history == []
        for name in model.store.names():
            np.testing.assert_array_equal(model.store[name].data,
                                          fresh.store[name].data)

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        ds = make_planted_dataset(num_users=12, num_items=8, n_groups=3)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=2, seed=7)
        paths = []
        for run in range(2):
            model, _ = training.train(split, cfg)
            p = tmp_path / f"run{run}.cnre"
            model.save(str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_loss_decreases_on_small_run(self):
        ds = make_planted_dataset(num_users=15, num_items=10, n_groups=3)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=8, hyperedges=3, epochs=15,
                                   seed=0, lr=0.01)
        _, history = training.train(split, cfg)
        assert history[-1] < history[0]

    def test_one_cascade_per_step(self, monkeypatch):
        ds = make_planted_dataset(num_users=15, num_items=10, n_groups=3)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=3, seed=0,
                                   batch_size=8, n_c=3)
        model = training.CnreModel(split.train, cfg)
        calls, snapshots = [], []
        forward = propagation.cascade_forward
        monkeypatch.setattr(propagation, "cascade_forward",
                            lambda *a, **k: calls.append(1) or forward(*a, **k))
        build_indices = model.build_indices
        monkeypatch.setattr(model, "build_indices",
                            lambda cascade: snapshots.append(1) or build_indices(cascade))
        model.fit()
        steps = -(-max(m.nnz for m in split.train.matrices) // cfg.batch_size)
        assert steps > 1
        assert model.store.step_count == cfg.epochs * steps
        assert len(calls) == cfg.epochs * steps
        assert len(snapshots) == cfg.epochs  # the epoch's indices come from its first step

    def test_one_gate_snapshot_per_epoch_through_build_indices(self, monkeypatch):
        ds = make_planted_dataset(num_users=15, num_items=10, n_groups=3)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=3, seed=0,
                                   batch_size=8, n_c=3)
        model = training.CnreModel(dataio.leave_one_out_split(ds, 0).train, cfg)
        building, snapshots = [], []
        from_cascade = reasoning.GateSnapshot.from_cascade
        monkeypatch.setattr(reasoning.GateSnapshot, "from_cascade", lambda cascade: (
            snapshots.append(bool(building)) or from_cascade(cascade)))
        build_indices = model.build_indices

        def traced(cascade):
            building.append(1)
            try:
                return build_indices(cascade)
            finally:
                building.pop()
        monkeypatch.setattr(model, "build_indices", traced)
        model.fit()
        assert model.store.step_count > cfg.epochs  # several steps per epoch
        assert snapshots == [True] * cfg.epochs  # each made inside build_indices

    def test_cascade_records_32_op_outputs(self, monkeypatch):
        ds = make_planted_dataset(num_users=15, num_items=10, n_groups=3)
        model = training.CnreModel(ds, training.TrainConfig(embedding_dim=4, hyperedges=2))
        assert len(model.behavior_names) == 3
        ops = []
        record = tg.record
        monkeypatch.setattr(tg, "record", lambda data, op, inputs, vjp: ops.append(op)
                            or record(data, op, inputs, vjp))
        model.cascade()
        # per side: the intrinsic pass, then per behavior lightgcn, incidence,
        # convolution, projection and aggregation
        assert len(ops) == 32
        for n in (1, 2, 3):
            ops.clear()
            model.cascade(n)
            assert len(ops) == 2 * (1 + 5 * n)

    def test_views_only_batch_loss_records_one_head_op(self, monkeypatch):
        split, model = _small_model(epochs=0)
        cascade = model.cascade(1)
        ops = []
        record = tg.record
        monkeypatch.setattr(tg, "record", lambda data, op, inputs, vjp: ops.append(op)
                            or record(data, op, inputs, vjp))
        model.batch_loss(_leading_batch(split, 1), cascade, None)
        # the concatenation head over positives and negatives, a slice of each,
        # BPR; then L2: a norm per slot, the adds of the norms, the weight and
        # the add to BPR
        slots = len(model.store.names())
        assert ops[:6] == ["concatenation", "slice_rows", "slice_rows",
                           "sub", "softplus", "sum_all"]
        assert len(ops) == 6 + 2 * slots + 1

    def test_target_only_batch_loss_records_one_op_per_group(self, monkeypatch):
        split, model = _small_model(epochs=0, tau=1.0)
        cascade = model.cascade()
        indices = model.build_indices(cascade)
        triples = dataio.sample_bpr_triples(split.train, 2, 40, np.random.default_rng(1))
        batch = [np.empty((0, 3), dtype=np.int64)] * 2 + [triples]
        users, pos, neg = triples.T
        _, traces = model.score(np.concatenate([users, users]), np.concatenate([pos, neg]),
                                cascade, indices)
        groups = {(t.space, t.behavior) for t in traces}
        assert len({space for space, _ in groups}) == 3  # every operator runs
        ops = []
        record = tg.record
        monkeypatch.setattr(tg, "record", lambda data, op, inputs, vjp: ops.append(op)
                            or record(data, op, inputs, vjp))
        model.batch_loss(batch, cascade, indices)
        # one op per (operator, behavior) group over positives and negatives, the
        # op that puts their rows in batch order, a slice of each side and BPR;
        # then the L2 ops
        n = len(groups)
        assert sorted(ops[:n]) == sorted({None: "concatenation", "collaborative": "conjunction",
                                          "semantic": "disjunction"}[space] for space, _ in groups)
        assert ops[n:n + 6] == ["batch_order", "slice_rows", "slice_rows",
                                "sub", "softplus", "sum_all"]
        assert len(ops) == n + 6 + 2 * len(model.store.names()) + 1

    def test_views_only_step_propagates_unified_and_view(self, monkeypatch):
        split, model = _small_model(epochs=1, batch_size=8)
        graphs, per_step, given = [], [], []
        lightgcn, forward = propagation.lightgcn_propagate, propagation.cascade_forward
        monkeypatch.setattr(propagation, "lightgcn_propagate",
                            lambda adj, *a: graphs.append(adj) or lightgcn(adj, *a))

        def counted(adjacencies, unified_adj, *a, **k):
            graphs.clear()
            state = forward(adjacencies, unified_adj, *a, **k)
            per_step.append(list(graphs))
            given.append((adjacencies, unified_adj))
            return state
        monkeypatch.setattr(propagation, "cascade_forward", counted)
        model.fit()
        # the model's float32 copies of its graphs, the same objects every step
        adjacencies, unified_adj = given[0]
        for got, want in zip([unified_adj, *adjacencies], [model.unified_adj,
                                                          *model.adjacencies]):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got.toarray(), want.astype(np.float32).toarray())
        # steps holding triples of each behavior; step 0 runs every behavior
        steps = [-(-m.nnz // 8) for m in split.train.matrices]
        assert steps[0] > steps[1] > steps[2]
        want = [4] + [2 + max(b for b in range(3) if s < steps[b]) for s in range(1, steps[0])]
        assert [len(g) for g in per_step] == want
        assert all(u is unified_adj and a[0] is adjacencies[0] for a, u in given)
        for s in range(steps[1], steps[0]):  # views only: the unified pass and view
            assert [id(g) for g in per_step[s]] == [id(unified_adj), id(adjacencies[0])]
        given.clear()
        model.fit()  # a second call runs on the same float32 graphs
        assert given and all(u is unified_adj and all(map(operator.is_, a, adjacencies))
                             for a, u in given)

    def test_fit_matches_full_cascade_fit_bitwise(self, monkeypatch):
        split, model = _small_model(epochs=2, batch_size=8)
        _, full = _small_model(epochs=2, batch_size=8)
        full_cascade = full.cascade
        monkeypatch.setattr(full, "cascade", lambda n=None, *a: full_cascade(None, *a))
        steps = [-(-m.nnz // 8) for m in split.train.matrices]
        assert 2 * steps[2] < steps[0]  # most steps hold no target triple
        model.fit()
        full.fit()
        assert model.store.step_count == full.store.step_count
        for name in model.store.names():
            np.testing.assert_array_equal(model.store[name].data, full.store[name].data)

    def test_training_log_lines(self):
        ds = make_planted_dataset(num_users=10, num_items=10, n_groups=2)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=2, seed=0)
        lines = []
        training.train(split, cfg, log=lines.append)
        assert len(lines) == 2
        for k, line in enumerate(lines):
            epoch, loss, secs = line.split("\t")
            assert int(epoch) == k
            float(loss), float(secs)

    def test_layer_counts_resolved_and_validated(self):
        cfg = training.TrainConfig()
        assert cfg.resolved_layer_counts(3) == [1, 1, 3]
        cfg2 = training.TrainConfig(layer_counts=[2, 2, 2])
        assert cfg2.resolved_layer_counts(3) == [2, 2, 2]
        with pytest.raises(ValueError):
            cfg2.resolved_layer_counts(4)


class TestCheckpoints:
    def _model(self, tmp_path, epochs=1):
        ds = make_planted_dataset(num_users=12, num_items=8, n_groups=3)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=epochs,
                                   seed=3)
        model, _ = training.train(split, cfg)
        path = tmp_path / "model.cnre"
        model.save(str(path))
        return model, split, path

    def test_roundtrip_preserves_values_to_f32(self, tmp_path):
        model, split, path = self._model(tmp_path)
        loaded = training.CnreModel.from_checkpoint(str(path), split.train)
        for name in model.store.names():
            want = model.store[name].data.astype("<f4").astype(np.float64)
            np.testing.assert_array_equal(loaded.store[name].data, want)
        assert loaded.store.step_count == model.store.step_count
        assert loaded.config == model.config

    def test_corrupt_magic_rejected(self, tmp_path):
        _, split, path = self._model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(training.CheckpointError, match="magic"):
            training.load_checkpoint(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        _, split, path = self._model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(training.CheckpointError, match="version"):
            training.load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        _, split, path = self._model(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(training.CheckpointError, match="truncated"):
            training.load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        _, split, path = self._model(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(training.CheckpointError, match="trailing"):
            training.load_checkpoint(str(path))

    def test_dataset_mismatch_rejected(self, tmp_path):
        _, split, path = self._model(tmp_path)
        other = make_planted_dataset(num_users=9, num_items=8, n_groups=3)
        other_split = dataio.leave_one_out_split(other, 0)
        with pytest.raises(training.CheckpointError, match="dimensions"):
            training.CnreModel.from_checkpoint(str(path), other_split.train)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """(checkpoint bytes, train dataset, scratch dir) of a small one-epoch model."""
    ds = make_planted_dataset(num_users=12, num_items=8, n_groups=3)
    split = dataio.leave_one_out_split(ds, 0)
    cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=1, seed=3)
    model, _ = training.train(split, cfg)
    workdir = tmp_path_factory.mktemp("fuzz")
    model.save(str(workdir / "model.cnre"))
    return (workdir / "model.cnre").read_bytes(), split.train, workdir


def _load_only_or_checkpoint_error(blob, train, workdir):
    """from_checkpoint on blob either returns a model or raises CheckpointError."""
    path = workdir / "edited.cnre"
    path.write_bytes(bytes(blob))
    try:
        model = training.CnreModel.from_checkpoint(str(path), train)
    except training.CheckpointError:
        return
    assert isinstance(model, training.CnreModel)


def _with_header(blob, header):
    """The checkpoint blob with its JSON header replaced by header."""
    (hlen,) = struct.unpack("<I", blob[5:9])
    raw = json.dumps(header).encode("utf-8")
    return blob[:5] + struct.pack("<I", len(raw)) + raw + blob[9 + hlen:]


def _other_type(value):
    """JSON values whose type differs from value's (bool counts apart from int)."""
    def kind(v):
        return type(v).__name__ if not isinstance(v, float) else "float"
    leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3),
                     st.text(max_size=3))
    any_json = st.recursive(leaf, lambda inner: st.lists(inner, max_size=2)
                            | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                            max_leaves=4)
    return any_json.filter(lambda v: kind(v) != kind(value))


class TestCheckpointFuzz:
    """Damaged checkpoints load or raise CheckpointError, never another error."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncation(self, saved_checkpoint, data):
        blob, train, workdir = saved_checkpoint
        cut = data.draw(st.integers(0, len(blob) - 1))
        _load_only_or_checkpoint_error(blob[:cut], train, workdir)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_single_bit_flip(self, saved_checkpoint, data):
        blob, train, workdir = saved_checkpoint
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        _load_only_or_checkpoint_error(flipped, train, workdir)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_header_field_type_edit(self, saved_checkpoint, data):
        blob, train, workdir = saved_checkpoint
        (hlen,) = struct.unpack("<I", blob[5:9])
        header = json.loads(blob[9:9 + hlen])
        slot = data.draw(st.sampled_from(header["slots"]))
        # (container, key) of every top-level, config and slot field
        places = [(header, k) for k in sorted(header)] + [(slot, "name"), (slot, "shape")]
        places += [(header["config"], k) for k in sorted(header["config"])]
        places += [(slot["shape"], k) for k in range(len(slot["shape"]))]
        where, key = data.draw(st.sampled_from(places))
        where[key] = data.draw(_other_type(where[key]))
        _load_only_or_checkpoint_error(_with_header(blob, header), train, workdir)

    @pytest.mark.parametrize("field, value, match", [
        ("num_users", None, "has no 'num_users'"),
        ("step", None, "has no 'step'"),
        ("slots", None, "has no 'slots'"),
        ("step", "1", "'step' is malformed"),
        ("step", -1, "'step' is malformed"),
        ("num_items", 8.0, "'num_items' is malformed"),
        ("num_users", True, "'num_users' is malformed"),
        ("behaviors", "view", "'behaviors' is malformed"),
        ("behaviors", ["view", 1, "buy"], "'behaviors' is malformed"),
        ("config", [], "'config' is malformed"),
        ("slots", [{"name": "base_user"}], "'slots' is malformed"),
        ("slots", [{"name": 1, "shape": [12, 4]}], "'slots' is malformed"),
        ("slots", [{"name": "base_user", "shape": [12, -4]}], "'slots' is malformed"),
        ("slots", [{"name": "a", "shape": []}, {"name": "a", "shape": []}], "slot twice"),
        ("slots", [{"name": "a", "shape": [0, 2 ** 62, 2 ** 62]}], "slot 'a': shape"),
        ("format_version", 2, "'format_version' is malformed"),
        ("layer_counts", [1, -1, 3], "'layer_counts' is malformed"),
        ("surprise", 1, r"unknown keys: \['surprise'\]"),
    ])
    def test_malformed_header_field_rejected(self, saved_checkpoint, field, value, match):
        blob, _, workdir = saved_checkpoint
        (hlen,) = struct.unpack("<I", blob[5:9])
        header = json.loads(blob[9:9 + hlen])
        if value is None:
            del header[field]
        else:
            header[field] = value
        path = workdir / "malformed.cnre"
        path.write_bytes(_with_header(blob, header))
        with pytest.raises(training.CheckpointError, match=match):
            training.load_checkpoint(str(path))


def test_full_loss_gradients_finite_difference():
    """End-to-end gradient check through cascade, reasoner, head and L2."""
    ds = make_planted_dataset(num_users=12, num_items=10, n_groups=3, seed=4)
    split = dataio.leave_one_out_split(ds, 0)
    cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=0, seed=2,
                               n_c=3)
    model, _ = training.train(split, cfg)
    rng = np.random.default_rng(9)
    per_behavior = [dataio.sample_bpr_triples(split.train, b, 6, rng)
                    for b in range(3)]
    indices = model.build_indices(model.cascade())  # and the gate: dispatch stays fixed

    def loss_fn():
        cascade = model.cascade(params=model.store)
        loss, _ = model.batch_loss(per_behavior, cascade, indices)
        return loss

    err = finite_difference_check(loss_fn, model.store, max_coords=96,
                                  rng=np.random.default_rng(3))
    assert err < 1e-4
