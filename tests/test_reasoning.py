"""Dispatch, logic-operator and trace tests for the three-path reasoner."""

import itertools

import numpy as np
import pytest

from cnre import dataio, reasoning, retrieval, tensorgrad as tg, training
from cnre.reasoning import PreferenceStrength as P
from cnre.synthetic import make_planted_dataset


class TestDispatch:
    @pytest.mark.parametrize("n_behaviors", [3, 4])
    def test_total_and_exclusive(self, n_behaviors):
        for flags in itertools.product((0, 1), repeat=n_behaviors):
            path = reasoning.dispatch(flags)
            assert isinstance(path, P)
            # re-derive from the stated rule
            if flags[-1]:
                want = P.STRONG
            elif sum(flags[:-1]) >= 2:
                want = P.MEDIUM
            elif sum(flags[:-1]) == 1:
                want = P.WEAK
            else:
                want = P.DEFAULT
            assert path is want

    @pytest.mark.parametrize("n_behaviors", [3, 4])
    def test_single_flag_edit_monotonicity(self, n_behaviors):
        rank = reasoning.STRENGTH_RANK
        for flags in itertools.product((0, 1), repeat=n_behaviors):
            base = rank[reasoning.dispatch(flags)]
            for k in range(n_behaviors):
                edited = list(flags)
                edited[k] = 1 - edited[k]
                other = rank[reasoning.dispatch(tuple(edited))]
                if flags[k] == 1:  # clearing a flag never upgrades
                    assert other <= base
                else:              # setting a flag never downgrades
                    assert other >= base

    def test_chain_edit_transitions(self):
        # (view, cart) chain is medium; dropping the cart leaves a weak chain
        assert reasoning.dispatch((1, 1, 0)) is P.MEDIUM
        assert reasoning.dispatch((1, 0, 0)) is P.WEAK
        # a lone cart is weak; adding the view upgrades it to medium
        assert reasoning.dispatch((0, 1, 0)) is P.WEAK
        assert reasoning.dispatch((1, 1, 0)) is P.MEDIUM

    def test_skip_chain_is_strong(self):
        assert reasoning.dispatch((1, 0, 1)) is P.STRONG
        assert reasoning.dispatch((0, 0, 1)) is P.STRONG

    def test_chain_behavior_is_last_set_auxiliary(self):
        assert reasoning.chain_behavior((1, 1, 0)) == 1
        assert reasoning.chain_behavior((1, 0, 0)) == 0
        assert reasoning.chain_behavior((0, 0, 0)) is None
        assert reasoning.chain_behavior((1, 0, 1, 0)) == 2


def test_observe_chain_reads_train_edges():
    ds = make_planted_dataset(num_users=10, num_items=8)
    for u, i in sorted(ds.target_edges())[:5]:
        flags = reasoning.observe_chain(ds, u, i)
        assert flags[-1] == 1
        for b, f in enumerate(flags):
            assert f == int((u, i) in ds.per_behavior_edges[b])


def test_confidence_is_logistic_of_dot():
    u = np.array([1.0, 1.0])
    i = np.array([1.0, 1.0])
    assert abs(reasoning.confidence_score(u, i) - 0.8807970779778823) < 1e-12
    assert reasoning.confidence_score(np.zeros(3), np.ones(3)) == 0.5


class TestMediators:
    def _params(self, d=3, seed=0):
        rng = np.random.default_rng(seed)
        store = tg.ParameterStore()
        h = 2 * d
        for prefix in ("conj", "disj"):
            store.add(f"{prefix}_w1", tg.xavier_uniform(rng, 3 * d, h))
            store.add(f"{prefix}_b1", rng.normal(size=(1, h)))
            store.add(f"{prefix}_w2", tg.xavier_uniform(rng, h, 2 * d))
            store.add(f"{prefix}_b2", rng.normal(size=(1, 2 * d)))
        return store, rng

    def test_strong_is_plain_concatenation(self):
        rng = np.random.default_rng(1)
        eu = rng.normal(size=(4, 3))
        ei = rng.normal(size=(4, 3))
        out = reasoning.strong_mediator(tg.Tensor(eu), tg.Tensor(ei))
        np.testing.assert_array_equal(out.data, np.hstack([eu, ei]))

    def test_logic_mlps_match_loop_oracle(self):
        store, rng = self._params(d=3)
        eu = rng.normal(size=(5, 3))
        ei = rng.normal(size=(5, 3))
        s = rng.normal(size=(5, 3))
        conj = reasoning.conjunction_mediator(tg.Tensor(eu), tg.Tensor(ei),
                                              tg.Tensor(s), store).data
        disj = reasoning.disjunction_mediator(tg.Tensor(eu), tg.Tensor(ei),
                                              tg.Tensor(s), store).data
        for prefix, got in (("conj", conj), ("disj", disj)):
            w1, b1 = store[f"{prefix}_w1"].data, store[f"{prefix}_b1"].data
            w2, b2 = store[f"{prefix}_w2"].data, store[f"{prefix}_b2"].data
            for r in range(5):
                x = np.concatenate([eu[r], ei[r], s[r]])
                hidden = np.maximum(x @ w1 + b1[0], 0.0)
                want = hidden @ w2 + b2[0]
                np.testing.assert_allclose(got[r], want, atol=1e-12)

    def test_operators_have_independent_parameters(self):
        store, rng = self._params(d=3, seed=2)
        x = rng.normal(size=(3, 3))
        conj = reasoning.conjunction_mediator(tg.Tensor(x), tg.Tensor(x),
                                              tg.Tensor(x), store).data
        disj = reasoning.disjunction_mediator(tg.Tensor(x), tg.Tensor(x),
                                              tg.Tensor(x), store).data
        assert np.max(np.abs(conj - disj)) > 1e-3

    def test_mediator_width_is_twice_dim(self):
        store, rng = self._params(d=3)
        x = tg.Tensor(rng.normal(size=(2, 3)))
        assert reasoning.conjunction_mediator(x, x, x, store).shape == (2, 6)
        assert reasoning.strong_mediator(x, x).shape == (2, 6)


def _trained_bits(seed=0, **cfg_kw):
    ds = make_planted_dataset(num_users=15, num_items=10, n_groups=3, seed=seed)
    split = dataio.leave_one_out_split(ds, seed)
    cfg = training.TrainConfig(embedding_dim=6, hyperedges=3, epochs=0,
                               seed=seed, n_c=3, **cfg_kw)
    model, _ = training.train(split, cfg)
    cascade = model.cascade()
    indices = model.build_indices(cascade)
    return split.train, model, cascade, indices


class TestReasonBatch:
    def test_batch_matches_single_pair_calls(self):
        train, model, cascade, indices = _trained_bits()
        rng = np.random.default_rng(0)
        users = rng.integers(train.num_users, size=20)
        items = rng.integers(train.num_items, size=20)
        med_batch, traces = model.reason_batch(users, items, cascade, indices)
        for k in range(20):
            med_one, trace = reasoning.reason(
                int(users[k]), int(items[k]), train, cascade, indices,
                model.store, model.config.tau, n_c=model.config.n_c)
            np.testing.assert_allclose(med_batch.data[k], med_one.data[0], atol=1e-12)
            assert trace.path == traces[k].path
            assert trace.neighbor_ids == traces[k].neighbor_ids

    def test_trace_contracts(self):
        train, model, cascade, indices = _trained_bits()
        found = set()
        for u in range(train.num_users):
            for i in range(train.num_items):
                _, trace = reasoning.reason(u, i, train, cascade, indices,
                                            model.store, model.config.tau,
                                            n_c=model.config.n_c)
                found.add(trace.path)
                if trace.path in (P.STRONG, P.DEFAULT):
                    assert trace.confidence is None
                    assert trace.neighbor_ids is None
                elif trace.path is P.WEAK:
                    assert trace.confidence is None
                    assert trace.neighbor_ids is not None
                    assert trace.space == "semantic"
                else:
                    assert trace.confidence is not None
                    below = trace.confidence < trace.threshold
                    assert (trace.neighbor_ids is not None) == below
                    if below:
                        assert trace.space == "collaborative"
                assert trace.mediator is not None
        assert {P.STRONG, P.MEDIUM, P.WEAK, P.DEFAULT} <= found

    def test_retrieval_excludes_target_item(self):
        train, model, cascade, indices = _trained_bits()
        for u in range(train.num_users):
            for i in range(train.num_items):
                _, trace = reasoning.reason(u, i, train, cascade, indices,
                                            model.store, model.config.tau,
                                            n_c=model.config.n_c)
                if trace.neighbor_ids is not None:
                    assert i not in trace.neighbor_ids

    def test_codes_override_observation(self):
        train, model, cascade, indices = _trained_bits()
        for code in range(8):
            _, trace = reasoning.reason(0, 0, train, cascade, indices, model.store,
                                        model.config.tau, n_c=3, codes=code)
            flags = tuple(code >> k & 1 for k in range(3))
            assert trace.flags == flags
            assert trace.path is reasoning.dispatch(flags)

    def test_disable_rea_forces_default(self):
        train, model, cascade, indices = _trained_bits()
        med, traces = model.reason_batch(np.arange(5), np.arange(5), cascade, indices)
        train2, model2, cascade2, indices2 = _trained_bits(disable_rea=True)
        _, traces2 = model2.reason_batch(np.arange(5), np.arange(5), cascade2, indices2)
        assert all(t.path is P.DEFAULT for t in traces2)

    def test_disable_cnj_dsj_fall_back_to_concat(self):
        train, model, cascade, indices = _trained_bits(disable_cnj=True,
                                                       disable_dsj=True)
        for u in range(train.num_users):
            for i in range(train.num_items):
                med, trace = reasoning.reason(
                    u, i, train, cascade, indices, model.store, model.config.tau,
                    n_c=3, disable_cnj=True, disable_dsj=True)
                assert trace.neighbor_ids is None
                if trace.path in (P.MEDIUM, P.WEAK):
                    b = reasoning.chain_behavior(trace.flags)
                    bundle = cascade.per_behavior[b]
                    want = np.concatenate([bundle.e_u.data[u], bundle.e_i.data[i]])
                    np.testing.assert_allclose(med.data[0], want, atol=1e-12)

    def test_confidence_at_threshold_concatenates(self):
        train, model, cascade, indices = _trained_bits()
        pair = next((u, i) for u in range(train.num_users) for i in range(train.num_items)
                    if reasoning.dispatch(reasoning.observe_chain(train, u, i)) is P.MEDIUM)
        _, trace = reasoning.reason(*pair, train, cascade, indices, model.store, 0.5, n_c=3)
        conf = trace.confidence
        _, at = reasoning.reason(*pair, train, cascade, indices, model.store, conf, n_c=3)
        _, above = reasoning.reason(*pair, train, cascade, indices, model.store,
                                    float(np.nextafter(conf, np.inf)), n_c=3)
        assert at.confidence == above.confidence == conf
        assert at.neighbor_ids is None and at.space is None
        assert above.neighbor_ids is not None and above.space == "collaborative"

    def test_gradient_reaches_retrieved_neighbors(self):
        train, model, cascade, indices = _trained_bits()
        # find a weak pair so the disjunction path runs
        weak = None
        for u in range(train.num_users):
            for i in range(train.num_items):
                flags = reasoning.observe_chain(train, u, i)
                if reasoning.dispatch(flags) is P.WEAK:
                    weak = (u, i)
                    break
            if weak:
                break
        assert weak is not None
        med, trace = reasoning.reason(weak[0], weak[1], train, cascade, indices,
                                      model.store, model.config.tau, n_c=3)
        model.store.zero_grad()
        tg.sum_all(med).backward()
        base_grad = model.store["base_item"].grad
        assert base_grad is not None
        assert any(np.any(base_grad[j]) for j in trace.neighbor_ids)


def _retrieval_mediators_match_operators(train, model, cascade, indices, tau):
    """Each retrieval pair's mediator is its operator on (e_u, e_space row, neighbor mean)."""
    users, items = np.divmod(np.arange(train.num_users * train.num_items), train.num_items)
    med, traces = reasoning.reason_batch(users, items, train, cascade, indices,
                                         model.store, tau, n_c=model.config.n_c)
    checked = set()
    for p, trace in enumerate(traces):
        if trace.neighbor_ids is None:
            continue
        bundle = cascade.per_behavior[trace.behavior]
        if trace.space == "collaborative":
            space, operator = bundle.e_col_i.data, reasoning.conjunction_mediator
        else:
            space, operator = bundle.e_sem_i.data, reasoning.disjunction_mediator
        ids = trace.neighbor_ids
        pooled = (space[ids].mean(axis=0, keepdims=True) if ids
                  else np.zeros((1, space.shape[1])))
        want = operator(tg.Tensor(bundle.e_u.data[[users[p]]]),
                        tg.Tensor(space[[items[p]]]), tg.Tensor(pooled), model.store)
        np.testing.assert_allclose(med.data[p], want.data[0], atol=1e-12)
        checked.add((trace.space, len(ids) > 0))
    return checked


def test_retrieval_mediators_pool_the_neighbor_rows():
    train, model, cascade, indices = _trained_bits()
    # tau = 1 sends every medium pair to the conjunction
    checked = _retrieval_mediators_match_operators(train, model, cascade, indices, 1.0)
    assert checked == {("collaborative", True), ("semantic", True)}


def test_retrieval_mediator_without_neighbors_pools_zeros():
    # one item: the weak pair's item is the index's only row, so it has no neighbors
    ds = dataio.InteractionDataset.from_edges(
        spec=dataio.BehaviorSpec(("view", "cart", "buy")), num_users=1, num_items=1,
        per_behavior_edges=[{(0, 0)}, set(), set()], user_ids=["u"], item_ids=["i"])
    model = training.CnreModel(ds, training.TrainConfig(embedding_dim=4, hyperedges=2,
                                                        epochs=0, n_c=3))
    cascade = model.cascade()
    indices = model.build_indices(cascade)
    checked = _retrieval_mediators_match_operators(ds, model, cascade, indices, 0.5)
    assert checked == {("semantic", False)}


def test_gate_snapshot_freezes_dispatch_inputs():
    train, model, cascade, indices = _trained_bits()
    gate = reasoning.GateSnapshot.from_cascade(cascade)
    users = np.arange(train.num_users)
    items = np.arange(train.num_users) % train.num_items
    _, before = model.reason_batch(users, items, cascade, indices, gate=gate)
    # perturb the live parameters: with the gate pinned, confidences and
    # retrieval queries must not move
    model.store["base_user"].data += 0.5
    cascade2 = model.cascade()
    _, after = model.reason_batch(users, items, cascade2, indices, gate=gate)
    for t1, t2 in zip(before, after):
        assert t1.path == t2.path
        assert t1.confidence == t2.confidence
        assert t1.neighbor_ids == t2.neighbor_ids


def test_scorer_tables_follow_parameter_writes():
    """Tables memoized on a cascade are rebuilt after an Adam step or load_arrays."""
    train, model, cascade, indices = _trained_bits()
    users = np.repeat(np.arange(4), train.num_items)
    items = np.tile(np.arange(train.num_items), 4)

    def tape_logits():
        med, _ = model.reason_batch(users, items, cascade, indices)
        return training.predict_logit(med, model.store).data[:, 0]

    def scored():
        return model.reason_batch(users, items, cascade, indices, tape=False)[0]

    before = scored()
    tables = cascade.memo["inference"]
    np.testing.assert_allclose(before, tape_logits(), rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(scored(), before)
    assert cascade.memo["inference"] is tables  # no write, so the memo is kept

    saved = model.store.state_arrays()
    loss = None
    for _, p in model.store.items():  # every slot gets a grad, so Adam moves every slot
        sq = tg.l2_norm_sq(p)
        loss = sq if loss is None else tg.add(loss, sq)
    loss.backward()
    model.store.adam_step(0.05)
    after_step = scored()
    assert cascade.memo["inference"] is not tables
    assert np.max(np.abs(after_step - before)) > 1e-6
    np.testing.assert_allclose(after_step, tape_logits(), rtol=1e-12, atol=1e-15)

    model.store.load_arrays(saved)
    np.testing.assert_array_equal(scored(), before)
