"""Dispatch, logic-operator and trace tests for the three-path reasoner."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnre import dataio, propagation, reasoning, retrieval, tensorgrad as tg, training
from cnre.reasoning import PreferenceStrength as P
from cnre.synthetic import make_planted_dataset

import unfused

# the order of the paths, weakest first, that the monotonicity checks use
STRENGTH_RANK = {P.DEFAULT: 0, P.WEAK: 1, P.MEDIUM: 2, P.STRONG: 3}


def confidence_score(vec_u, vec_i):
    """Purchase confidence: logistic of the user-item dot product (the gate's scalar oracle)."""
    return float(tg._sigmoid(np.array(float(np.dot(np.ravel(vec_u), np.ravel(vec_i))))))


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
        rank = STRENGTH_RANK
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

    @pytest.mark.parametrize("n_behaviors", [3, 4])
    def test_cached_tables_are_read_only(self, n_behaviors):
        """Every route call shares these tables, so a write into one would reroute the rest."""
        rows = [row for ablation in itertools.product((False, True), repeat=3)
                for row in reasoning.routing_table(n_behaviors, *ablation)]
        assert len(rows) == 3 * 8
        for row in rows:
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 2
        keys = reasoning.index_keys(n_behaviors)
        with pytest.raises(TypeError):
            keys[(0, "col")] = 1
        assert reasoning.index_keys(n_behaviors) is keys

    @pytest.mark.parametrize("n_behaviors", [2, 3, 4, 5])
    def test_routing_table_is_the_scalar_rule_on_every_code(self, n_behaviors):
        """Each code's column, under each ablation, against dispatch and chain_behavior."""
        n_codes = 1 << n_behaviors
        for disable_rea, disable_cnj, disable_dsj in itertools.product((False, True), repeat=3):
            table = reasoning.routing_table(n_behaviors, disable_rea, disable_cnj, disable_dsj)
            assert table.shape == (3, n_codes) and table.dtype == np.int64
            want = []
            for code in range(n_codes):
                flags = tuple(int(c) for c in reversed(format(code, f"0{n_behaviors}b")))
                assert reasoning.chain_flags(code, n_behaviors) == flags
                path = reasoning.dispatch(flags)
                if path in (P.MEDIUM, P.WEAK):
                    behavior = reasoning.chain_behavior(flags)
                else:  # strong reads the target behavior, default the first
                    behavior = n_behaviors - 1 if path is P.STRONG else 0
                kind = reasoning._CONCAT
                if path is P.MEDIUM and not disable_cnj:
                    kind = reasoning._CONJ
                elif path is P.WEAK and not disable_dsj:
                    kind = reasoning._DISJ
                want.append([reasoning.PATHS.index(path), behavior, kind])
            if disable_rea:  # every code takes the empty chain's column
                want = [want[0]] * n_codes
            assert table.T.tolist() == want

    def test_chain_behavior_is_last_set_auxiliary(self):
        assert reasoning.chain_behavior((1, 1, 0)) == 1
        assert reasoning.chain_behavior((1, 0, 0)) == 0
        assert reasoning.chain_behavior((0, 0, 0)) is None
        assert reasoning.chain_behavior((1, 0, 1, 0)) == 2


def test_observe_chain_reads_train_edges():
    ds = make_planted_dataset(num_users=10, num_items=8)
    for u, i in sorted(ds.per_behavior_edges[-1])[:5]:
        flags = reasoning.observe_chain(ds, u, i)
        assert flags[-1] == 1
        for b, f in enumerate(flags):
            assert f == int((u, i) in ds.per_behavior_edges[b])


def test_confidence_is_logistic_of_dot():
    u = np.array([1.0, 1.0])
    i = np.array([1.0, 1.0])
    assert abs(confidence_score(u, i) - 0.8807970779778823) < 1e-12
    assert confidence_score(np.zeros(3), np.ones(3)) == 0.5


class TestMediators:
    """The op-by-op mediators of the reference reasoner against loop oracles."""

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
        out = unfused.strong_mediator(tg.Tensor(eu), tg.Tensor(ei))
        np.testing.assert_array_equal(out.data, np.hstack([eu, ei]))

    def test_logic_mlps_match_loop_oracle(self):
        store, rng = self._params(d=3)
        eu = rng.normal(size=(5, 3))
        ei = rng.normal(size=(5, 3))
        s = rng.normal(size=(5, 3))
        conj = unfused.conjunction_mediator(tg.Tensor(eu), tg.Tensor(ei),
                                              tg.Tensor(s), store).data
        disj = unfused.disjunction_mediator(tg.Tensor(eu), tg.Tensor(ei),
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
        conj = unfused.conjunction_mediator(tg.Tensor(x), tg.Tensor(x),
                                              tg.Tensor(x), store).data
        disj = unfused.disjunction_mediator(tg.Tensor(x), tg.Tensor(x),
                                              tg.Tensor(x), store).data
        assert np.max(np.abs(conj - disj)) > 1e-3

    def test_mediator_width_is_twice_dim(self):
        store, rng = self._params(d=3)
        x = tg.Tensor(rng.normal(size=(2, 3)))
        assert unfused.conjunction_mediator(x, x, x, store).shape == (2, 6)
        assert unfused.strong_mediator(x, x).shape == (2, 6)


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

    def test_traces_read_from_the_end_and_refuse_out_of_range(self):
        train, model, cascade, indices = _trained_bits()
        users = np.repeat(np.arange(train.num_users), train.num_items)  # every pair
        items = np.tile(np.arange(train.num_items), train.num_users)
        _, traces = reasoning.reason_batch(users, items, train, cascade, indices, 1.0,
                                           n_c=model.config.n_c)
        n = len(traces)
        names = {None: "concatenation", "collaborative": "neural_conjunction",
                 "semantic": "neural_disjunction"}
        for k in range(1, n + 1):
            back, fore = traces[-k], traces[n - k]
            for field in dataclasses.fields(reasoning.ReasoningTrace):
                a, b = getattr(back, field.name), getattr(fore, field.name)
                if isinstance(a, np.ndarray):
                    np.testing.assert_array_equal(a, b)
                else:
                    assert a == b, field.name
            assert back.operator == names[back.space]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                traces[k]
        retrieved = [k for k in range(n) if traces[k].neighbor_ids is not None]
        assert {traces[k].space for k in retrieved} == {"collaborative", "semantic"}
        for k in retrieved:
            first = traces[k].neighbor_ids
            first.append(-1)  # a trace's list is its own: a second read does not see this
            assert traces[k].neighbor_ids == first[:-1]

    def test_reason_rejects_slots_that_are_not_its_cascades(self):
        """The scorers read cascade.params, so reason takes no other slots, but the store
        of a default cascade's view."""
        train, model, view_cascade, indices = _trained_bits()
        other = _trained_bits(seed=1)[1].store
        store_cascade = model.cascade(params=model.store)
        for cascade, accepted in ((view_cascade, (view_cascade.params, model.store)),
                                  (store_cascade, (model.store,))):
            for params in (tg.SlotCasts(model.store, np.float64),  # the same values
                           tg.SlotCasts(model.store, np.float32),
                           tg.SlotView(model.store), {}, other):
                with pytest.raises(ValueError, match="not the slots the cascade"):
                    reasoning.reason(0, 0, train, cascade, indices, params, model.config.tau)
            for params in accepted:
                reasoning.reason(0, 0, train, cascade, indices, params, model.config.tau)

    def test_empty_batch_in_both_modes(self):
        """On a bare cascade and on one over the store, an empty batch scores (0 x 1)."""
        train, model, cascade, indices = _trained_bits()
        none = np.array([], dtype=np.int64)
        med, traces = model.reason_batch(none, none, cascade, indices)
        assert med.data.shape == (0, 2 * model.config.embedding_dim)
        assert len(traces) == 0 and list(traces) == []
        for c in (cascade, model.cascade(params=model.store)):
            logits, traces = model.score(none, none, c, indices)
            assert logits.data.shape == (0, 1)
            assert len(traces) == 0 and list(traces) == []

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

    @pytest.mark.parametrize("users, items, codes", [
        ([-1], [0], 0),            # would score user M - 1
        ([15], [0], 0),            # user M
        ([0], [-1], 1),            # a weak item -1 would search row N - 1
        ([0], [10], 1),            # item N
        ([0], [0], -1),            # would read the last row of the dispatch table
        ([0], [0], 8),             # code 2^B
        ([0, 1], [0, 1], [3, 8]),  # one pair's code out of range
    ], ids=["user -1", "user M", "item -1", "item N", "code -1", "code 2^B", "one code of two"])
    def test_explicit_codes_reject_out_of_range_input(self, users, items, codes):
        train, model, cascade, indices = _trained_bits()
        assert (train.num_users, train.num_items, len(train.spec)) == (15, 10, 3)
        for c in (cascade, model.cascade(params=model.store)):
            with pytest.raises(IndexError, match="out of range"):
                model.score(users, items, c, indices, codes=codes)

    def test_rejected_item_fills_no_pooled_row(self):
        """Item -1 on the weak path is rejected before it can fill item N - 1's pooled row."""
        last = 9
        _, model, cascade, indices = _trained_bits()
        want, _ = model.score([0], [last], cascade, indices, codes=1)
        _, model, cascade, indices = _trained_bits()  # the same snapshot, built again
        with pytest.raises(IndexError, match="item index out of range"):
            model.score([0], [-1], cascade, indices, codes=1)
        got, traces = model.score([0], [last], cascade, indices, codes=1)
        assert traces[0].path is P.WEAK and last not in traces[0].neighbor_ids
        assert got.data.tobytes() == want.data.tobytes()

    def test_disable_rea_forces_default(self):
        train, model, cascade, indices = _trained_bits()
        med, traces = model.reason_batch(np.arange(5), np.arange(5), cascade, indices)
        train2, model2, cascade2, indices2 = _trained_bits(disable_rea=True)
        _, traces2 = model2.reason_batch(np.arange(5), np.arange(5), cascade2, indices2)
        assert all(t.path is P.DEFAULT for t in traces2)

    def test_default_reads_the_first_behavior(self):
        """A code-0 pair's mediator is [e_u0[u], e_i0[i]] and its logit is concat_scores' on
        behavior 0: with the code given, routed by disable_rea, or observed."""
        train, model, cascade, indices = _trained_bits()
        users, items = np.divmod(np.arange(train.num_users * train.num_items), train.num_items)
        observed = train.chain_codes(users, items) == 0
        assert 0 < observed.sum() < len(users)
        every = np.ones(len(users), dtype=bool)
        bundle = cascade.per_behavior[0]
        for kw, pairs in (({"codes": 0}, every), ({"disable_rea": True}, every), ({}, observed)):
            logits, traces = reasoning.reason_batch(users, items, train, cascade, indices,
                                                    model.config.tau, **kw)
            want = reasoning.concat_scores(users[pairs], items[pairs], 0, cascade)
            assert logits.data[pairs].tobytes() == want.data.tobytes()
            for k in np.flatnonzero(pairs):
                assert traces[k].path is P.DEFAULT and traces[k].behavior == 0
                np.testing.assert_array_equal(traces[k].mediator, np.concatenate(
                    [bundle.e_u.data[users[k]], bundle.e_i.data[items[k]]]))

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
        logits, traces = model.score([weak[0]], [weak[1]], model.cascade(params=model.store),
                                     indices)
        assert traces[0].neighbor_ids
        model.store.zero_grad()
        tg.sum_all(logits).backward()
        base_grad = model.store["base_item"].grad
        assert base_grad is not None
        assert any(np.any(base_grad[j]) for j in traces[0].neighbor_ids)


def _retrieval_mediators_match_operators(train, model, cascade, indices, tau):
    """Each retrieval pair's mediator is its operator on (e_u, e_space row, neighbor mean)."""
    users, items = np.divmod(np.arange(train.num_users * train.num_items), train.num_items)
    _, traces = reasoning.reason_batch(users, items, train, cascade, indices, tau,
                                       n_c=model.config.n_c)
    checked = set()
    for p, trace in enumerate(traces):
        if trace.neighbor_ids is None:
            continue
        bundle = cascade.per_behavior[trace.behavior]
        if trace.space == "collaborative":
            space, operator = bundle.e_col_i.data, unfused.conjunction_mediator
        else:
            space, operator = bundle.e_sem_i.data, unfused.disjunction_mediator
        ids = trace.neighbor_ids
        pooled = (space[ids].mean(axis=0, keepdims=True) if ids
                  else np.zeros((1, space.shape[1])))
        want = operator(tg.Tensor(bundle.e_u.data[[users[p]]]),
                        tg.Tensor(space[[items[p]]]), tg.Tensor(pooled), model.store)
        np.testing.assert_allclose(trace.mediator, want.data[0], atol=1e-12)
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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_items=st.integers(1, 30),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_pooling_matrix_equals_coo_build(data, n_items, dtype):
    """The directly built CSR has the arrays of the reference's COO build, at k = 0 too."""
    k = data.draw(st.integers(0, min(n_items, 6)))
    hood = st.lists(st.integers(0, n_items - 1), min_size=k, max_size=k, unique=True)
    id_lists = data.draw(st.lists(hood, max_size=12))
    hoods = np.array(id_lists, dtype=np.int64).reshape(len(id_lists), k)
    want = unfused.pooling_matrix(hoods, n_items)
    got = reasoning._pooling_matrix(hoods, n_items, dtype)
    assert got.shape == want.shape and got.dtype == dtype
    np.testing.assert_array_equal(got.data, want.data.astype(dtype))
    for name in ("indices", "indptr"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_gate_snapshot_freezes_dispatch_inputs():
    train, model, cascade, indices = _trained_bits()  # the indices hold cascade's gate
    users = np.repeat(np.arange(train.num_users), train.num_items)  # every pair
    items = np.tile(np.arange(train.num_items), train.num_users)
    _, before = model.reason_batch(users, items, cascade, indices)
    # perturb the live parameters: with the gate pinned in the indices,
    # confidences and retrieval queries must not move
    model.store["base_user"].data += 0.5
    cascade2 = model.cascade()
    _, after = model.reason_batch(users, items, cascade2, indices)
    for t1, t2 in zip(before, after):
        assert t1.path == t2.path
        assert t1.confidence == t2.confidence
        assert t1.neighbor_ids == t2.neighbor_ids
    # a snapshot of the perturbed cascade does move them
    _, fresh = model.reason_batch(users, items, cascade2, model.build_indices(cascade2))
    assert any(t1.confidence != t2.confidence for t1, t2 in zip(before, fresh))


def test_gate_arrays_are_read_only_views_of_the_cascade():
    _, _, cascade, indices = _trained_bits()
    gate = indices["gate"].per_behavior
    assert len(gate) == len(cascade.per_behavior)
    for arrays, bundle in zip(gate, cascade.per_behavior):
        assert arrays.keys() == {"e_u", "e_i"}
        for name, view in arrays.items():
            source = getattr(bundle, name).data
            assert np.shares_memory(view, source) and view.shape == source.shape
            assert source.flags.writeable and not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 1.0
            np.testing.assert_array_equal(view, source)


def test_scorer_tables_follow_parameter_writes():
    """Tables memoized on a cascade are rebuilt after an Adam step or load_arrays."""
    train, model, cascade, indices = _trained_bits()
    users = np.repeat(np.arange(4), train.num_items)
    items = np.tile(np.arange(train.num_items), 4)

    def tape_logits():
        med, _ = model.reason_batch(users, items, cascade, indices)
        return training.predict_logit(med, model.store).data[:, 0]

    def scored():
        return model.score(users, items, cascade, indices)[0].data[:, 0]

    before = scored()
    tables = cascade.memo["item_tables"]
    np.testing.assert_allclose(before, tape_logits(), rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(scored(), before)
    assert cascade.memo["item_tables"] is tables  # no write, so the memo is kept

    saved = model.store.state_arrays()
    loss = None
    for _, p in model.store.items():  # every slot gets a grad, so Adam moves every slot
        sq = tg.l2_norm_sq(p)
        loss = sq if loss is None else tg.add(loss, sq)
    loss.backward()
    model.store.adam_step(0.05)
    after_step = scored()
    assert cascade.memo["item_tables"] is not tables
    assert np.max(np.abs(after_step - before)) > 1e-6
    np.testing.assert_allclose(after_step, tape_logits(), rtol=1e-12, atol=1e-15)

    model.store.load_arrays(saved)
    np.testing.assert_array_equal(scored(), before)


def test_other_indices_on_one_cascade_get_their_own_pooled_rows():
    """Pooled rows are keyed by the index object and the neighbor width, not by the
    cascade alone."""
    train, model, cascade, indices = _trained_bits()
    saved = model.store.state_arrays()
    model.store["base_item"].data += np.random.default_rng(1).normal(
        scale=5.0, size=model.store["base_item"].shape)
    other = model.build_indices(model.cascade())  # the same keys, other neighbors
    model.store.load_arrays(saved)
    users = np.repeat(np.arange(train.num_users), train.num_items)
    items = np.tile(np.arange(train.num_items), train.num_users)
    tau, n_c = 1.0, model.config.n_c  # tau = 1 sends every medium pair to the conjunction

    def scored(idx, n_c=n_c):
        return reasoning.reason_batch(users, items, train, cascade, idx, tau, n_c=n_c)

    runs = [(indices, n_c), (other, n_c), (indices, n_c - 1), (other, n_c - 1)]
    got = [scored(idx, k) for idx, k in runs]
    tables = cascade.memo["item_tables"]
    pooled = [key[1:] for key in tables._tables if key[0] == "pooled"]
    groups = {(kind, b) for kind, b, _, _ in pooled}
    assert len(pooled) == len(groups) * len(runs)  # one table per run and group
    for (idx, k), (logits, traces) in zip(runs, got):
        del cascade.memo["item_tables"]  # fresh tables hold only this run's rows
        fresh, fresh_traces = scored(idx, k)
        np.testing.assert_array_equal(logits.data, fresh.data)
        assert [t.neighbor_ids for t in traces] == [t.neighbor_ids for t in fresh_traces]
    hoods = [[t.neighbor_ids for t in traces] for _, traces in got]
    assert hoods[0] != hoods[1] and hoods[0] != hoods[2]


def test_a_cascade_keeps_what_the_reasoner_reads_and_its_slots():
    """Each bundle holds e_u, e_i and each operator's item space; the cascade its slots."""
    _, model, cascade, _ = _trained_bits()
    spaces = ["e_u", "e_i", *(op.item_space for op in reasoning.OPERATORS.values())]
    assert [f.name for f in dataclasses.fields(propagation.BehaviorEmbeddings)] == spaces
    assert [f.name for f in dataclasses.fields(propagation.CascadeState)] == [
        "per_behavior", "params", "memo"]
    assert type(cascade.params) is tg.SlotView and cascade.params.store is model.store
    assert model.cascade(params=model.store).params is model.store


def _chain_dataset(n_behaviors):
    """3 users x 4 items under n_behaviors behaviors named b0, b1, ..., a few edges each."""
    edges = [{(u, (u + k) % 4) for u in range(3)} for k in range(n_behaviors)]
    return dataio.InteractionDataset.from_edges(
        spec=dataio.BehaviorSpec(tuple(f"b{k}" for k in range(n_behaviors))),
        num_users=3, num_items=4, per_behavior_edges=edges,
        user_ids=[f"u{k}" for k in range(3)], item_ids=[f"i{k}" for k in range(4)])


@pytest.mark.parametrize("n_behaviors", [2, 3, 4, 5])
def test_built_indices_are_the_indices_route_reaches(n_behaviors):
    """Every (behavior, index key) route gives a retrieval pair is built, and each built
    index is reached by some chain code, ablation and gate outcome."""
    ds = _chain_dataset(n_behaviors)
    model = training.CnreModel(ds, training.TrainConfig(embedding_dim=4, hyperedges=2,
                                                        epochs=0))
    indices = model.build_indices(model.cascade())
    built = set(indices) - {"gate"}
    n_pairs = ds.num_users * ds.num_items
    codes = np.repeat(np.arange(1 << n_behaviors), n_pairs)  # every code on every pair
    users, items = np.divmod(np.tile(np.arange(n_pairs), 1 << n_behaviors), ds.num_items)
    # a zero gate scores every medium pair 0.5: tau 0 sends them all to concatenation,
    # tau 1 all to the conjunction (the cascade's own gate may saturate at 1.0)
    gate = [{k: np.zeros_like(v) for k, v in g.items()} for g in indices["gate"].per_behavior]
    reached = set()
    for ablation in ({}, {"disable_rea": True}, {"disable_cnj": True}, {"disable_dsj": True}):
        for tau in (0.0, 1.0):
            r = reasoning.route(users, items, ds, gate, tau, codes=codes, **ablation)
            logic = r.kinds != reasoning._CONCAT
            keys = {(b, reasoning.OPERATORS[kind].index_key)
                    for kind, b in zip(r.kinds[logic].tolist(), r.behaviors[logic].tolist())}
            assert keys <= built
            reached |= keys
    assert reached == built
    if n_behaviors == 3:
        assert set(indices) == {"gate", (0, "sem"), (1, "col"), (1, "sem")}
