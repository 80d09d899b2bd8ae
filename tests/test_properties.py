"""Property tests pinning the array kernels to their scalar references.

Random small datasets drive the chain-code dispatch, the batched reasoner
and the memoized retrieval; each is compared with the per-pair or uncached
path it replaces.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from cnre import dataio, reasoning, retrieval, tensorgrad as tg, training
from cnre.reasoning import PreferenceStrength as P

SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def datasets(draw, max_users=6, max_items=8):
    """Every (u, i) pair draws its chain code, so all chain shapes occur."""
    n_b = draw(st.integers(2, 4))
    m = draw(st.integers(1, max_users))
    n = draw(st.integers(2, max_items))
    codes = draw(st.lists(st.integers(0, (1 << n_b) - 1), min_size=m * n, max_size=m * n))
    edges = [{divmod(p, n) for p, c in enumerate(codes) if c >> k & 1} for k in range(n_b)]
    return dataio.InteractionDataset(
        spec=dataio.BehaviorSpec(tuple(f"b{k}" for k in range(n_b))),
        num_users=m, num_items=n, per_behavior_edges=edges,
        user_ids=[f"u{k}" for k in range(m)], item_ids=[f"i{k}" for k in range(n)])


@SETTINGS
@given(datasets())
def test_chain_codes_and_table_match_scalar_dispatch(ds):
    n_b = len(ds.spec)
    users, items = np.divmod(np.arange(ds.num_users * ds.num_items), ds.num_items)
    codes = ds.chain_codes(users, items)
    paths, behaviors = reasoning.dispatch_table(n_b)
    for u, i, code in zip(users.tolist(), items.tolist(), codes.tolist()):
        flags = reasoning.observe_chain(ds, u, i)
        assert reasoning.flag_table(n_b)[code] == flags
        assert reasoning.flags_to_code(flags) == code
        path = reasoning.dispatch(flags)
        assert reasoning.PATHS[paths[code]] is path
        if path in (P.MEDIUM, P.WEAK):
            assert behaviors[code] == reasoning.chain_behavior(flags)
        else:
            assert behaviors[code] == n_b - 1


def _trace_fields(t):
    return (t.flags, t.path, t.behavior, t.confidence, t.neighbor_ids, t.space)


def _reference_trace(u, i, ds, gate, indices, tau, n_c, flags_fn=None,
                     disable_rea=False, disable_cnj=False, disable_dsj=False):
    """The dispatch rule for one pair, written with the scalar functions only."""
    flags = tuple(flags_fn(u, i)) if flags_fn else reasoning.observe_chain(ds, u, i)
    path = P.DEFAULT if disable_rea else reasoning.dispatch(flags)
    t = reasoning.ReasoningTrace(flags=flags, path=path, threshold=tau,
                                 behavior=len(ds.spec) - 1)
    if path in (P.MEDIUM, P.WEAK):
        t.behavior = b = reasoning.chain_behavior(flags)
        g = gate[b]
        if path is P.MEDIUM and not disable_cnj:
            t.confidence = reasoning.confidence_score(g["e_u"][u], g["e_i"][i])
            if t.confidence < tau:
                t.space = "collaborative"
                t.neighbor_ids = retrieval.query(indices[(b, "col")], g["e_col_i"][i],
                                                 n_c, exclude_id=i).ids
        elif path is P.WEAK and not disable_dsj:
            t.space = "semantic"
            t.neighbor_ids = retrieval.query(indices[(b, "sem")], g["e_sem_i"][i],
                                             n_c, exclude_id=i).ids
    return t


@settings(max_examples=100, deadline=None)
@given(ds=datasets(), data=st.data())
def test_mixed_batch_equals_per_pair_reason(ds, data):
    ablation = data.draw(st.sampled_from(
        [{}, {"disable_rea": True}, {"disable_cnj": True}, {"disable_dsj": True}]))
    cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=0, n_c=3,
                               seed=data.draw(st.integers(0, 3)), **ablation)
    model = training.CnreModel(ds, cfg)
    cascade = model.cascade()
    indices = model.build_indices(cascade)
    flags_fn = None
    if data.draw(st.booleans()):
        flags = st.tuples(*[st.integers(0, 1)] * len(ds.spec))
        table = data.draw(st.dictionaries(
            st.tuples(st.integers(0, ds.num_users - 1), st.integers(0, ds.num_items - 1)),
            flags))
        flags_fn = lambda u, i: table.get((u, i), (0,) * len(ds.spec))  # noqa: E731
    gate = reasoning.GateSnapshot.from_cascade(cascade) if data.draw(st.booleans()) else None
    tau = data.draw(st.sampled_from([0.3, 0.5, 0.7]))
    n_pairs = ds.num_users * ds.num_items
    # every pair of the dataset in a drawn order, then some repeats
    pairs = data.draw(st.permutations(range(n_pairs))) + data.draw(
        st.lists(st.integers(0, n_pairs - 1), max_size=10))
    users, items = np.divmod(np.array(pairs), ds.num_items)
    n = len(pairs)
    kw = dict(n_c=cfg.n_c, flags_fn=flags_fn, gate=gate, **ablation)
    gate_arrays = (gate.per_behavior if gate else
                   [{"e_u": b.e_u.data, "e_i": b.e_i.data, "e_col_i": b.e_col_i.data,
                     "e_sem_i": b.e_sem_i.data} for b in cascade.per_behavior])

    med, traces = reasoning.reason_batch(users, items, ds, cascade, indices,
                                         model.store, tau, **kw)
    logits = training.predict_logit(med, model.store).data[:, 0]
    assert len(traces) == n and len(list(traces)) == n
    assert not any(isinstance(v, tg.Tensor) for v in vars(traces).values())
    for p in range(n):
        u, i = int(users[p]), int(items[p])
        med1, trace = reasoning.reason(u, i, ds, cascade, indices, model.store, tau, **kw)
        logit1 = training.predict_logit(med1, model.store).data[0, 0]
        assert abs(logits[p] - logit1) <= 1e-12
        assert _trace_fields(traces[p]) == _trace_fields(trace)
        want = _reference_trace(u, i, ds, gate_arrays, indices, tau, cfg.n_c,
                                flags_fn=flags_fn, **ablation)
        assert _trace_fields(traces[p]) == _trace_fields(want)


@SETTINGS
@given(mode=st.sampled_from(["exact", "approximate"]), seed=st.integers(0, 2**16),
       n_rows=st.integers(1, 40), n_c=st.integers(1, 6))
def test_memoized_query_matches_uncached(mode, seed, n_rows, n_c):
    rng = np.random.default_rng(seed)
    space = rng.normal(size=(n_rows, 3))
    memo = retrieval.build_index(space, mode=mode, seed=1)
    rows = rng.integers(n_rows, size=4).tolist()
    queries = [(space[k], k) for k in rows] + [(space[k], None) for k in rows]
    queries += [(rng.normal(size=3), None) for _ in range(3)]
    for q, excl in queries * 2:  # the second pass is answered from the memo
        fresh = retrieval.build_index(space, mode=mode, seed=1)
        want = retrieval.query(fresh, q, n_c, exclude_id=excl)
        got = retrieval.query(memo, q, n_c, exclude_id=excl)
        assert got.ids == want.ids
        np.testing.assert_array_equal(got.pooled, want.pooled)
        got.ids.append(-1)  # a caller's edit must not reach the memo
