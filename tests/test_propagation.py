"""Oracle tests for graph propagation, hypergraph encoding and projection."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnre import dataio, propagation, tensorgrad as tg


def _adjacency(edges, num_users, num_items):
    """Normalized adjacency of a set of dense (u, i) edges."""
    arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return propagation.build_normalized_adjacency(
        dataio.edge_matrix(arr[:, 0], arr[:, 1], num_users, num_items))


def _random_edges(rng, num_users, num_items, density=0.3):
    edges = set()
    for u in range(num_users):
        for i in range(num_items):
            if rng.random() < density:
                edges.add((u, i))
    if not edges:
        edges.add((0, 0))
    return edges


class TestNormalizedAdjacency:
    def test_weights_match_brute_force(self):
        rng = np.random.default_rng(0)
        edges = _random_edges(rng, 6, 5)
        adj = _adjacency(edges, 6, 5)
        deg_u = {u: sum(1 for (uu, _) in edges if uu == u) for u in range(6)}
        deg_i = {i: sum(1 for (_, ii) in edges if ii == i) for i in range(5)}
        dense = adj.toarray()
        for u in range(6):
            for i in range(5):
                want = 1.0 / np.sqrt(deg_u[u] * deg_i[i]) if (u, i) in edges else 0.0
                assert abs(dense[u, i] - want) < 1e-12
        np.testing.assert_allclose(adj.T.toarray(), dense.T)

    def test_empty_graph_is_zero(self):
        adj = _adjacency(set(), 3, 4)
        assert adj.nnz == 0
        assert adj.shape == (3, 4)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            dataio.edge_matrix([5], [0], 3, 4)


class TestLightGcn:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        edges = _random_edges(rng, 7, 6)
        adj = _adjacency(edges, 7, 6)
        e_u = tg.Tensor(rng.normal(size=(7, 4)))
        e_i = tg.Tensor(rng.normal(size=(6, 4)))
        out_u, out_i = propagation.lightgcn_propagate(adj, e_u, e_i, layers=3)

        a = adj.toarray()
        cu, ci = e_u.data.copy(), e_i.data.copy()
        su, si = cu.copy(), ci.copy()
        for _ in range(3):
            cu, ci = a @ ci, a.T @ cu
            su += cu
            si += ci
        np.testing.assert_allclose(out_u.data, su, atol=1e-10)
        np.testing.assert_allclose(out_i.data, si, atol=1e-10)

    def test_zero_layers_is_identity(self):
        adj = _adjacency({(0, 0)}, 2, 2)
        e_u = tg.Tensor(np.ones((2, 3)))
        e_i = tg.Tensor(np.ones((2, 3)))
        out_u, out_i = propagation.lightgcn_propagate(adj, e_u, e_i, layers=0)
        np.testing.assert_array_equal(out_u.data, e_u.data)
        np.testing.assert_array_equal(out_i.data, e_i.data)

    def test_linearity_in_inputs(self):
        rng = np.random.default_rng(2)
        edges = _random_edges(rng, 5, 5)
        adj = _adjacency(edges, 5, 5)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 3))
        a_u, _ = propagation.lightgcn_propagate(adj, tg.Tensor(x), tg.Tensor(y), 2)
        b_u, _ = propagation.lightgcn_propagate(adj, tg.Tensor(2 * x), tg.Tensor(2 * y), 2)
        np.testing.assert_allclose(b_u.data, 2 * a_u.data, atol=1e-10)

    def test_isolated_node_keeps_layer_zero_only(self):
        # user 1 has no edges: every propagated layer contributes zeros
        adj = _adjacency({(0, 0)}, 2, 1)
        e_u = tg.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        e_i = tg.Tensor(np.array([[5.0, 6.0]]))
        out_u, _ = propagation.lightgcn_propagate(adj, e_u, e_i, layers=2)
        np.testing.assert_allclose(out_u.data[1], [3.0, 4.0])

    def test_backward_makes_as_many_spmm_calls_as_forward(self):
        """Each side's vjp makes ``layers`` products, as many as the forward makes per
        side: it runs the chain from that side's grad alone, never from a zero side."""
        calls = []

        class Counting:
            """The graph, naming each product by its side: "ui" for adj @, "iu" for adj.T @."""

            def __init__(self, m, side="ui"):
                self.m, self.shape, self.side = m, m.shape, side

            @property
            def T(self):
                return Counting(self.m.T, "iu")

            def __matmul__(self, x):
                calls.append(self.side)
                return self.m @ x

        rng = np.random.default_rng(3)
        adj = Counting(_adjacency(_random_edges(rng, 7, 5), 7, 5))
        for layers in (1, 2, 3):
            for side, chain in ((0, ["iu", "ui"]), (1, ["ui", "iu"])):
                calls.clear()
                e_u = tg.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
                e_i = tg.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
                outs = propagation.lightgcn_propagate(adj, e_u, e_i, layers)
                assert sorted(calls) == sorted(["ui", "iu"] * layers)
                calls.clear()
                tg.sum_all(outs[side]).backward()
                assert calls == (chain * layers)[:layers]
                assert e_u.grad.shape == e_u.shape and e_i.grad.shape == e_i.shape

    def test_negative_layers_rejected(self):
        adj = _adjacency({(0, 0)}, 1, 1)
        with pytest.raises(ValueError):
            propagation.lightgcn_propagate(adj, tg.Tensor(np.ones((1, 1))),
                                           tg.Tensor(np.ones((1, 1))), -1)


class TestHypergraph:
    def test_convolution_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        e_col = rng.normal(size=(8, 4))
        w = rng.normal(size=(4, 3))
        h = propagation.hypergraph_incidence(tg.Tensor(e_col), tg.Tensor(w))
        np.testing.assert_allclose(h.data, e_col @ w, atol=1e-12)
        out = propagation.hypergraph_convolve(h, tg.Tensor(e_col))
        affinity = (e_col @ w) @ (e_col @ w).T  # rows x rows, never built inside
        energy = np.sum(h.data * h.data) + 1e-12  # the affinity is divided by ||H||_F^2
        np.testing.assert_allclose(out.data, affinity @ e_col / energy, atol=1e-10 / energy)


class TestAdaptiveProjection:
    def test_matches_rowwise_closed_form(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=(100, 6))
        s = rng.normal(size=(100, 6))
        out = propagation.adaptive_project(tg.Tensor(c), tg.Tensor(s), eps=1e-8)
        for r in range(100):
            coef = np.dot(c[r], s[r]) / (np.dot(c[r], c[r]) + 1e-8)
            np.testing.assert_allclose(out.data[r], coef * c[r], atol=1e-10)

    def test_collinearity_and_contraction(self):
        rng = np.random.default_rng(6)
        c = rng.normal(size=(10_000, 8))
        s = rng.normal(size=(10_000, 8))
        out = propagation.adaptive_project(tg.Tensor(c), tg.Tensor(s)).data
        # each output row is a scalar multiple of its collaborative row
        cross = out * np.roll(c, 1, axis=1) - c * np.roll(out, 1, axis=1)
        assert np.max(np.abs(cross)) < 1e-8
        # projection never exceeds the semantic row's norm
        assert np.all(np.linalg.norm(out, axis=1) <= np.linalg.norm(s, axis=1) + 1e-12)

    def test_projecting_onto_self_is_near_identity(self):
        rng = np.random.default_rng(7)
        c = rng.normal(size=(50, 4))
        out = propagation.adaptive_project(tg.Tensor(c), tg.Tensor(c), eps=1e-12).data
        np.testing.assert_allclose(out, c, rtol=1e-9, atol=1e-9)

    def test_zero_row_guarded_by_eps(self):
        c = np.zeros((1, 3))
        s = np.ones((1, 3))
        out = propagation.adaptive_project(tg.Tensor(c), tg.Tensor(s)).data
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            propagation.adaptive_project(tg.Tensor(np.ones((1, 2))),
                                         tg.Tensor(np.ones((1, 2))), eps=0.0)


@pytest.mark.parametrize("op", ["lightgcn_propagate", "hypergraph_convolve",
                                "adaptive_project", "aggregate_behavior"])
def test_planted_nan_in_fused_input_names_the_op(op):
    adj = _adjacency({(0, 0), (1, 1)}, 2, 2)
    calls = {
        "lightgcn_propagate": lambda x, y: propagation.lightgcn_propagate(adj, x, y, 2)[0],
        "hypergraph_convolve": propagation.hypergraph_convolve,
        "adaptive_project": propagation.adaptive_project,
        "aggregate_behavior": lambda x, y: propagation.aggregate_behavior(x, y, y),
    }
    x = tg.Tensor(np.ones((2, 2)), requires_grad=True)
    x.data[0, 0] = np.nan
    with pytest.raises(tg.NonFiniteError, match=f"'{op}'"):
        calls[op](x, tg.Tensor(np.ones((2, 2)), requires_grad=True))


def test_fused_ops_reject_mismatched_shapes():
    adj = _adjacency({(0, 0)}, 2, 3)
    two, three = tg.Tensor(np.ones((2, 2))), tg.Tensor(np.ones((3, 2)))
    with pytest.raises(tg.ShapeError):
        propagation.lightgcn_propagate(adj, three, two, 1)
    with pytest.raises(tg.ShapeError):
        propagation.hypergraph_convolve(two, three)
    with pytest.raises(tg.ShapeError):
        propagation.adaptive_project(two, three)


def _numpy_cascade(edges_by_b, base_u, base_i, w_hyp_u, w_hyp_i, layer_counts,
                   disable_hpp=False, disable_par=False, disable_prj=False):
    """Straight-numpy reimplementation of the cascade under the given ablations.

    Returns, per behavior, a dict of the arrays its bundle keeps: e_u, e_i,
    e_col_i and e_sem_i.
    """
    num_users, num_items = base_u.shape[0], base_i.shape[0]

    def norm_adj(edges):
        a = np.zeros((num_users, num_items))
        deg_u = np.zeros(num_users)
        deg_i = np.zeros(num_items)
        for u, i in edges:
            deg_u[u] += 1
            deg_i[i] += 1
        for u, i in edges:
            a[u, i] = 1.0 / np.sqrt(deg_u[u] * deg_i[i])
        return a

    def lightgcn(a, eu, ei, layers):
        su, si = eu.copy(), ei.copy()
        cu, ci = eu, ei
        for _ in range(layers):
            cu, ci = a @ ci, a.T @ cu
            su = su + cu
            si = si + ci
        return su, si

    def semantic(col, w):
        h = col @ w
        return h @ (h.T @ col) / (np.sum(h * h) + 1e-12)

    def calibrated(col, sem):
        if disable_prj:
            return sem
        return np.sum(col * sem, axis=1, keepdims=True) / (
            np.sum(col * col, axis=1, keepdims=True) + 1e-8) * col

    union = set()
    for e in edges_by_b:
        union |= e
    if disable_hpp:  # parallel encoders: every behavior starts from the bases
        prev_u, prev_i = base_u, base_i
    else:
        prev_u, prev_i = lightgcn(norm_adj(union), base_u, base_i, layer_counts[0])
    bundles = []
    for k, edges in enumerate(edges_by_b):
        col_u, col_i = lightgcn(norm_adj(edges), prev_u, prev_i, layer_counts[k])
        if disable_par:
            sem_i = np.zeros_like(col_i)
            e_u, e_i = col_u, col_i
        else:
            sem_u, sem_i = semantic(col_u, w_hyp_u[k]), semantic(col_i, w_hyp_i[k])
            e_u = col_u + calibrated(col_u, sem_u)
            e_i = col_i + calibrated(col_i, sem_i)
        if not disable_hpp:  # cascading: each behavior adds the one before it
            e_u, e_i = prev_u + e_u, prev_i + e_i
            prev_u, prev_i = e_u, e_i
        bundles.append({"e_u": e_u, "e_i": e_i, "e_col_i": col_i, "e_sem_i": sem_i})
    return bundles


class TestCascade:
    def _setup(self, seed=8, num_users=6, num_items=5, d=4, k=3):
        rng = np.random.default_rng(seed)
        edges = [_random_edges(rng, num_users, num_items, density=dn)
                 for dn in (0.4, 0.25, 0.15)]
        store = tg.ParameterStore()
        store.add("base_user", rng.normal(size=(num_users, d)))
        store.add("base_item", rng.normal(size=(num_items, d)))
        names = ["view", "cart", "buy"]
        w_u, w_i = [], []
        for name in names:
            w_u.append(store.add(f"hyp_u_{name}", rng.normal(size=(d, k))).data)
            w_i.append(store.add(f"hyp_i_{name}", rng.normal(size=(d, k))).data)
        adjs = [_adjacency(e, num_users, num_items)
                for e in edges]
        union = set()
        for e in edges:
            union |= e
        uni = _adjacency(union, num_users, num_items)
        return edges, store, names, adjs, uni, w_u, w_i

    def _assert_matches_numpy(self, counts, **ablation):
        """Every behavior's e_u, e_i, e_col_i and e_sem_i against _numpy_cascade."""
        edges, store, names, adjs, uni, w_u, w_i = self._setup()
        state = propagation.cascade_forward(adjs, uni, store, names, counts, **ablation)
        want = _numpy_cascade(edges, store["base_user"].data, store["base_item"].data,
                              w_u, w_i, counts, **ablation)
        assert state.params is store
        assert len(state.per_behavior) == len(want)
        for got, arrays in zip(state.per_behavior, want):
            assert [f.name for f in dataclasses.fields(got)] == list(arrays)
            for name, array in arrays.items():
                np.testing.assert_allclose(getattr(got, name).data, array, atol=1e-10)

    def test_matches_numpy_reimplementation(self):
        self._assert_matches_numpy([1, 1, 2])

    def test_bundles_recorded_per_behavior(self):
        _, store, names, adjs, uni, _, _ = self._setup()
        state = propagation.cascade_forward(adjs, uni, store, names, [1, 1, 1])
        assert len(state.per_behavior) == 3
        for b in state.per_behavior:
            assert b.e_u.shape == store["base_user"].data.shape
            assert b.e_i.shape == store["base_item"].data.shape

    def test_disable_par_zeroes_semantic_branch(self):
        # no semantic part in the sum, and the disjunction's item space is zero
        self._assert_matches_numpy([1, 1, 2], disable_par=True)

    def test_disable_hpp_uses_parallel_encoders(self):
        # no intrinsic pass or upstream term: each behavior encodes the bases
        self._assert_matches_numpy([1, 1, 2], disable_hpp=True)

    def test_disable_prj_feeds_raw_semantic(self):
        self._assert_matches_numpy([1, 1, 2], disable_prj=True)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 3),
           st.lists(st.integers(0, 2), min_size=3, max_size=3),
           st.sampled_from([{}, {"disable_hpp": True}, {"disable_par": True},
                            {"disable_prj": True}]))
    def test_leading_behaviors_match_full_cascade_bitwise(self, seed, n, counts, ablation):
        # behavior k feeds only k + 1, ..., so a cascade over the first n
        # behaviors gives the full cascade's first n bundles bit for bit
        _, store, names, adjs, uni, _, _ = self._setup(seed=seed)
        full = propagation.cascade_forward(adjs, uni, store, names, counts, **ablation)
        part = propagation.cascade_forward(adjs[:n], uni, store, names[:n], counts[:n],
                                           **ablation)
        assert len(part.per_behavior) == n
        for got, want in zip(part.per_behavior, full.per_behavior):
            for f in dataclasses.fields(got):
                np.testing.assert_array_equal(getattr(got, f.name).data,
                                              getattr(want, f.name).data)

    def test_misaligned_inputs_rejected(self):
        _, store, names, adjs, uni, _, _ = self._setup()
        with pytest.raises(ValueError):
            propagation.cascade_forward(adjs, uni, store, names, [1, 1])
