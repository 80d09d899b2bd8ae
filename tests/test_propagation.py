"""Oracle tests for graph propagation, hypergraph encoding and projection."""

import numpy as np
import pytest

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
        dense = adj.user_to_item.toarray()
        for u in range(6):
            for i in range(5):
                want = 1.0 / np.sqrt(deg_u[u] * deg_i[i]) if (u, i) in edges else 0.0
                assert abs(dense[u, i] - want) < 1e-12
        np.testing.assert_allclose(adj.item_to_user.toarray(), dense.T)

    def test_empty_graph_is_zero(self):
        adj = _adjacency(set(), 3, 4)
        assert adj.user_to_item.nnz == 0
        assert adj.user_to_item.shape == (3, 4)

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

        a = adj.user_to_item.toarray()
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
        np.testing.assert_allclose(out.data, affinity @ e_col, atol=1e-10)

    def test_normalized_form_divides_by_energy(self):
        rng = np.random.default_rng(4)
        e_col = rng.normal(size=(6, 3))
        w = rng.normal(size=(3, 2))
        h = propagation.hypergraph_incidence(tg.Tensor(e_col), tg.Tensor(w))
        raw = propagation.hypergraph_convolve(h, tg.Tensor(e_col))
        norm = propagation.hypergraph_convolve(h, tg.Tensor(e_col), normalize=True)
        energy = np.sum(h.data * h.data) + 1e-12
        np.testing.assert_allclose(norm.data, raw.data / energy, atol=1e-10)


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


def _numpy_cascade(edges_by_b, base_u, base_i, w_hyp_u, w_hyp_i, layer_counts,
                   eps=1e-8, normalize=True):
    """Straight-numpy reimplementation of the full cascade for comparison."""
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

    union = set()
    for e in edges_by_b:
        union |= e
    prev_u, prev_i = lightgcn(norm_adj(union), base_u, base_i, layer_counts[0])
    for k, edges in enumerate(edges_by_b):
        col_u, col_i = lightgcn(norm_adj(edges), prev_u, prev_i, layer_counts[k])
        h_u, h_i = col_u @ w_hyp_u[k], col_i @ w_hyp_i[k]
        sem_u = h_u @ (h_u.T @ col_u)
        sem_i = h_i @ (h_i.T @ col_i)
        if normalize:
            sem_u = sem_u / (np.sum(h_u * h_u) + 1e-12)
            sem_i = sem_i / (np.sum(h_i * h_i) + 1e-12)
        coef_u = np.sum(col_u * sem_u, axis=1, keepdims=True) / (
            np.sum(col_u * col_u, axis=1, keepdims=True) + eps)
        coef_i = np.sum(col_i * sem_i, axis=1, keepdims=True) / (
            np.sum(col_i * col_i, axis=1, keepdims=True) + eps)
        prev_u = prev_u + col_u + coef_u * col_u
        prev_i = prev_i + col_i + coef_i * col_i
    return prev_u, prev_i


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

    def test_matches_numpy_reimplementation(self):
        edges, store, names, adjs, uni, w_u, w_i = self._setup()
        counts = [1, 1, 2]
        state = propagation.cascade_forward(adjs, uni, store, names, counts)
        want_u, want_i = _numpy_cascade(
            edges, store["base_user"].data, store["base_item"].data,
            w_u, w_i, counts)
        got_u, got_i = state.final()
        np.testing.assert_allclose(got_u.data, want_u, atol=1e-10)
        np.testing.assert_allclose(got_i.data, want_i, atol=1e-10)

    def test_bundles_recorded_per_behavior(self):
        _, store, names, adjs, uni, _, _ = self._setup()
        state = propagation.cascade_forward(adjs, uni, store, names, [1, 1, 1])
        assert len(state.per_behavior) == 3
        for b in state.per_behavior:
            assert b.e_u.shape == store["base_user"].data.shape
            assert b.e_i.shape == store["base_item"].data.shape

    def test_disable_par_zeroes_semantic_branch(self):
        _, store, names, adjs, uni, _, _ = self._setup()
        state = propagation.cascade_forward(adjs, uni, store, names, [1, 1, 1],
                                            disable_par=True)
        for b in state.per_behavior:
            assert not np.any(b.e_sem_u.data)
            assert not np.any(b.e_hat_sem_i.data)

    def test_disable_hpp_uses_parallel_encoders(self):
        _, store, names, adjs, uni, _, _ = self._setup()
        state = propagation.cascade_forward(adjs, uni, store, names, [1, 1, 1],
                                            disable_hpp=True)
        # no intrinsic pass: the pre-cascade embeddings are the raw bases
        np.testing.assert_array_equal(state.e_p_u.data, store["base_user"].data)
        # each behavior's aggregation omits the upstream term
        first = state.per_behavior[0]
        np.testing.assert_allclose(
            first.e_u.data, first.e_col_u.data + first.e_hat_sem_u.data, atol=1e-12)

    def test_disable_prj_feeds_raw_semantic(self):
        _, store, names, adjs, uni, _, _ = self._setup()
        state = propagation.cascade_forward(adjs, uni, store, names, [1, 1, 1],
                                            disable_prj=True)
        for b in state.per_behavior:
            np.testing.assert_array_equal(b.e_hat_sem_u.data, b.e_sem_u.data)

    def test_misaligned_inputs_rejected(self):
        _, store, names, adjs, uni, _, _ = self._setup()
        with pytest.raises(ValueError):
            propagation.cascade_forward(adjs, uni, store, names, [1, 1])
