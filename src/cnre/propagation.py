"""Hierarchical preference propagation over per-behavior interaction graphs.

Covers the unified-graph intrinsic pass, per-behavior LightGCN-style
collaborative encoding, learnable-hypergraph semantic encoding, the
adaptive projection that calibrates semantic against collaborative
signals, and the cascading aggregation that chains behaviors in order.
Each graph is one weighted M x N CSR; its item side is the ``.T`` view.
Every kernel is one ``tensorgrad.record`` op with a hand-written vjp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import tensorgrad as tg


@dataclass
class BehaviorEmbeddings:
    """Per-behavior embedding bundle (users and items, width d)."""

    e_col_u: tg.Tensor
    e_col_i: tg.Tensor
    e_sem_u: tg.Tensor
    e_sem_i: tg.Tensor
    e_hat_sem_u: tg.Tensor
    e_hat_sem_i: tg.Tensor
    e_u: tg.Tensor
    e_i: tg.Tensor


@dataclass
class CascadeState:
    """All embedding bundles produced by one cascade forward pass."""

    e_p_u: tg.Tensor
    e_p_i: tg.Tensor
    per_behavior: list  # list[BehaviorEmbeddings], in cascade order
    layer_counts: list
    memo: dict = field(default_factory=dict, repr=False, compare=False)  # readers' derived arrays

    def final(self):
        """Aggregated embeddings of the target (last) behavior."""
        last = self.per_behavior[-1]
        return last.e_u, last.e_i


def build_normalized_adjacency(matrix):
    """M x N CSR weighting each entry (u, i) of a canonical pattern by 1/sqrt(deg(u) deg(i))."""
    num_users, num_items = matrix.shape
    counts = np.diff(matrix.indptr)
    deg_u = counts.astype(np.float64)
    deg_i = np.bincount(matrix.indices, minlength=num_items).astype(np.float64)
    w = 1.0 / np.sqrt(np.repeat(deg_u, counts) * deg_i[matrix.indices])
    return sp.csr_matrix((w, matrix.indices.copy(), matrix.indptr.copy()),
                         shape=(num_users, num_items))


def lightgcn_propagate(adj, e0_u, e0_i, layers):
    """Alternating user<->item aggregation, layer-0 included in the sum.

    adj is the M x N graph and adj.T its item side. One op per side: the
    layer sum is linear in (e0_u, e0_i) and the graph is symmetric, so a
    side's vjp is the same alternating chain run from that side's grad:
    ``layers`` spmm calls per side, as many as the forward pass makes.
    """
    if layers < 0:
        raise ValueError("layer count must be >= 0")
    if layers == 0:
        return e0_u, e0_i
    ui, iu = adj, adj.T
    cur_u, cur_i = e0_u.data, e0_i.data
    if ui.shape != (len(cur_u), len(cur_i)):
        raise tg.ShapeError(f"lightgcn_propagate: {ui.shape} graph, {len(cur_u)} x "
                            f"{len(cur_i)} embedding rows")
    sum_u, sum_i = cur_u.copy(), cur_i.copy()
    for _ in range(layers):
        cur_u, cur_i = ui @ cur_i, iu @ cur_u
        sum_u += cur_u
        sum_i += cur_i
    inputs = (e0_u, e0_i)
    return (tg.record(sum_u, "lightgcn_propagate", inputs,
                      lambda g: _layer_sum_vjp(g, iu, ui, layers)),
            tg.record(sum_i, "lightgcn_propagate", inputs,
                      lambda g: _layer_sum_vjp(g, ui, iu, layers)[::-1]))


def _layer_sum_vjp(g, first, second, layers):
    """(own side, other side) grads of one side's layer sum, given its grad g.

    The chain from (g, 0) alternates sides, so each step is one spmm that
    adds to one grad: the 1st, 3rd, ... steps land on the other side, the
    2nd, 4th, ... back on this side.
    """
    own, other, cur = g, None, g
    for k in range(layers):
        cur = (second if k % 2 else first) @ cur
        if k % 2:
            own = own + cur
        else:
            other = cur if other is None else other + cur
    return own, other


def hypergraph_incidence(e_col, w_hyp):
    """Learned incidence: H = e_col @ W_hyp (rows x K)."""
    return tg.matmul(e_col, w_hyp)


def hypergraph_convolve(h, e_col, normalize=False):
    """e_sem = H (H^T e_col); never materializes the rows x rows affinity.

    With normalize=True the affinity is divided by ||H||_F^2, which caps
    its spectral norm at 1; the raw form grows multiplicatively with the
    row count and blows up through a cascade. One op: its grads
    share H^T e_col and H^T dS, and each is computed once.
    """
    hd, ed = h.data, e_col.data
    if len(hd) != len(ed):
        raise tg.ShapeError(f"hypergraph_convolve: {hd.shape} incidence, {ed.shape} rows")
    ht_e = hd.T @ ed
    energy = np.sum(hd * hd) + 1e-12 if normalize else 1.0
    out = hd @ ht_e / energy

    def vjp(g):
        ds = g / energy
        ht_ds = hd.T @ ds
        grad_h = ds @ ht_e.T + ed @ ht_ds.T
        if normalize:
            grad_h -= (2.0 * np.sum(g * out) / energy) * hd
        return grad_h, hd @ ht_ds
    return tg.record(out, "hypergraph_convolve", (h, e_col), vjp)


def adaptive_project(e_col, e_sem, eps=1e-8):
    """Row-wise projection of e_sem onto e_col with an eps-guarded norm (one op)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    c, s = e_col.data, e_sem.data
    if c.shape != s.shape:
        raise tg.ShapeError(f"adaptive_project: {c.shape} vs {s.shape}")
    den = np.sum(c * c, axis=1, keepdims=True) + eps
    coef = np.sum(c * s, axis=1, keepdims=True) / den

    def vjp(g):
        g_num = np.sum(g * c, axis=1, keepdims=True) / den  # the grad of coef's numerator
        return coef * g + g_num * (s - 2.0 * coef * c), g_num * c
    return tg.record(coef * c, "adaptive_project", (e_col, e_sem), vjp)


def aggregate_behavior(e_prev, e_col, e_hat_sem):
    """Elementwise sum of the upstream, collaborative and calibrated parts (one op)."""
    return tg.record(e_prev.data + e_col.data + e_hat_sem.data, "aggregate_behavior",
                     (e_prev, e_col, e_hat_sem), lambda g: (g, g, g))


def cascade_forward(adjacencies, unified_adj, params, behavior_names, layer_counts,
                    disable_hpp=False, disable_par=False, disable_prj=False):
    """Run the full propagation cascade and record every bundle.

    adjacencies: per-behavior normalized M x N CSR graphs in cascade order.
    params: ParameterStore with 'base_user', 'base_item' and per-behavior
    'hyp_u_<name>' / 'hyp_i_<name>' slots.

    Ablations: disable_hpp drops the intrinsic pass and cascading
    initialization (plain parallel encoders); disable_par drops the
    hypergraph semantic branch; disable_prj feeds raw semantic embeddings
    into the aggregation instead of projected ones.
    """
    if len(adjacencies) != len(behavior_names) or len(layer_counts) != len(behavior_names):
        raise ValueError("adjacencies / layer_counts must align with behaviors")
    base_u = params["base_user"]
    base_i = params["base_item"]

    if disable_hpp:
        e_p_u, e_p_i = base_u, base_i
    else:
        # intrinsic pass over the union-of-behaviors graph reuses behavior 1's
        # layer count
        e_p_u, e_p_i = lightgcn_propagate(unified_adj, base_u, base_i, layer_counts[0])

    zeros_u = tg.Tensor(np.zeros_like(base_u.data))
    zeros_i = tg.Tensor(np.zeros_like(base_i.data))

    bundles = []
    prev_u, prev_i = e_p_u, e_p_i
    for k, name in enumerate(behavior_names):
        init_u = base_u if disable_hpp else prev_u
        init_i = base_i if disable_hpp else prev_i
        e_col_u, e_col_i = lightgcn_propagate(adjacencies[k], init_u, init_i, layer_counts[k])

        if disable_par:
            e_sem_u, e_sem_i = zeros_u, zeros_i
            e_hat_u, e_hat_i = zeros_u, zeros_i
        else:
            h_u = hypergraph_incidence(e_col_u, params[f"hyp_u_{name}"])
            h_i = hypergraph_incidence(e_col_i, params[f"hyp_i_{name}"])
            e_sem_u = hypergraph_convolve(h_u, e_col_u, normalize=True)
            e_sem_i = hypergraph_convolve(h_i, e_col_i, normalize=True)
            if disable_prj:
                e_hat_u, e_hat_i = e_sem_u, e_sem_i
            else:
                e_hat_u = adaptive_project(e_col_u, e_sem_u)
                e_hat_i = adaptive_project(e_col_i, e_sem_i)

        up_u = zeros_u if disable_hpp else prev_u
        up_i = zeros_i if disable_hpp else prev_i
        e_u = aggregate_behavior(up_u, e_col_u, e_hat_u)
        e_i = aggregate_behavior(up_i, e_col_i, e_hat_i)

        bundles.append(BehaviorEmbeddings(
            e_col_u=e_col_u, e_col_i=e_col_i,
            e_sem_u=e_sem_u, e_sem_i=e_sem_i,
            e_hat_sem_u=e_hat_u, e_hat_sem_i=e_hat_i,
            e_u=e_u, e_i=e_i,
        ))
        prev_u, prev_i = e_u, e_i

    return CascadeState(e_p_u=e_p_u, e_p_i=e_p_i, per_behavior=bundles,
                        layer_counts=list(layer_counts))
