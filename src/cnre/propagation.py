"""Hierarchical preference propagation over per-behavior interaction graphs.

Covers the unified-graph intrinsic pass, per-behavior LightGCN-style
collaborative encoding, learnable-hypergraph semantic encoding, the
adaptive projection that calibrates semantic against collaborative
signals, and the cascading aggregation that chains behaviors in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import tensorgrad as tg


@dataclass
class NormalizedAdjacency:
    """Symmetric-degree-normalized bipartite adjacency, both directions."""

    user_to_item: sp.csr_matrix  # M x N
    item_to_user: sp.csr_matrix  # N x M


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

    def final(self):
        """Aggregated embeddings of the target (last) behavior."""
        last = self.per_behavior[-1]
        return last.e_u, last.e_i


def build_normalized_adjacency(matrix):
    """Weight each entry (u, i) of a canonical M x N CSR pattern by 1/sqrt(deg(u) deg(i))."""
    num_users, num_items = matrix.shape
    counts = np.diff(matrix.indptr)
    deg_u = counts.astype(np.float64)
    deg_i = np.bincount(matrix.indices, minlength=num_items).astype(np.float64)
    w = 1.0 / np.sqrt(np.repeat(deg_u, counts) * deg_i[matrix.indices])
    ui = sp.csr_matrix((w, matrix.indices.copy(), matrix.indptr.copy()),
                       shape=(num_users, num_items))
    return NormalizedAdjacency(user_to_item=ui, item_to_user=ui.T.tocsr())


def lightgcn_propagate(adj, e0_u, e0_i, layers):
    """Alternating user<->item aggregation, layer-0 included in the sum."""
    if layers < 0:
        raise ValueError("layer count must be >= 0")
    sum_u, sum_i = e0_u, e0_i
    cur_u, cur_i = e0_u, e0_i
    for _ in range(layers):
        nxt_u = tg.spmm(adj.user_to_item, cur_i)
        nxt_i = tg.spmm(adj.item_to_user, cur_u)
        sum_u = tg.add(sum_u, nxt_u)
        sum_i = tg.add(sum_i, nxt_i)
        cur_u, cur_i = nxt_u, nxt_i
    return sum_u, sum_i


def hypergraph_incidence(e_col, w_hyp):
    """Learned incidence: H = e_col @ W_hyp (rows x K)."""
    return tg.matmul(e_col, w_hyp)


def hypergraph_convolve(h, e_col, normalize=False):
    """e_sem = H (H^T e_col); never materializes the rows x rows affinity.

    With normalize=True the affinity is divided by ||H||_F^2, which caps
    its spectral norm at 1; the raw form grows multiplicatively with the
    row count and blows up through a cascade.
    """
    e_sem = tg.matmul(h, tg.matmul(tg.transpose(h), e_col))
    if normalize:
        energy = tg.add(tg.l2_norm_sq(h), tg.Tensor(np.array(1e-12)))
        e_sem = tg.div(e_sem, energy)
    return e_sem


def adaptive_project(e_col, e_sem, eps=1e-8):
    """Row-wise projection of e_sem onto e_col with an eps-guarded norm."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    num = tg.rowwise_dot(e_col, e_sem)
    den = tg.add(tg.rowwise_dot(e_col, e_col), tg.Tensor(np.array([[eps]])))
    coef = tg.div(num, den)
    return tg.mul(coef, e_col)


def aggregate_behavior(e_prev, e_col, e_hat_sem):
    """Elementwise sum of the upstream, collaborative and calibrated parts."""
    return tg.add(tg.add(e_prev, e_col), e_hat_sem)


def cascade_forward(adjacencies, unified_adj, params, behavior_names, layer_counts,
                    eps=1e-8, hypergraph_normalize=True,
                    disable_hpp=False, disable_par=False, disable_prj=False):
    """Run the full propagation cascade and record every bundle.

    adjacencies: per-behavior NormalizedAdjacency list in cascade order.
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
            e_sem_u = hypergraph_convolve(h_u, e_col_u, normalize=hypergraph_normalize)
            e_sem_i = hypergraph_convolve(h_i, e_col_i, normalize=hypergraph_normalize)
            if disable_prj:
                e_hat_u, e_hat_i = e_sem_u, e_sem_i
            else:
                e_hat_u = adaptive_project(e_col_u, e_sem_u, eps)
                e_hat_i = adaptive_project(e_col_i, e_sem_i, eps)

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
