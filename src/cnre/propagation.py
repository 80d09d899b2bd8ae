"""Hierarchical preference propagation over per-behavior interaction graphs.

Covers the unified-graph intrinsic pass, per-behavior LightGCN-style
collaborative encoding, learnable-hypergraph semantic encoding, the
adaptive projection that calibrates semantic against collaborative
signals, and the cascading aggregation that chains behaviors in order.
Each graph is one weighted M x N CSR; its item side is the ``.T`` view.
Every kernel is one ``tensorgrad.record`` op with a hand-written vjp.
A cascade keeps per behavior only what the reasoner reads, and the slots
it was computed from; other intermediates live on the tape, if there is one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import tensorgrad as tg


@dataclass
class BehaviorEmbeddings:
    """What the reasoner reads of one behavior: the aggregated users and items
    (width d) and the item space of each logic operator (``reasoning.OPERATORS``)."""

    e_u: tg.Tensor
    e_i: tg.Tensor
    e_col_i: tg.Tensor  # the conjunction's item space
    e_sem_i: tg.Tensor  # the disjunction's item space


@dataclass
class CascadeState:
    """The bundles of one cascade forward pass and the slots it was computed from."""

    per_behavior: list  # list[BehaviorEmbeddings], in cascade order
    params: object      # the slot mapping the pass read; the scorers read theirs here too
    memo: dict = field(default_factory=dict, repr=False, compare=False)  # readers' derived arrays


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
    layer sum is linear in (e0_u, e0_i) and its own adjoint (the graph is
    symmetric), so a side's vjp is the same layer sum (``_layer_sums``) run
    from that side's grad and zero on the other: ``layers`` spmm calls per
    side, as many as the forward pass makes.
    """
    if layers < 0:
        raise ValueError("layer count must be >= 0")
    if layers == 0:
        return e0_u, e0_i
    if adj.shape != (len(e0_u.data), len(e0_i.data)):
        raise tg.ShapeError(f"lightgcn_propagate: {adj.shape} graph, {len(e0_u.data)} x "
                            f"{len(e0_i.data)} embedding rows")
    sum_u, sum_i = _layer_sums(adj, e0_u.data, e0_i.data, layers)
    inputs = (e0_u, e0_i)
    return (tg.record(sum_u, "lightgcn_propagate", inputs,
                      lambda g: _layer_sums(adj, g, None, layers)),
            tg.record(sum_i, "lightgcn_propagate", inputs,
                      lambda g: _layer_sums(adj, None, g, layers)))


def _layer_sums(adj, x_u, x_i, layers):
    """(user, item) sums of layers 0 ... layers of the alternating chain from (x_u, x_i).

    A side given as None is zero: it makes no spmm, and its sum is None until
    the chain reaches it. Sums add out of place, so x_u and x_i are never written.
    """
    iu = adj.T
    sum_u, sum_i, cur_u, cur_i = x_u, x_i, x_u, x_i
    for _ in range(layers):
        cur_u, cur_i = (None if cur_i is None else adj @ cur_i,
                        None if cur_u is None else iu @ cur_u)
        sum_u, sum_i = _plus(sum_u, cur_u), _plus(sum_i, cur_i)
    return sum_u, sum_i


def _plus(a, b):
    """a + b, where None is zero."""
    return a if b is None else b if a is None else a + b


def hypergraph_incidence(e_col, w_hyp):
    """Learned incidence: H = e_col @ W_hyp (rows x K)."""
    return tg.matmul(e_col, w_hyp)


def hypergraph_convolve(h, e_col):
    """e_sem = H (H^T e_col) / ||H||_F^2; never materializes the rows x rows affinity.

    The division caps the affinity's spectral norm at 1: the raw form grows
    multiplicatively with the row count and blows up through a cascade.
    One op: its grads share H^T e_col and H^T dS, each computed once.
    """
    hd, ed = h.data, e_col.data
    if len(hd) != len(ed):
        raise tg.ShapeError(f"hypergraph_convolve: {hd.shape} incidence, {ed.shape} rows")
    ht_e = hd.T @ ed
    energy = np.sum(hd * hd) + 1e-12
    out = hd @ ht_e / energy

    def vjp(g):
        ds = g / energy
        ht_ds = hd.T @ ds
        grad_h = ds @ ht_e.T + ed @ ht_ds.T
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


def aggregate_behavior(*parts):
    """Elementwise sum of the parts, in order (one op): of the upstream, collaborative
    and calibrated parts, those the ablation keeps."""
    data = parts[0].data.copy()
    for part in parts[1:]:
        data += part.data
    return tg.record(data, "aggregate_behavior", parts, lambda g: (g,) * len(parts))


def cascade_forward(adjacencies, unified_adj, params, behavior_names, layer_counts,
                    disable_hpp=False, disable_par=False, disable_prj=False):
    """Run the full propagation cascade; returns its bundles with params.

    adjacencies: per-behavior normalized M x N CSR graphs in cascade order.
    params: ParameterStore, or a mapping of its tensors by slot name with
    its ``version``, with 'base_user', 'base_item' and per-behavior
    'hyp_u_<name>' / 'hyp_i_<name>' slots.

    Ablations: disable_hpp drops the intrinsic pass and cascading
    initialization (plain parallel encoders); disable_par drops the
    hypergraph semantic branch (the disjunction then reads zero items);
    disable_prj feeds raw semantic embeddings into the aggregation instead
    of projected ones.
    """
    if len(adjacencies) != len(behavior_names) or len(layer_counts) != len(behavior_names):
        raise ValueError("adjacencies / layer_counts must align with behaviors")
    base_u = params["base_user"]
    base_i = params["base_item"]

    if disable_hpp:
        prev_u, prev_i = base_u, base_i
    else:
        # intrinsic pass over the union-of-behaviors graph reuses behavior 1's
        # layer count
        prev_u, prev_i = lightgcn_propagate(unified_adj, base_u, base_i, layer_counts[0])
    if disable_par:
        zeros_i = tg.Tensor(np.zeros_like(base_i.data))

    bundles = []
    for k, name in enumerate(behavior_names):
        e_col_u, e_col_i = lightgcn_propagate(adjacencies[k], prev_u, prev_i, layer_counts[k])
        parts_u, parts_i = [e_col_u], [e_col_i]
        if disable_par:
            e_sem_i = zeros_i
        else:
            h_u = hypergraph_incidence(e_col_u, params[f"hyp_u_{name}"])
            h_i = hypergraph_incidence(e_col_i, params[f"hyp_i_{name}"])
            e_sem_u = hypergraph_convolve(h_u, e_col_u)
            e_sem_i = hypergraph_convolve(h_i, e_col_i)
            parts_u.append(e_sem_u if disable_prj else adaptive_project(e_col_u, e_sem_u))
            parts_i.append(e_sem_i if disable_prj else adaptive_project(e_col_i, e_sem_i))

        if disable_hpp:
            e_u, e_i = aggregate_behavior(*parts_u), aggregate_behavior(*parts_i)
        else:  # cascading: the upstream part comes first, and the sum feeds the next behavior
            e_u = prev_u = aggregate_behavior(prev_u, *parts_u)
            e_i = prev_i = aggregate_behavior(prev_i, *parts_i)
        bundles.append(BehaviorEmbeddings(e_u=e_u, e_i=e_i, e_col_i=e_col_i, e_sem_i=e_sem_i))

    return CascadeState(per_behavior=bundles, params=params)
