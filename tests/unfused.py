"""The propagation stack as a composition of elementwise tape ops.

This is the reference the fused kernels in ``cnre.propagation`` are
checked against: every step is its own op with its own vjp, so the grads
come from the tape alone. ``div``, ``transpose`` and ``rowwise_dot`` are
ops the model no longer needs, built here with ``tg.record``.
"""

import numpy as np

from cnre import tensorgrad as tg


def div(a, b):
    a, b = tg.as_tensor(a), tg.as_tensor(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data
    return tg.record(data, "div", (a, b),
                     lambda g: (tg._unbroadcast(g / b.data, a.data.shape),
                                tg._unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def transpose(a):
    a = tg.as_tensor(a)
    return tg.record(a.data.T.copy(), "transpose", (a,), lambda g: (g.T,))


def rowwise_dot(a, b):
    """Per-row inner product, returns an (n, 1) tensor."""
    a, b = tg.as_tensor(a), tg.as_tensor(b)
    return tg.record(np.sum(a.data * b.data, axis=1, keepdims=True), "rowwise_dot", (a, b),
                     lambda g: (g * b.data, g * a.data))


def lightgcn_propagate(adj, e0_u, e0_i, layers):
    sum_u, sum_i = e0_u, e0_i
    cur_u, cur_i = e0_u, e0_i
    for _ in range(layers):
        nxt_u = tg.spmm(adj, cur_i)
        nxt_i = tg.spmm(adj.T, cur_u)
        sum_u = tg.add(sum_u, nxt_u)
        sum_i = tg.add(sum_i, nxt_i)
        cur_u, cur_i = nxt_u, nxt_i
    return sum_u, sum_i


def hypergraph_convolve(h, e_col, normalize=False):
    e_sem = tg.matmul(h, tg.matmul(transpose(h), e_col))
    if normalize:
        energy = tg.add(tg.l2_norm_sq(h), tg.Tensor(np.array(1e-12)))
        e_sem = div(e_sem, energy)
    return e_sem


def adaptive_project(e_col, e_sem, eps=1e-8):
    num = rowwise_dot(e_col, e_sem)
    den = tg.add(rowwise_dot(e_col, e_col), tg.Tensor(np.array([[eps]])))
    return tg.mul(div(num, den), e_col)


def aggregate_behavior(e_prev, e_col, e_hat_sem):
    return tg.add(tg.add(e_prev, e_col), e_hat_sem)
