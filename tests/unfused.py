"""The propagation stack and the reasoner as compositions of plain tape ops.

This is the reference the fused kernels in ``cnre.propagation`` and the
group scorers in ``cnre.reasoning`` are checked against: every step is its
own op with its own vjp, so the grads come from the tape alone. ``div``,
``transpose``, ``rowwise_dot``, ``spmm``, ``index_rows`` and the two
concatenations are ops the model no longer needs, built here with
``tg.record``.
"""

import numpy as np
import scipy.sparse as sp

from cnre import reasoning, retrieval, tensorgrad as tg, training


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


def spmm(s, d):
    """Sparse (CSR, non-trainable) times dense. Backward: s.T @ grad."""
    d = tg.as_tensor(d)
    if not sp.issparse(s):
        raise tg.ShapeError("spmm: left operand must be a scipy sparse matrix")
    if s.shape[1] != d.data.shape[0]:
        raise tg.ShapeError(f"spmm: {s.shape} @ {d.data.shape}")
    s = s.tocsr()
    return tg.record(s @ d.data, "spmm", (d,), lambda g: (s.T @ g,))


def _concat(tensors, axis, op):
    ts = tuple(tg.as_tensor(t) for t in tensors)
    other = 1 - axis
    for t in ts:
        if t.data.shape[other] != ts[0].data.shape[other]:
            raise tg.ShapeError(f"{op}: {'row' if axis else 'column'} counts differ")
    cuts = np.cumsum([t.data.shape[axis] for t in ts[:-1]])
    return tg.record(np.concatenate([t.data for t in ts], axis=axis), op, ts,
                     lambda g: np.split(g, cuts, axis=axis))


def concat_cols(tensors):
    return _concat(tensors, 1, "concat_cols")


def concat_rows(tensors):
    return _concat(tensors, 0, "concat_rows")


def index_rows(a, idx):
    """Gather rows; backward scatters the grad back with scatter_add_rows."""
    a = tg.as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    return tg.record(a.data[idx], "index_rows", (a,),
                     lambda g: (tg.scatter_add_rows(g, idx, len(a.data)),))


def lightgcn_propagate(adj, e0_u, e0_i, layers):
    sum_u, sum_i = e0_u, e0_i
    cur_u, cur_i = e0_u, e0_i
    for _ in range(layers):
        nxt_u = spmm(adj, cur_i)
        nxt_i = spmm(adj.T, cur_u)
        sum_u = tg.add(sum_u, nxt_u)
        sum_i = tg.add(sum_i, nxt_i)
        cur_u, cur_i = nxt_u, nxt_i
    return sum_u, sum_i


def hypergraph_convolve(h, e_col):
    e_sem = tg.matmul(h, tg.matmul(transpose(h), e_col))
    energy = tg.add(tg.l2_norm_sq(h), tg.Tensor(np.array(1e-12)))
    return div(e_sem, energy)


def adaptive_project(e_col, e_sem, eps=1e-8):
    num = rowwise_dot(e_col, e_sem)
    den = tg.add(rowwise_dot(e_col, e_col), tg.Tensor(np.array([[eps]])))
    return tg.mul(div(num, den), e_col)


def aggregate_behavior(e_prev, e_col, e_hat_sem):
    return tg.add(tg.add(e_prev, e_col), e_hat_sem)


def strong_mediator(e_u_rows, e_i_rows):
    """f_strong is plain concatenation (width 2d)."""
    return concat_cols([e_u_rows, e_i_rows])


def logic_mlp(x, params, prefix):
    h = tg.relu(tg.add(tg.matmul(x, params[f"{prefix}_w1"]), params[f"{prefix}_b1"]))
    return tg.add(tg.matmul(h, params[f"{prefix}_w2"]), params[f"{prefix}_b2"])


def conjunction_mediator(e_u_rows, e_i_col_rows, s_col_rows, params):
    """Neural conjunction over (e_u ++ e_i_col ++ S_col)."""
    return logic_mlp(concat_cols([e_u_rows, e_i_col_rows, s_col_rows]), params, "conj")


def disjunction_mediator(e_u_rows, e_i_sem_rows, s_sem_rows, params):
    """Neural disjunction, structurally identical but independent parameters."""
    return logic_mlp(concat_cols([e_u_rows, e_i_sem_rows, s_sem_rows]), params, "disj")


def pooling_matrix(hoods, n_items):
    """g x N averaging matrix of the g x k neighbor ids, built from COO triplets."""
    g, k = hoods.shape
    rows = np.repeat(np.arange(g), k)
    vals = np.full(g * k, 1.0 / max(k, 1))
    return sp.csr_matrix((vals, (rows, hoods.ravel())), shape=(g, n_items))


def reason_batch(users, items, train, cascade, indices, params, tau, n_c=10, codes=None,
                 gate=None, **ablations):
    """The reasoner op by op: (n x 1 head logits, n x 2d mediators), both tensors.

    Pairs are routed with ``reasoning.route`` and retrieved with
    ``retrieval.neighbors``, as the model does. Each (operator, behavior)
    group's mediators are row gathers and a concatenation; a retrieval
    group's also pool its neighbors with a sparse product (``pooling_matrix``,
    built here, not the model's) and run the operator's MLP. The head is
    ``training.predict_logit``.
    """
    gate_arrays = (gate.per_behavior if gate is not None else
                   [{"e_u": b.e_u.data, "e_i": b.e_i.data} for b in cascade.per_behavior])
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    r = reasoning.route(users, items, train, gate_arrays, tau, codes=codes, **ablations)
    parts, order = [], []
    for kind, b in sorted(set(zip(r.kinds.tolist(), r.behaviors.tolist()))):
        pos = np.flatnonzero((r.kinds == kind) & (r.behaviors == b))
        bundle = cascade.per_behavior[b]
        e_u_rows = index_rows(bundle.e_u, users[pos])
        if kind == reasoning._CONCAT:
            parts.append(strong_mediator(e_u_rows, index_rows(bundle.e_i, items[pos])))
        else:
            space = getattr(bundle, reasoning._SPACE_ATTRS[kind])
            hoods = retrieval.neighbors(indices[(b, reasoning._SPACE_KEYS[kind])],
                                        items[pos], n_c)
            pooled = spmm(pooling_matrix(hoods, train.num_items), space)
            mediator = conjunction_mediator if kind == reasoning._CONJ else disjunction_mediator
            parts.append(mediator(e_u_rows, index_rows(space, items[pos]), pooled, params))
        order.append(pos)
    if not parts:  # an empty batch
        mediators = tg.Tensor(np.empty((0, 2 * cascade.per_behavior[0].e_u.data.shape[1])))
    else:
        order = np.concatenate(order)
        inv = np.empty_like(order)
        inv[order] = np.arange(order.shape[0])
        mediators = index_rows(concat_rows(parts), inv)
    return training.predict_logit(mediators, params), mediators
