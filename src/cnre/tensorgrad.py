"""Minimal dense/sparse autodiff kernel with an Adam optimizer.

Tensors wrap float64 numpy arrays. Every op output is made by ``record``,
which keeps its inputs and one vector-Jacobian product returning a grad per
input, so that ``backward`` can run exact reverse-mode gradients over the
tape, freeing it as it goes. The op set is the fixed vocabulary the rest of
the model needs (matmul, sparse @ dense, elementwise arithmetic with
broadcasting, relu/softplus, row gather/concat, reductions); the
propagation stack records its multi-input kernels the same way. Every op
output is checked for NaN/Inf and fails hard on the first non-finite value.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class ShapeError(Exception):
    """Incompatible operand shapes: a bug in the model, so not a ValueError (bad input)."""


class NonFiniteError(FloatingPointError):
    """Raised when an op produces (or is given) NaN or Inf."""


def _check_finite(arr, where):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values produced by '{where}'")


class Tensor:
    """A float64 array plus gradient slot, and an op output's inputs and vjp.

    ``_vjp`` maps this tensor's grad to one grad per entry of ``_inputs``.
    No vjp refers to the tensor it belongs to, so a tape is a DAG that
    reference counting frees. ``_inputs`` is ``None`` once ``backward`` has
    consumed the tape.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_inputs", "_vjp")

    def __init__(self, data, requires_grad=False, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, op)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._inputs = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def accumulate_grad(self, g):
        # the first grad is kept as it is and later ones add out of place:
        # it may be the very array another tensor holds (add passes g through)
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode sweep from this (scalar) tensor; consumes the tape.

        Each op output's grad, inputs and vjp are dropped once the vjp has
        run, so only leaf grads remain and a second sweep over the tape
        raises. Inputs that require no grad get none.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar tensor")
        # iterative post-order DFS: inputs before the ops that read them
        order = []
        seen = {id(self)}
        stack = [(self, iter(_live_inputs(self)))]
        while stack:
            t, pending = stack[-1]
            for p in pending:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(_live_inputs(p))))
                    break
            else:
                stack.pop()
                order.append(t)
        self.accumulate_grad(np.ones_like(self.data))
        while order:
            t = order.pop()
            if t._inputs:
                for p, g in zip(t._inputs, t._vjp(t.grad)):
                    if p.requires_grad:
                        p.accumulate_grad(g)
                t._inputs = t._vjp = t.grad = None

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"


def _live_inputs(t):
    if t._inputs is None:
        raise RuntimeError(f"backward() through a consumed tape (op {t.op!r})")
    return t._inputs


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def record(data, op, inputs, vjp):
    """Op output over a tuple of input tensors, with a vjp returning a grad per input.

    Nothing is recorded unless an input requires grad. The vjp runs once,
    so the terms its grads share are computed once. It must not write into
    the grad it is given, and the grads it returns are stored as they are.
    """
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs), op=op)
    if out.requires_grad:
        out._inputs, out._vjp = inputs, vjp
    return out


def _unbroadcast(g, shape):
    """Sum gradient g down to the given operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return record(a.data + b.data, "add", (a, b),
                  lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return record(a.data - b.data, "sub", (a, b),
                  lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return record(a.data * b.data, "mul", (a, b),
                  lambda g: (_unbroadcast(g * b.data, a.data.shape),
                             _unbroadcast(g * a.data, b.data.shape)))


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    return record(a.data @ b.data, "matmul", (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def spmm(s, d):
    """Sparse (CSR, non-trainable) times dense. Backward: s.T @ grad."""
    d = as_tensor(d)
    if not sp.issparse(s):
        raise ShapeError("spmm: left operand must be a scipy sparse matrix")
    if s.shape[1] != d.data.shape[0]:
        raise ShapeError(f"spmm: {s.shape} @ {d.data.shape}")
    s = s.tocsr()
    return record(s @ d.data, "spmm", (d,), lambda g: (s.T @ g,))


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0.0  # subgradient at 0 is 0
    return record(np.where(mask, a.data, 0.0), "relu", (a,), lambda g: (g * mask,))


def _sigmoid(x):
    pos = x >= 0
    z = np.empty_like(x)
    z[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    z[~pos] = e / (1.0 + e)
    return z


def softplus(a):
    """log(1 + exp(x)), numerically stable."""
    a = as_tensor(a)
    return record(np.logaddexp(0.0, a.data), "softplus", (a,),
                  lambda g: (g * _sigmoid(a.data),))


def _concat(tensors, axis, op):
    ts = tuple(as_tensor(t) for t in tensors)
    other = 1 - axis
    for t in ts:
        if t.data.shape[other] != ts[0].data.shape[other]:
            raise ShapeError(f"{op}: {'row' if axis else 'column'} counts differ")
    cuts = np.cumsum([t.data.shape[axis] for t in ts[:-1]])
    return record(np.concatenate([t.data for t in ts], axis=axis), op, ts,
                  lambda g: np.split(g, cuts, axis=axis))


def concat_cols(tensors):
    return _concat(tensors, 1, "concat_cols")


def concat_rows(tensors):
    return _concat(tensors, 0, "concat_rows")


def index_rows(a, idx):
    """Gather rows; backward is the product with the gather's transpose.

    The transpose of the len(idx) x rows gather CSR is a CSC view whose
    product adds batch positions in order, so repeated rows sum in the
    order np.add.at adds them.
    """
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    n = len(idx)

    def vjp(g):
        gather = sp.csr_matrix((np.ones(n), idx, np.arange(n + 1)), shape=(n, len(a.data)))
        return (gather.T @ g,)
    return record(a.data[idx], "index_rows", (a,), vjp)


def sum_all(a):
    a = as_tensor(a)
    return record(np.array(a.data.sum()), "sum_all", (a,), lambda g: (np.full_like(a.data, g),))


def l2_norm_sq(a):
    """Squared Frobenius norm as a scalar tensor."""
    a = as_tensor(a)
    return record(np.array(np.sum(a.data * a.data)), "l2_norm_sq", (a,),
                  lambda g: (2.0 * g * a.data,))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ParameterStore:
    """Named trainable tensors with paired Adam moment buffers."""

    def __init__(self):
        self._slots = {}
        self._m = {}
        self._v = {}
        self.step_count = 0
        self.version = 0  # bumped by every write: adam_step and load_arrays

    def add(self, name, array):
        if name in self._slots:
            raise ValueError(f"duplicate parameter slot '{name}'")
        t = Tensor(np.array(array, dtype=np.float64), requires_grad=True, op=f"param:{name}")
        self._slots[name] = t
        self._m[name] = np.zeros_like(t.data)
        self._v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name):
        return self._slots[name]

    def __contains__(self, name):
        return name in self._slots

    def names(self):
        return list(self._slots.keys())

    def items(self):
        return self._slots.items()

    def zero_grad(self):
        for t in self._slots.values():
            t.zero_grad()

    def adam_step(self, lr):
        """Standard bias-corrected Adam over all slots; zeroes gradients."""
        self.step_count += 1
        self.version += 1
        t = self.step_count
        for name, p in self._slots.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self._m[name]
            v = self._v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1 ** t)
            v_hat = v / (1.0 - ADAM_BETA2 ** t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            _check_finite(p.data, f"adam_step:{name}")
        self.zero_grad()

    def state_arrays(self):
        """Snapshot of parameter values (copies), keyed by slot name."""
        return {name: t.data.copy() for name, t in self._slots.items()}

    def load_arrays(self, arrays):
        self.version += 1
        for name, arr in arrays.items():
            t = self._slots[name]
            if t.data.shape != arr.shape:
                raise ShapeError(f"slot '{name}': shape {arr.shape} != {t.data.shape}")
            t.data = np.asarray(arr, dtype=np.float64).copy()


def finite_difference_check(loss_fn, store, h=1e-5, max_coords=256, rng=None):
    """Central-difference gradient check over sampled coordinates.

    loss_fn must be a deterministic zero-argument callable returning a
    scalar Tensor built from the store's current parameter values. Returns
    the max relative error over the sampled coordinates (at least
    min(max_coords, total) coordinates, spread across every slot).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if rng is None:
        rng = np.random.default_rng(0)

    base = loss_fn()
    again = loss_fn()
    if base.item() != again.item():
        raise ValueError("loss_fn is not deterministic; cannot check gradients")

    store.zero_grad()
    loss = loss_fn()
    loss.backward()
    grads = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
             for name, t in store.items()}

    names = store.names()
    total = sum(store[n].data.size for n in names)
    n_sample = min(max_coords, total)
    # at least one coordinate per slot, remainder spread by slot size
    picks = []
    for name in names:
        size = store[name].data.size
        k = max(1, int(round(n_sample * size / total)))
        k = min(k, size)
        idx = rng.choice(size, size=k, replace=False)
        picks.extend((name, int(i)) for i in idx)

    # scale floor: central differences carry ~eps*|f|/h round-off noise, so
    # near-zero gradients are compared against that noise level, not zero
    floor = max(1e-6, 1e-10 * max(1.0, abs(base.item())) / h)
    max_rel = 0.0
    for name, flat_i in picks:
        p = store[name]
        orig = p.data.reshape(-1)[flat_i]
        p.data.reshape(-1)[flat_i] = orig + h
        f_plus = loss_fn().item()
        p.data.reshape(-1)[flat_i] = orig - h
        f_minus = loss_fn().item()
        p.data.reshape(-1)[flat_i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = grads[name].reshape(-1)[flat_i]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
        max_rel = max(max_rel, rel)
    store.zero_grad()
    return max_rel


def xavier_uniform(rng, rows, cols):
    """Xavier/Glorot uniform init for a rows x cols matrix."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))
