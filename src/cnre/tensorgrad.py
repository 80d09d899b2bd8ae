"""Minimal dense/sparse autodiff kernel with an Adam optimizer.

Tensors wrap float64 numpy arrays and record a tape of operations so that
``backward`` can replay exact reverse-mode gradients. The op set is the
fixed vocabulary the rest of the model needs (matmul, sparse @ dense,
elementwise arithmetic with broadcasting, relu/sigmoid/softplus, row
gather/concat, reductions). Every op output is checked for NaN/Inf and
fails hard on the first non-finite value.
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
    """A float64 array plus gradient slot and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, op="leaf", _parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, op)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = None
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode sweep from this (scalar) tensor."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar tensor")
        order = []
        seen = set()

        def visit(t):
            if id(t) in seen or not t.requires_grad:
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            order.append(t)

        visit(self)
        self.accumulate_grad(np.ones_like(self.data))
        for t in reversed(order):
            if t._backward is not None:
                t._backward()

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward, op):
    req = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req, op=op, _parents=tuple(parents) if req else ())
    if req:
        out._backward = backward
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
    data = a.data + b.data
    def backward():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))
    out = _make(data, (a, b), backward, "add")
    return out


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data
    def backward():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.data.shape))
    out = _make(data, (a, b), backward, "sub")
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data
    def backward():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))
    out = _make(data, (a, b), backward, "mul")
    return out


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data
    _check_finite(data, "div")
    def backward():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))
    out = _make(data, (a, b), backward, "div")
    return out


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data
    def backward():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)
    out = _make(data, (a, b), backward, "matmul")
    return out


def spmm(s, d):
    """Sparse (CSR, non-trainable) times dense. Backward: s.T @ grad."""
    d = as_tensor(d)
    if not sp.issparse(s):
        raise ShapeError("spmm: left operand must be a scipy sparse matrix")
    if s.shape[1] != d.data.shape[0]:
        raise ShapeError(f"spmm: {s.shape} @ {d.data.shape}")
    s = s.tocsr()
    data = s @ d.data
    def backward():
        if d.requires_grad:
            d.accumulate_grad(s.T @ out.grad)
    out = _make(data, (d,), backward, "spmm")
    return out


def transpose(a):
    a = as_tensor(a)
    data = a.data.T.copy()
    def backward():
        if a.requires_grad:
            a.accumulate_grad(out.grad.T)
    out = _make(data, (a,), backward, "transpose")
    return out


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0.0  # subgradient at 0 is 0
    data = np.where(mask, a.data, 0.0)
    def backward():
        if a.requires_grad:
            a.accumulate_grad(out.grad * mask)
    out = _make(data, (a,), backward, "relu")
    return out


def _sigmoid(x):
    pos = x >= 0
    z = np.empty_like(x)
    z[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    z[~pos] = e / (1.0 + e)
    return z


def sigmoid(a):
    a = as_tensor(a)
    data = _sigmoid(a.data)
    def backward():
        if a.requires_grad:
            a.accumulate_grad(out.grad * data * (1.0 - data))
    out = _make(data, (a,), backward, "sigmoid")
    return out


def softplus(a):
    """log(1 + exp(x)), numerically stable."""
    a = as_tensor(a)
    data = np.logaddexp(0.0, a.data)
    def backward():
        if a.requires_grad:
            a.accumulate_grad(out.grad * _sigmoid(a.data))
    out = _make(data, (a,), backward, "softplus")
    return out


def concat_cols(tensors):
    ts = [as_tensor(t) for t in tensors]
    rows = ts[0].data.shape[0]
    for t in ts:
        if t.data.shape[0] != rows:
            raise ShapeError("concat_cols: row counts differ")
    data = np.concatenate([t.data for t in ts], axis=1)
    widths = [t.data.shape[1] for t in ts]
    def backward():
        g = out.grad
        off = 0
        for t, w in zip(ts, widths):
            if t.requires_grad:
                t.accumulate_grad(g[:, off:off + w])
            off += w
    out = _make(data, ts, backward, "concat_cols")
    return out


def concat_rows(tensors):
    ts = [as_tensor(t) for t in tensors]
    cols = ts[0].data.shape[1]
    for t in ts:
        if t.data.shape[1] != cols:
            raise ShapeError("concat_rows: column counts differ")
    data = np.concatenate([t.data for t in ts], axis=0)
    heights = [t.data.shape[0] for t in ts]
    def backward():
        g = out.grad
        off = 0
        for t, h in zip(ts, heights):
            if t.requires_grad:
                t.accumulate_grad(g[off:off + h])
            off += h
    out = _make(data, ts, backward, "concat_rows")
    return out


def index_rows(a, idx):
    """Gather rows; backward scatter-adds (handles repeated indices)."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    data = a.data[idx]
    def backward():
        if a.requires_grad:
            g = np.zeros_like(a.data)
            np.add.at(g, idx, out.grad)
            a.accumulate_grad(g)
    out = _make(data, (a,), backward, "index_rows")
    return out


def rowwise_dot(a, b):
    """Per-row inner product, returns an (n, 1) tensor."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"rowwise_dot: {a.data.shape} vs {b.data.shape}")
    data = np.sum(a.data * b.data, axis=1, keepdims=True)
    def backward():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)
    out = _make(data, (a, b), backward, "rowwise_dot")
    return out


def sum_all(a):
    a = as_tensor(a)
    data = np.array(a.data.sum())
    def backward():
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, out.grad))
    out = _make(data, (a,), backward, "sum_all")
    return out


def l2_norm_sq(a):
    """Squared Frobenius norm as a scalar tensor."""
    a = as_tensor(a)
    data = np.array(np.sum(a.data * a.data))
    def backward():
        if a.requires_grad:
            a.accumulate_grad(2.0 * out.grad * a.data)
    out = _make(data, (a,), backward, "l2_norm_sq")
    return out


class ParameterStore:
    """Named trainable tensors with paired Adam moment buffers."""

    def __init__(self):
        self._slots = {}
        self._m = {}
        self._v = {}
        self.step_count = 0

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

    def adam_step(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        """Standard bias-corrected Adam over all slots; zeroes gradients."""
        self.step_count += 1
        t = self.step_count
        for name, p in self._slots.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self._m[name]
            v = self._v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
            _check_finite(p.data, f"adam_step:{name}")
        self.zero_grad()

    def state_arrays(self):
        """Snapshot of parameter values (copies), keyed by slot name."""
        return {name: t.data.copy() for name, t in self._slots.items()}

    def load_arrays(self, arrays):
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
