"""Minimal dense autodiff kernel with an Adam optimizer.

Tensors wrap float64 numpy arrays, or float32 ones: a training step runs
in float32 on ``cast:<slot>`` reads of the float64 parameters (``SlotCasts``),
whose vjps hand float64 grads back to them, and each op follows its
inputs' dtype. Every op output is made by ``record``,
which keeps its inputs and one vector-Jacobian product returning a grad per
input, so that ``backward`` can run exact reverse-mode gradients over the
tape, freeing it as it goes. The op set is the fixed vocabulary the rest of
the model needs (matmul, elementwise arithmetic with broadcasting,
relu/softplus, row slices, reductions); the propagation stack and the
reasoner record their multi-input kernels the same way. Every op output is
checked for NaN/Inf and fails hard on the first non-finite value. The
central-difference gradient check and the op-by-op reference ops live in
the tests (``tests/gradcheck.py``, ``tests/unfused.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class ShapeError(Exception):
    """Incompatible operand shapes: a bug in the model, so not a ValueError (bad input)."""


class NonFiniteError(FloatingPointError):
    """Raised when an op produces (or is given) NaN or Inf."""


def _check_finite(arr, where):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by '{where}'")


class Tensor:
    """A float64 or float32 array plus gradient slot, and an op output's inputs and vjp.

    A float32 array is kept as it is; any other array is cast to float64.

    ``_vjp`` maps this tensor's grad to one grad per entry of ``_inputs``.
    No vjp refers to the tensor it belongs to, so a tape is a DAG that
    reference counting frees. ``_inputs`` is ``None`` once ``backward`` has
    consumed the tape.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_inputs", "_vjp")

    def __init__(self, data, requires_grad=False, op="leaf"):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
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


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0.0  # subgradient at 0 is 0
    return record(np.where(mask, a.data, 0.0), "relu", (a,), lambda g: (g * mask,))


def _sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0, else exp(x) / (1 + exp(x)); exp never overflows."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def softplus(a):
    """log(1 + exp(x)), numerically stable."""
    a = as_tensor(a)
    return record(np.logaddexp(0.0, a.data), "softplus", (a,),
                  lambda g: (g * _sigmoid(a.data),))


def scatter_add_rows(g, idx, rows):
    """A rows-row array whose row r sums the rows of g that idx maps to r.

    This is the product of the len(idx) x rows gather's transpose with g:
    the transpose of the gather CSR is a CSC view whose product adds
    positions in order, so repeated rows sum in the order np.add.at adds
    them.
    """
    n = len(idx)
    gather = sp.csr_matrix((np.ones(n, dtype=g.dtype), idx, np.arange(n + 1)), shape=(n, rows))
    return gather.T @ g


def slice_rows(a, start, stop):
    """Rows start:stop of a; backward puts the grad in those rows of a zero array."""
    a = as_tensor(a)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)
    return record(a.data[start:stop], "slice_rows", (a,), vjp)


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
ADAM_BLOCK = 1 << 14  # elements per Adam block: its two float64 temporaries take 256 KiB


class ParameterStore:
    """Named trainable tensors with paired Adam moment buffers."""

    def __init__(self):
        self._slots = {}
        self._m = {}
        self._v = {}
        self._scratch = np.empty((2, ADAM_BLOCK))  # adam_step's block temporaries
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

    def names(self):
        return list(self._slots.keys())

    def items(self):
        return self._slots.items()

    def zero_grad(self):
        for t in self._slots.values():
            t.zero_grad()

    def adam_step(self, lr):
        """Standard bias-corrected Adam over all slots; zeroes gradients.

        Each slot is updated in place, ADAM_BLOCK elements at a time, so the
        block's two temporaries (the store's scratch buffers) stay in cache.
        Each element goes through the same ops in the same order as the
        out-of-place formula, so the results are the same bits.
        """
        self.step_count += 1
        self.version += 1
        t = self.step_count
        for name, p in self._slots.items():
            data, m, v = p.data.reshape(-1), self._m[name].reshape(-1), self._v[name].reshape(-1)
            grad = None if p.grad is None else p.grad.reshape(-1)
            for s in range(0, data.shape[0], ADAM_BLOCK):
                e = min(s + ADAM_BLOCK, data.shape[0])
                step, den = self._scratch[0][:e - s], self._scratch[1][:e - s]
                g = 0.0 if grad is None else grad[s:e]
                mb, vb = m[s:e], v[s:e]
                mb *= ADAM_BETA1
                mb += np.multiply(1.0 - ADAM_BETA1, g, out=step)
                vb *= ADAM_BETA2
                np.multiply(1.0 - ADAM_BETA2, g, out=step)
                step *= g
                vb += step
                # lr * m_hat / (sqrt(v_hat) + eps)
                np.divide(mb, 1.0 - ADAM_BETA1 ** t, out=step)
                np.divide(vb, 1.0 - ADAM_BETA2 ** t, out=den)
                np.sqrt(den, out=den)
                den += ADAM_EPS
                np.multiply(lr, step, out=step)
                step /= den
                data[s:e] -= step
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
            t.data[...] = arr  # in place, so a SlotView over the store reads it


class SlotView(dict):
    """A store's slots as no-grad tensors over its arrays, keyed by slot name, with its
    live ``version``: nothing that reads them records a tape, and they follow every
    write (``adam_step`` and ``load_arrays`` write in place). A slot is checked when
    the view is made, so a value written around those checks fails there."""

    def __init__(self, store):
        super().__init__((name, Tensor(p.data, op=f"param:{name}")) for name, p in store.items())
        self.store = store

    version = property(lambda self: self.store.version)


class SlotCasts(dict):
    """Every slot of a store read through its own ``cast:<slot>`` op, keyed by slot name.

    A cast's output is the slot's data as dtype, and its vjp hands the grad
    back as float64. The mapping stands in for the store wherever slots are
    read by name, so one training step runs in dtype while the store keeps
    its float64 values and gets float64 grads. A value beyond dtype's range
    becomes inf, so it fails the cast's output check, as a NaN does.
    ``version`` is the store's at the cast; each mapping is a new object,
    so nothing memoized for an earlier step's mapping is reused
    (``reasoning.item_tables``).
    """

    def __init__(self, store, dtype):
        with np.errstate(over="ignore"):
            super().__init__((name, record(p.data.astype(dtype), f"cast:{name}", (p,),
                                           lambda g: (g.astype(np.float64),)))
                             for name, p in store.items())
        self.version = store.version


def xavier_uniform(rng, rows, cols):
    """Xavier/Glorot uniform init for a rows x cols matrix."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))
