"""Central-difference check of the gradients the tape computes for a parameter store."""

import numpy as np


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
