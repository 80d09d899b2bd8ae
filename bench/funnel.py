"""Seeded, vectorized view -> cart -> buy funnel generator.

The benchmark builds its inputs here rather than through
``cnre.synthetic.make_planted_dataset``: that generator loops over users
and items in Python, and changes to its planted structure would silently
change every workload. Every user gets exactly ``views`` views, ``carts``
carts (a subset of the views) and ``buys`` buys, so edge counts, and with
them the amount of work per run, do not depend on the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

BEHAVIORS = ("view", "cart", "buy")
ZIPF = 0.8  # item popularity exponent


@dataclass(frozen=True)
class FunnelShape:
    users: int
    items: int
    views: int        # per user
    carts: int        # per user, a subset of the user's views
    buys: int         # per user, a subset of the user's carts ...
    skip_prob: float  # ... except that with this chance the last buy skips the cart


def make_funnel(shape, seed):
    """Return {behavior: (E x 2) int64 array of (user, item)} for one seed.

    Items are drawn without replacement per user, weighted by a Zipf-like
    popularity over a seeded item permutation (Gumbel top-k). Carts are the
    user's first ``carts`` views in draw order and buys the first ``buys``
    carts; a skip chain replaces the last buy by a viewed, never-carted item.
    """
    if not (shape.buys <= shape.carts < shape.views <= shape.items):
        raise ValueError("need buys <= carts < views <= items")
    rng = np.random.default_rng(seed)
    rank = rng.permutation(shape.items).astype(np.float64)
    log_w = -ZIPF * np.log(rank + 10.0)
    keys = log_w[None, :] + rng.gumbel(size=(shape.users, shape.items))
    top = np.argpartition(-keys, shape.views - 1, axis=1)[:, :shape.views]
    top_keys = np.take_along_axis(keys, top, axis=1)
    viewed = np.take_along_axis(top, np.argsort(-top_keys, axis=1), axis=1)
    carted = viewed[:, :shape.carts]
    bought = carted[:, :shape.buys].copy()
    skip = rng.random(shape.users) < shape.skip_prob
    bought[skip, -1] = viewed[skip, shape.carts]

    def edges(mat):
        users = np.repeat(np.arange(shape.users, dtype=np.int64), mat.shape[1])
        return np.stack([users, mat.reshape(-1).astype(np.int64)], axis=1)

    return {"view": edges(viewed), "cart": edges(carted), "buy": edges(bought)}


def raw_pairs(edges):
    """Edge array -> set of raw ('u<k>', 'i<k>') string pairs, as in the TSV."""
    return {(f"u{u}", f"i{i}") for u, i in edges.tolist()}


def write_tsv(funnel, directory):
    """Write one '<user>\\t<item>' file per behavior; return {behavior: path}."""
    paths = {}
    for name in BEHAVIORS:
        path = os.path.join(directory, f"{name}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"u{u}\ti{i}\n" for u, i in funnel[name].tolist())
        paths[name] = path
    return paths
