"""Nearest-neighbor retrieval over frozen item embedding snapshots.

One search, an exact scan: a query computes its vectorized row of squared
Euclidean distances over all N rows (``_sq_dist``, O(N·d)), and a partial
sort picks the nearest, ties broken by id. ``query`` searches for a
vector; ``neighbors`` gives items of the index their nearest other rows,
from one id table per n_c whose rows are searched on first use.

Each row's differences go into one scratch array per index, so two
threads must not search one index at once. A space with a NaN or
infinite value is rejected.
"""

from __future__ import annotations

import numpy as np


def _sq_dist(rows, q, scratch):
    """Squared distance from q to each row; the differences go into scratch.

    scratch is a preallocated array of at least len(rows) rows, so a
    distance row allocates only its result.
    """
    diff = scratch[:rows.shape[0]]
    np.subtract(rows, q, out=diff)
    np.multiply(diff, diff, out=diff)
    return diff.sum(axis=1)


class NNIndex:
    """Frozen snapshot of an embedding space, searched by an exact scan."""

    def __init__(self, space):
        space = np.asarray(space, dtype=np.float64)
        if space.ndim != 2 or space.shape[0] < 1:
            raise ValueError("index space must be a non-empty 2-D array")
        if not np.isfinite(space).all():
            raise ValueError("index space must be finite")
        self.space = space.copy()
        self._scratch = np.empty_like(self.space)
        self._neighbors = {}  # n_c -> (N x min(n_c, N - 1) neighbor ids, filled mask)

    @property
    def size(self):
        return self.space.shape[0]


def build_index(space, mode="exact", seed=0):
    """An exact index over space, for either mode.

    "approximate" allows an approximate answer but does not require one, so
    it runs the exact scan too; both names are kept because manifests and
    checkpoints store them. ``seed`` is unused: the exact scan draws nothing.
    """
    if mode not in ("exact", "approximate"):
        raise ValueError(f"unknown index mode {mode!r}")
    return NNIndex(space)


def query(index, vector, n_c, exclude_id=None):
    """Ids of up to n_c nearest rows to vector, ascending distance, ties by id."""
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    q = np.asarray(vector, dtype=np.float64).reshape(-1)
    if q.shape[0] != index.space.shape[1]:
        raise ValueError("query width does not match index space")
    return _search(index, q, n_c, exclude_id)


def neighbors(index, items, n_c):
    """Row p is query(index, index.space[items[p]], n_c, exclude_id=items[p]).

    A len(items) x min(n_c, N - 1) int64 array, gathered from the index's id
    table for n_c; an item's row is searched on first use (the space is a
    private copy, the search deterministic). An item outside [0, N) raises
    IndexError before any search.
    """
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    items, n = np.asarray(items, dtype=np.int64), index.size
    if items.size and (items.min() < 0 or items.max() >= n):
        raise IndexError(f"item index out of range [0, {n})")
    if n_c not in index._neighbors:
        index._neighbors[n_c] = np.empty((n, min(n_c, n - 1)), np.int64), np.zeros(n, bool)
    ids, filled = index._neighbors[n_c]
    if not filled[items].all():
        for i in np.unique(items[~filled[items]]).tolist():
            ids[i] = _search(index, index.space[i], n_c, i)
            filled[i] = True
    return ids[items]


def _search(index, q, n_c, exclude_id):
    dist = _sq_dist(index.space, q, index._scratch)
    # rows up to the (n_c+1)-th distance: a prefix of the (distance, id) order
    k = min(n_c + 1, index.size)
    near = np.flatnonzero(dist <= np.partition(dist, k - 1)[k - 1])
    order = near[np.lexsort((near, dist[near]))]
    if exclude_id is not None:
        order = order[order != exclude_id]
    return order[:n_c].tolist()
