"""Nearest-neighbor retrieval over frozen item embedding snapshots.

One search, exact, over a float64 copy of a space taken once by
``build_index``. ``query`` searches for a vector; ``neighbors`` gives items
of the index their nearest other rows, from one id table per n_c, filled
whole by one search of all N rows the first time that n_c is asked. A
reader that touches a few items of a fresh index (a one-shot ``cnre
explain``) still pays that O(N²·d) search: about 5 ms at N = 500 and
17 ms at N = 1000 on one core. A batch that touches many items (an
``evaluate``, a ``fit`` epoch) pays it once, in one search's numpy calls.

The search (``_nearest``) takes a block of query rows at a time:

1. Approximate squared distances ‖c‖² + ‖q‖² − 2c·q from one BLAS
   product, on a copy of the space centred once at build, so the norms
   stay small. A block is B ≈ 2^18 / N rows, so its B × N temporaries
   stay about 2 MiB and the cost is O(B·N·d) per block.
2. Candidates: every row whose approximate distance is within twice
   ``_gap`` of the (n_c+1)-th smallest approximate one. ``_gap`` bounds
   the rounding gap between an approximate distance and the exact one
   below, for any summation order, so no row whose exact distance is at
   most the (n_c+1)-th smallest is dropped (ties and near-ties are kept
   too: ~11 rows a query at n_c 10).
3. Exact distances of the candidates only, ``(row − q)²`` summed along
   axis 1, the per-row formula of a full scan bit for bit.
4. The order (distance, id), so ties break by id as in a full scan.

So the ids are those of a full exact scan, ties included. An index must
not be searched by two threads at once (its id tables are filled on first
use). A space or a query with a NaN or infinite value is rejected.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 1 << 18  # elements of one block temporary: 2 MiB of float64


def _gap(d, radius, q_norms):
    """Bound on |approximate − exact| squared distance, per query row, at width d.

    radius is the largest centred row norm and q_norms the query rows'
    squared centred norms; with S = radius + ‖q‖, each side is within
    (d + 4)·u·S² of the real distance (u the unit roundoff: d products and
    sums, the centring and the final adds), so the gap is at most
    (2d + 8)·u·S². The factor doubles that for the rounding of the norms
    the bound itself reads, and twice the smallest normal number covers
    the absolute error of products that underflow.
    """
    f = np.finfo(np.float64)
    return 4 * (d + 8) * (f.eps / 2) * ((radius + np.sqrt(q_norms)) ** 2 + 2 * f.tiny)


class NNIndex:
    """Frozen snapshot of an embedding space, searched exactly."""

    def __init__(self, space):
        space = np.array(space, dtype=np.float64)  # a private copy
        if space.ndim != 2 or space.shape[0] < 1:
            raise ValueError("index space must be a non-empty 2-D array")
        if not np.isfinite(space).all():
            raise ValueError("index space must be finite")
        self.space = space
        self.mean = space.mean(axis=0)
        self.centred = space - self.mean
        self.norms = np.einsum("ij,ij->i", self.centred, self.centred)
        self.radius = np.sqrt(self.norms.max())
        self._neighbors = {}  # n_c -> N x min(n_c, N - 1) neighbor ids

    @property
    def size(self):
        return self.space.shape[0]


def build_index(space):
    """An index over a private copy of space."""
    return NNIndex(space)


def query(index, vector, n_c, exclude_id=None):
    """Ids of up to n_c nearest rows to vector, ascending distance, ties by id.

    exclude_id, if given, is an id of the index (an int in [0, N)) left out
    of the result.
    """
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    q = np.asarray(vector, dtype=np.float64).reshape(-1)
    if q.shape[0] != index.space.shape[1]:
        raise ValueError("query width does not match index space")
    if not np.isfinite(q).all():
        raise ValueError("query vector must be finite")
    if exclude_id is None:
        return _nearest(index, q[None, :], n_c)[0].tolist()
    if isinstance(exclude_id, bool) or not isinstance(exclude_id, (int, np.integer)):
        raise ValueError(f"exclude_id must be an integer id, not {exclude_id!r}")
    if not 0 <= exclude_id < index.size:
        raise IndexError(f"exclude_id out of range [0, {index.size})")
    return _nearest(index, q[None, :], n_c, np.array([exclude_id]))[0].tolist()


def neighbors(index, items, n_c):
    """Row p is query(index, index.space[items[p]], n_c, exclude_id=items[p]).

    A len(items) x min(n_c, N - 1) int64 array, gathered from the index's id
    table for n_c. The first call at an n_c fills that table whole, in one
    search of all N rows (the space is a private copy, the search
    deterministic), so every later call is a gather. Items that are not
    integers raise ValueError, and an item outside [0, N) IndexError, before
    any search.
    """
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    items, n = np.asarray(items), index.size
    if items.size and items.dtype.kind not in "iu":
        raise ValueError(f"items must be integer ids, not {items.dtype}")
    items = items.astype(np.int64)
    if items.size and (items.min() < 0 or items.max() >= n):
        raise IndexError(f"item index out of range [0, {n})")
    ids = index._neighbors.get(n_c)
    if ids is None:
        ids = index._neighbors[n_c] = _nearest(index, index.space, n_c, np.arange(n))
    return ids[items]


def _nearest(index, queries, n_c, exclude=None):
    """Ids of the nearest rows to each query row, ascending (distance, id).

    queries is B x d float64; exclude, if given, holds one id per query row
    to leave out. Returns B x min(n_c, N) ids, or B x min(n_c, N - 1) with
    exclude.
    """
    n, d = index.space.shape
    k = min(n_c + 1, n)  # rows up to the k-th distance: a prefix of the (distance, id) order
    width = min(n_c, n - (exclude is not None))
    out = np.empty((queries.shape[0], width), np.int64)
    step, chunk = max(1, _BLOCK // n), max(1, _BLOCK // d)
    for s in range(0, queries.shape[0], step):
        q = queries[s:s + step]
        qc = q - index.mean
        q_norms = np.einsum("ij,ij->i", qc, qc)
        approx = qc @ index.centred.T
        approx *= -2.0
        approx += index.norms
        approx += q_norms[:, None]
        bound = np.partition(approx, k - 1, axis=1)[:, k - 1]
        bound += 2 * _gap(d, index.radius, q_norms)
        rows, cols = np.nonzero(~(approx > bound[:, None]))  # a NaN keeps its row
        dist = np.empty(rows.shape[0])
        for a in range(0, rows.shape[0], chunk):
            diff = index.space[cols[a:a + chunk]] - q[rows[a:a + chunk]]
            np.multiply(diff, diff, out=diff)
            dist[a:a + chunk] = diff.sum(axis=1)
        if exclude is not None:
            keep = cols != exclude[s:s + step][rows]
            rows, cols, dist = rows[keep], cols[keep], dist[keep]
        order = np.lexsort((cols, dist, rows))
        rows, cols = rows[order], cols[order]
        rank = np.arange(rows.shape[0]) - np.searchsorted(rows, rows)
        out[s:s + step] = cols[rank < width].reshape(q.shape[0], width)
    return out
