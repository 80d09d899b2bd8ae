"""Nearest-neighbor retrieval over frozen item embedding snapshots.

Two modes: exact (brute-force linear scan, also the ground truth for
tests) and approximate (a hierarchical navigable small-world proximity
graph). Distances are Euclidean, ties broken by id. ``query`` searches for
a vector; ``neighbors`` gives items of the index their nearest other rows.

Every distance comes from a vectorized row, ``_sq_dist``: a query
computes its row over all N rows, and inserting a node into the graph
computes its row over the nodes inserted before it, so a build does
O(N·d) numpy work per insert, O(N²·d) flops in total. The rest of a build
is the graph search in Python. It keeps its ef best in a bounded max-heap
(one push or push-pop per accepted neighbor, no sort per expansion) and
marks visited nodes in a stamp list, and a full neighbor list that was
pruned before takes a new link by a sorted insert.

Each row's differences go into one scratch array per index, and each
search stamps one visited list per index, so two threads must not search
one index at once. A space with a NaN or infinite value is rejected.
"""

from __future__ import annotations

import bisect
import heapq
import math

import numpy as np

# HNSW: links per node above layer 0 (twice that at layer 0), and the
# candidate-list widths of insertion and search
HNSW_M = 16
HNSW_EF_CONSTRUCTION = 100
HNSW_EF_SEARCH = 128


def _sq_dist(rows, q, scratch):
    """Squared distance from q to each row; the differences go into scratch.

    scratch is a preallocated array of at least len(rows) rows, so a
    distance row allocates only its result.
    """
    diff = scratch[:rows.shape[0]]
    np.subtract(rows, q, out=diff)
    np.multiply(diff, diff, out=diff)
    return diff.sum(axis=1)


class _HnswGraph:
    """Navigable small-world layers over the row set.

    The searches read distances from a list indexed by node id, one row per
    insert or search, and mark the nodes they visit in a stamp list. During
    the build each link's distance from its owner is kept next to it (the
    same value both ways, as (a-b)² equals (b-a)²). A neighbor list that
    overflows for the first time is sorted by those values, stably, and cut
    to its cap; from then on it stays sorted and full, so each later link is
    a sorted insert that drops the last entry, the same list a stable sort
    would give. A list that was never pruned keeps its append order, which
    ``_greedy`` reads when it breaks distance ties.
    """

    def __init__(self, space, rng):
        self.space = space
        self.level_mult = 1.0 / math.log(HNSW_M)
        self.entry = None
        self.max_level = -1
        self.levels = []
        self.links = []  # per node: list over levels of neighbor id lists
        self._scratch = np.empty_like(space)  # every distance row's differences
        self._seen = [0] * space.shape[0]  # a search visited n when _seen[n] is its stamp
        self._stamp = 0
        link_dist = []  # shaped like links: each link's distance from its owner
        pruned = set()  # (node, level) of the lists kept sorted by distance
        for node in range(space.shape[0]):
            self._insert(node, rng, link_dist, pruned)

    def _insert(self, node, rng, link_dist, pruned):
        level = int(-math.log(max(rng.random(), 1e-12)) * self.level_mult)
        self.levels.append(level)
        self.links.append([[] for _ in range(level + 1)])
        link_dist.append([[] for _ in range(level + 1)])
        if self.entry is None:
            self.entry = node
            self.max_level = level
            return
        dist = _sq_dist(self.space[:node], self.space[node], self._scratch).tolist()
        ep = self.entry
        for lvl in range(self.max_level, level, -1):
            ep = self._greedy(dist, ep, lvl)
        for lvl in range(min(level, self.max_level), -1, -1):
            cap = 2 * HNSW_M if lvl == 0 else HNSW_M
            chosen = self._search_layer(dist, ep, lvl, HNSW_EF_CONSTRUCTION)[:cap]
            self.links[node][lvl] = [c for _, c in chosen]
            link_dist[node][lvl] = [d for d, _ in chosen]
            for d, c in chosen:
                nb, nd = self.links[c][lvl], link_dist[c][lvl]
                if (c, lvl) in pruned:
                    k = bisect.bisect_right(nd, d)
                    if k < cap:
                        nb.insert(k, node)
                        nd.insert(k, d)
                        del nb[cap], nd[cap]
                    continue
                nb.append(node)
                nd.append(d)
                if len(nb) > cap:
                    keep = sorted(range(len(nb)), key=nd.__getitem__)[:cap]
                    self.links[c][lvl] = [nb[k] for k in keep]
                    link_dist[c][lvl] = [nd[k] for k in keep]
                    pruned.add((c, lvl))
            ep = chosen[0][1]
        if level > self.max_level:
            self.max_level = level
            self.entry = node

    def _greedy(self, dist, ep, lvl):
        cur = ep
        cur_d = dist[cur]
        improved = True
        while improved:
            improved = False
            nbrs = self.links[cur][lvl] if lvl < len(self.links[cur]) else []
            if not nbrs:
                break
            ds = [dist[n] for n in nbrs]
            d = min(ds)
            if d < cur_d:
                cur, cur_d = nbrs[ds.index(d)], d
                improved = True
        return cur

    def _search_layer(self, dist, ep, lvl, ef):
        """Best-first expansion from ep; returns (dist, id) ascending.

        The ef best so far are a max-heap of (-dist, -id), so its top is the
        worst of them. An expansion stops the search when its node is
        farther than that worst one, once ef are held; otherwise it takes
        each unvisited neighbor no farther than the worst, read once before
        its neighbor loop (no bound while fewer than ef are held).
        """
        self._stamp += 1
        stamp, seen, links = self._stamp, self._seen, self.links
        push, pop, pushpop = heapq.heappush, heapq.heappop, heapq.heappushpop
        seen[ep] = stamp
        cand = [(dist[ep], ep)]
        best = [(-dist[ep], -ep)]
        full = ef <= 1
        while cand:
            d, c = pop(cand)
            bound = -best[0][0] if full else math.inf
            if d > bound:
                break
            for n in links[c][lvl]:
                if seen[n] != stamp:
                    seen[n] = stamp
                    dn = dist[n]
                    if dn <= bound:
                        push(cand, (dn, n))
                        if full:
                            pushpop(best, (-dn, -n))
                        else:
                            push(best, (-dn, -n))
                            full = len(best) >= ef
        best.sort(reverse=True)
        return [(-d, -n) for d, n in best]

    def search(self, q, k):
        dist = _sq_dist(self.space, q, self._scratch).tolist()
        ep = self.entry
        for lvl in range(self.max_level, 0, -1):
            ep = self._greedy(dist, ep, lvl)
        return self._search_layer(dist, ep, 0, max(HNSW_EF_SEARCH, k))[:k]


class NNIndex:
    """Frozen snapshot of an embedding space plus a search structure."""

    def __init__(self, space, mode="exact", seed=0):
        space = np.asarray(space, dtype=np.float64)
        if space.ndim != 2 or space.shape[0] < 1:
            raise ValueError("index space must be a non-empty 2-D array")
        if not np.isfinite(space).all():
            raise ValueError("index space must be finite")
        if mode not in ("exact", "approximate"):
            raise ValueError(f"unknown index mode {mode!r}")
        self.space = space.copy()
        self.mode = mode
        self._graph = self._scratch = None
        self._neighbors = {}  # (item, n_c) -> tuple of neighbor ids
        if mode == "approximate":
            rng = np.random.default_rng(seed)
            self._graph = _HnswGraph(self.space, rng)
        else:
            self._scratch = np.empty_like(self.space)

    @property
    def size(self):
        return self.space.shape[0]


def build_index(space, mode="exact", seed=0):
    return NNIndex(space, mode=mode, seed=seed)


def query(index, vector, n_c, exclude_id=None):
    """Ids of up to n_c nearest rows to vector, ascending distance, ties by id."""
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    q = np.asarray(vector, dtype=np.float64).reshape(-1)
    if q.shape[0] != index.space.shape[1]:
        raise ValueError("query width does not match index space")
    return _search(index, q, n_c, exclude_id)


def neighbors(index, items, n_c):
    """Per item i, the tuple query(index, index.space[i], n_c, exclude_id=i).

    Searched on first use and memoized on the index by (i, n_c): the space is
    a private copy and both search modes are deterministic.
    """
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    memo = index._neighbors
    out = []
    for i in np.asarray(items, dtype=np.int64).tolist():
        ids = memo.get((i, n_c))
        if ids is None:
            ids = memo[(i, n_c)] = tuple(_search(index, index.space[i], n_c, i))
        out.append(ids)
    return out


def _search(index, q, n_c, exclude_id):
    if index.mode == "approximate":
        # over-fetch so the excluded id cannot starve the result
        found = index._graph.search(q, n_c + 1)
        return [i for _, i in found if exclude_id is None or i != exclude_id][:n_c]
    dist = _sq_dist(index.space, q, index._scratch)
    # rows up to the (n_c+1)-th distance: a prefix of the (distance, id) order
    k = min(n_c + 1, index.size)
    near = np.flatnonzero(dist <= np.partition(dist, k - 1)[k - 1])
    order = near[np.lexsort((near, dist[near]))]
    if exclude_id is not None:
        order = order[order != exclude_id]
    return order[:n_c].tolist()
