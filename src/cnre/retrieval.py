"""Nearest-neighbor retrieval over frozen item embedding snapshots.

Two modes: exact (brute-force linear scan, also the ground truth for
tests) and approximate (a hierarchical navigable small-world proximity
graph). Distances are Euclidean. Queries can exclude the target item's
own row and return a mean-pooled neighborhood vector.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Neighborhood:
    ids: list          # item indices, ascending distance, query item excluded
    pooled: np.ndarray  # 1 x d mean of neighbor rows (zeros if no neighbors)


class _HnswGraph:
    """Navigable small-world layers over the row set."""

    def __init__(self, space, rng, m=16, ef_construction=100):
        self.space = space
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = ef_construction
        self.level_mult = 1.0 / math.log(m)
        self.entry = None
        self.max_level = -1
        self.levels = []
        self.links = []  # per node: list over levels of neighbor id lists
        for node in range(space.shape[0]):
            self._insert(node, rng)

    def _dist(self, q, ids):
        diff = self.space[np.asarray(ids, dtype=np.int64)] - q
        return np.sum(diff * diff, axis=1)

    def _insert(self, node, rng):
        level = int(-math.log(max(rng.random(), 1e-12)) * self.level_mult)
        self.levels.append(level)
        self.links.append([[] for _ in range(level + 1)])
        if self.entry is None:
            self.entry = node
            self.max_level = level
            return
        q = self.space[node]
        ep = self.entry
        for lvl in range(self.max_level, level, -1):
            ep = self._greedy(q, ep, lvl)
        for lvl in range(min(level, self.max_level), -1, -1):
            cands = self._search_layer(q, [ep], lvl, self.ef_construction)
            cap = self.m0 if lvl == 0 else self.m
            chosen = [i for _, i in cands[:cap]]
            self.links[node][lvl] = list(chosen)
            for c in chosen:
                nb = self.links[c][lvl]
                nb.append(node)
                if len(nb) > cap:
                    d = self._dist(self.space[c], nb)
                    keep = np.argsort(d, kind="stable")[:cap]
                    self.links[c][lvl] = [nb[k] for k in keep]
            ep = chosen[0] if chosen else ep
        if level > self.max_level:
            self.max_level = level
            self.entry = node

    def _greedy(self, q, ep, lvl):
        cur = ep
        cur_d = float(self._dist(q, [cur])[0])
        improved = True
        while improved:
            improved = False
            nbrs = self.links[cur][lvl] if lvl < len(self.links[cur]) else []
            if not nbrs:
                break
            d = self._dist(q, nbrs)
            k = int(np.argmin(d))
            if d[k] < cur_d:
                cur, cur_d = nbrs[k], float(d[k])
                improved = True
        return cur

    def _search_layer(self, q, entries, lvl, ef):
        """Best-first expansion; returns (dist, id) ascending."""
        visited = set(entries)
        ed = self._dist(q, entries)
        cand = [(float(d), e) for d, e in zip(ed, entries)]
        heapq.heapify(cand)
        best = sorted(cand)
        while cand:
            d, c = heapq.heappop(cand)
            if d > best[min(len(best), ef) - 1][0] and len(best) >= ef:
                break
            nbrs = [n for n in (self.links[c][lvl] if lvl < len(self.links[c]) else [])
                    if n not in visited]
            if not nbrs:
                continue
            visited.update(nbrs)
            nd = self._dist(q, nbrs)
            bound = best[min(len(best), ef) - 1][0] if len(best) >= ef else math.inf
            for dd, n in zip(nd, nbrs):
                if dd <= bound or len(best) < ef:
                    heapq.heappush(cand, (float(dd), n))
                    best.append((float(dd), n))
            best.sort()
            del best[max(ef, 1):]
        return best

    def search(self, q, k, ef):
        ep = self.entry
        for lvl in range(self.max_level, 0, -1):
            ep = self._greedy(q, ep, lvl)
        found = self._search_layer(q, [ep], 0, max(ef, k))
        return found[:k]


class NNIndex:
    """Frozen snapshot of an embedding space plus a search structure."""

    def __init__(self, space, mode="exact", m=16, ef_construction=100,
                 ef_search=128, seed=0):
        space = np.asarray(space, dtype=np.float64)
        if space.ndim != 2 or space.shape[0] < 1:
            raise ValueError("index space must be a non-empty 2-D array")
        if mode not in ("exact", "approximate"):
            raise ValueError(f"unknown index mode {mode!r}")
        self.space = space.copy()
        self.mode = mode
        self.ef_search = ef_search
        self._graph = None
        self._memo = {}  # (query bytes, n_c, exclude_id) -> Neighborhood
        if mode == "approximate":
            rng = np.random.default_rng(seed)
            self._graph = _HnswGraph(self.space, rng, m=m,
                                     ef_construction=ef_construction)

    @property
    def size(self):
        return self.space.shape[0]


def build_index(space, mode="exact", **kwargs):
    return NNIndex(space, mode=mode, **kwargs)


def query(index, vector, n_c, exclude_id=None):
    """Up to n_c nearest rows by Euclidean distance, self-excluded.

    Results are memoized on the index: its space is a private copy and both
    search modes are deterministic, so a repeated query has one answer.
    """
    if n_c < 1:
        raise ValueError("n_c must be >= 1")
    q = np.asarray(vector, dtype=np.float64).reshape(-1)
    if q.shape[0] != index.space.shape[1]:
        raise ValueError("query width does not match index space")
    key = (q.tobytes(), n_c, exclude_id)
    hood = index._memo.get(key)
    if hood is None:
        hood = _search(index, q, n_c, exclude_id)
        index._memo[key] = hood
    return Neighborhood(ids=list(hood.ids), pooled=hood.pooled.copy())


def _search(index, q, n_c, exclude_id):
    if index.mode == "exact":
        diff = index.space - q
        dist = np.sum(diff * diff, axis=1)
        order = np.lexsort((np.arange(index.size), dist))
        if exclude_id is not None:
            order = order[order != exclude_id]
        ids = order[:n_c].tolist()
    else:
        # over-fetch so the excluded id cannot starve the result
        found = index._graph.search(q, n_c + 1, index.ef_search)
        ids = [i for _, i in found if exclude_id is None or i != exclude_id][:n_c]
    if ids:
        pooled = index.space[ids].mean(axis=0, keepdims=True)
    else:
        pooled = np.zeros((1, index.space.shape[1]))
    return Neighborhood(ids=ids, pooled=pooled)
