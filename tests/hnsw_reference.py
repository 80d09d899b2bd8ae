"""The HNSW graph as it was built before distances came from whole rows.

This is the reference ``cnre.retrieval._HnswGraph`` is checked against:
every distance is its own fancy-indexed ``_dist`` call, and pruning an
overflowing neighbor list computes the owner's distances again. The
class is kept as it was, with the module constants it reads.
"""

import heapq
import math

import numpy as np

from cnre.retrieval import HNSW_EF_CONSTRUCTION, HNSW_EF_SEARCH, HNSW_M


class _HnswGraph:
    """Navigable small-world layers over the row set."""

    def __init__(self, space, rng):
        self.space = space
        self.level_mult = 1.0 / math.log(HNSW_M)
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
            cands = self._search_layer(q, [ep], lvl, HNSW_EF_CONSTRUCTION)
            cap = 2 * HNSW_M if lvl == 0 else HNSW_M
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

    def search(self, q, k):
        ep = self.entry
        for lvl in range(self.max_level, 0, -1):
            ep = self._greedy(q, ep, lvl)
        found = self._search_layer(q, [ep], 0, max(HNSW_EF_SEARCH, k))
        return found[:k]



def query(graph, vector, n_c, exclude_id=None):
    """The approximate-mode ``retrieval.query`` over a reference graph."""
    found = graph.search(np.asarray(vector, dtype=np.float64), n_c + 1)
    return [i for _, i in found if exclude_id is None or i != exclude_id][:n_c]
