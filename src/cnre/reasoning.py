"""Three-path causal reasoning over user behavior chains.

A (user, item) pair's chain observation (one flag per behavior, from
train edges only) is dispatched to exactly one preference strength:

  - Strong: the target flag is set (complete or skip chains) -> direct
    concatenation of target-behavior user/item embeddings.
  - Medium: >= 2 auxiliary flags -> purchase-confidence gate; below the
    threshold, collaborative retrieval feeds a neural conjunction MLP.
  - Weak: exactly 1 auxiliary flag -> semantic (hypergraph) retrieval
    feeds a neural disjunction MLP, no confidence computed.
  - Default: empty chain -> concatenation of the final cascaded
    embeddings (needed to rank never-touched items).

Every path emits a width-2d mediator for the shared prediction head and
a trace recording each step of the dispatch.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from . import retrieval, tensorgrad as tg


class PreferenceStrength(Enum):
    STRONG = "strong"
    MEDIUM = "medium"
    WEAK = "weak"
    DEFAULT = "default"


# ordering used by the counterfactual monotonicity checks
STRENGTH_RANK = {
    PreferenceStrength.DEFAULT: 0,
    PreferenceStrength.WEAK: 1,
    PreferenceStrength.MEDIUM: 2,
    PreferenceStrength.STRONG: 3,
}


@dataclass
class ReasoningTrace:
    """Full record of one dispatch decision and its retrievals."""

    flags: tuple
    path: PreferenceStrength
    threshold: float
    behavior: int | None = None          # chain behavior whose embeddings were used
    confidence: float | None = None      # medium path only
    neighbor_ids: list | None = None     # retrieval paths only
    space: str | None = None             # 'collaborative' | 'semantic'
    mediator: np.ndarray | None = None


def observe_chain(train, u, i):
    """One flag per behavior: 1 iff (u, i) is a train edge of that behavior."""
    return tuple(int(i in train.items_of(b, u).tolist()) for b in range(len(train.spec)))


def dispatch(flags):
    """Total, deterministic truth table over chain observations."""
    if flags[-1]:
        return PreferenceStrength.STRONG
    n_aux = sum(flags[:-1])
    if n_aux >= 2:
        return PreferenceStrength.MEDIUM
    if n_aux == 1:
        return PreferenceStrength.WEAK
    return PreferenceStrength.DEFAULT


def chain_behavior(flags):
    """Highest-ranked set auxiliary behavior (the chain's final behavior)."""
    aux = [k for k, f in enumerate(flags[:-1]) if f]
    return max(aux) if aux else None


def confidence_score(vec_u, vec_i):
    """Purchase confidence: logistic of the user-item dot product."""
    return float(tg._sigmoid(np.array(float(np.dot(np.ravel(vec_u), np.ravel(vec_i))))))


def strong_mediator(e_u_rows, e_i_rows):
    """f_strong is plain concatenation (width 2d)."""
    return tg.concat_cols([e_u_rows, e_i_rows])


def _logic_mlp(x, params, prefix):
    h = tg.relu(tg.add(tg.matmul(x, params[f"{prefix}_w1"]), params[f"{prefix}_b1"]))
    return tg.add(tg.matmul(h, params[f"{prefix}_w2"]), params[f"{prefix}_b2"])


def conjunction_mediator(e_u_rows, e_i_col_rows, s_col_rows, params):
    """Neural conjunction over (e_u ++ e_i_col ++ S_col)."""
    return _logic_mlp(tg.concat_cols([e_u_rows, e_i_col_rows, s_col_rows]), params, "conj")


def disjunction_mediator(e_u_rows, e_i_sem_rows, s_sem_rows, params):
    """Neural disjunction, structurally identical but independent parameters."""
    return _logic_mlp(tg.concat_cols([e_u_rows, e_i_sem_rows, s_sem_rows]), params, "disj")


def _gate_arrays(bundle):
    return {"e_u": bundle.e_u.data, "e_i": bundle.e_i.data}


@dataclass
class GateSnapshot:
    """Frozen user/item embedding arrays for the confidence gate only.

    Confidence scores are evaluated on this snapshot (taken from the same
    cascade the epoch's indices were built from) so that dispatch decisions
    are piecewise constant within an epoch; gradients still flow
    through the live cascade tensors.
    """

    per_behavior: list  # dicts with 'e_u' and 'e_i' arrays

    @classmethod
    def from_cascade(cls, cascade):
        return cls(per_behavior=[{k: v.copy() for k, v in _gate_arrays(b).items()}
                                 for b in cascade.per_behavior])


PATHS = tuple(PreferenceStrength)  # path index -> strength
_MEDIUM = PATHS.index(PreferenceStrength.MEDIUM)
_WEAK = PATHS.index(PreferenceStrength.WEAK)
_CONCAT, _CONJ, _DISJ = 0, 1, 2   # operator codes, in the order groups are stacked


@functools.lru_cache(maxsize=None)
def flag_table(n_behaviors):
    """The flag tuple of every chain code."""
    return tuple(tuple((code >> k) & 1 for k in range(n_behaviors))
                 for code in range(1 << n_behaviors))


@functools.lru_cache(maxsize=None)
def dispatch_table(n_behaviors):
    """(path index into PATHS, behavior) per chain code, from the scalar oracles.

    Strong and default pairs use the target behavior's embeddings; medium
    and weak pairs use their chain behavior's.
    """
    t_idx = n_behaviors - 1
    paths, behaviors = [], []
    for flags in flag_table(n_behaviors):
        path = dispatch(flags)
        paths.append(PATHS.index(path))
        behaviors.append(chain_behavior(flags)
                         if path in (PreferenceStrength.MEDIUM, PreferenceStrength.WEAK)
                         else t_idx)
    return np.array(paths, dtype=np.int64), np.array(behaviors, dtype=np.int64)


def _pooling_matrix(id_lists, n_items):
    """g x N averaging matrix: row p puts 1/len(ids) on each neighbor id."""
    lengths = np.array([len(ids) for ids in id_lists], dtype=np.int64)
    cols = np.fromiter(itertools.chain.from_iterable(id_lists), dtype=np.int64,
                       count=int(lengths.sum()))
    rows = np.repeat(np.arange(len(id_lists)), lengths)
    vals = np.repeat(1.0 / np.maximum(lengths, 1), lengths)
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(id_lists), n_items))


class TraceSequence(Sequence):
    """The ReasoningTrace of each pair in a batch, built on first access.

    Holds plain arrays only (never a tensor), so keeping the sequence does
    not keep the batch's autodiff tape alive.
    """

    _SPACES = {_CONJ: "collaborative", _DISJ: "semantic"}

    def __init__(self, codes, paths, behaviors, confidence, neighbors, kinds,
                 n_behaviors, tau, mediators):
        self._codes = codes
        self._paths = paths
        self._behaviors = behaviors
        self._confidence = confidence  # NaN where no confidence was computed
        self._neighbors = neighbors    # position -> neighbor ids (retrieval pairs)
        self._kinds = kinds
        self._flags = flag_table(n_behaviors)
        self._tau = tau
        self._mediators = mediators    # the batch's mediator array; rows are copied on read
        self._cache = {}

    def __len__(self):
        return self._codes.shape[0]

    def path_labels(self):
        """Path label of every pair, as a numpy string array."""
        return np.array([p.value for p in PATHS])[self._paths]

    def __getitem__(self, k):
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("trace index out of range")
        trace = self._cache.get(k)
        if trace is None:
            trace = self._cache[k] = self._build(k)
        return trace

    def _build(self, k):
        conf = float(self._confidence[k])
        ids = self._neighbors.get(k)
        return ReasoningTrace(
            flags=self._flags[self._codes[k]], path=PATHS[self._paths[k]],
            threshold=self._tau, behavior=int(self._behaviors[k]),
            confidence=None if math.isnan(conf) else conf,
            neighbor_ids=None if ids is None else list(ids),
            space=self._SPACES.get(self._kinds[k]),
            mediator=self._mediators[k].copy())


def reason_batch(users, items, train, cascade, indices, params, tau,
                 n_c=10, disable_rea=False, disable_cnj=False,
                 disable_dsj=False, codes=None, gate=None):
    """Route a batch of (u, i) pairs through the reasoner.

    Returns (mediators, traces) where mediators is an (n x 2d) tensor in
    batch order and traces is a TraceSequence of ReasoningTrace, built
    lazily. When a GateSnapshot is given, confidence scores read it
    instead of the live cascade values; retrieval asks the indices for the
    neighbors of each pair's item.

    Dispatch is a table lookup on each pair's chain code (on code 0 under
    disable_rea); ``codes``, one code or one per pair, replaces the observed
    codes. Pairs are then grouped by (operator, behavior), each group
    keeping batch order, and every group's mediators are computed in one
    batched call.
    """
    gate_arrays = (gate.per_behavior if gate is not None
                   else [_gate_arrays(b) for b in cascade.per_behavior])
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    n = users.shape[0]
    n_b = len(train.spec)

    if codes is None:
        codes = train.chain_codes(users, items)
    else:
        codes = np.broadcast_to(np.asarray(codes, dtype=np.int64), (n,))
    path_table, behavior_table = dispatch_table(n_b)
    routed = np.zeros_like(codes) if disable_rea else codes
    paths = path_table[routed]
    behaviors = behavior_table[routed]

    kinds = np.full(n, _CONCAT, dtype=np.int64)
    confidence = np.full(n, np.nan)
    if not disable_cnj:
        medium = np.flatnonzero(paths == _MEDIUM)
        for b in np.unique(behaviors[medium]):
            pos = medium[behaviors[medium] == b]
            g = gate_arrays[b]
            # stacked vector @ vector products: bitwise equal to confidence_score's np.dot
            dots = np.matmul(g["e_u"][users[pos], None, :], g["e_i"][items[pos], :, None])
            confidence[pos] = tg._sigmoid(dots.reshape(-1))
        kinds[medium[confidence[medium] < tau]] = _CONJ
    if not disable_dsj:
        kinds[paths == _WEAK] = _DISJ

    group_key = kinds * n_b + behaviors
    order = np.argsort(group_key, kind="stable")
    bounds = np.flatnonzero(np.diff(group_key[order])) + 1
    parts, neighbors = [], {}
    for pos in np.split(order, bounds):
        kind, b = int(kinds[pos[0]]), int(behaviors[pos[0]])
        bundle = cascade.per_behavior[b]
        e_u_rows = tg.index_rows(bundle.e_u, users[pos])
        its = items[pos]
        if kind == _CONCAT:
            med = strong_mediator(e_u_rows, tg.index_rows(bundle.e_i, its))
        else:
            space, e_space, mediator_fn = (
                ("col", bundle.e_col_i, conjunction_mediator) if kind == _CONJ
                else ("sem", bundle.e_sem_i, disjunction_mediator))
            hoods = retrieval.neighbors(indices[(b, space)], its, n_c)
            neighbors.update(zip(pos.tolist(), hoods))
            pool = _pooling_matrix(hoods, train.num_items)
            med = mediator_fn(e_u_rows, tg.index_rows(e_space, its), tg.spmm(pool, e_space),
                              params)
        parts.append(med)

    stacked = tg.concat_rows(parts) if len(parts) > 1 else parts[0]
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(n)
    mediators = tg.index_rows(stacked, inv)

    traces = TraceSequence(codes, paths, behaviors, confidence, neighbors, kinds,
                           n_b, tau, mediators.data)
    return mediators, traces


def reason(u, i, train, cascade, indices, params, tau, n_c=10, **flags):
    """Single-pair wrapper around reason_batch."""
    mediators, traces = reason_batch([u], [i], train, cascade, indices, params,
                                     tau, n_c=n_c, **flags)
    return mediators, traces[0]
