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

``reason_batch`` runs this process on a batch, routing pairs with
``route``, in one of two modes. On the tape it records the mediators;
training reads that mode, and it is the reference. With ``tape=False``
(inference) it gives the head's logits with no tape op: the head's and
the logic operators' first layers split into a user part and an item
part, the item parts are per-snapshot tables (``InferenceTables``), and
a pair costs a few width-d gathers and adds, plus the second operator
layer on retrieval pairs. A retrieval pair's pooled neighbor term is an
item table too, filled lazily per item, so no sparse matrix is built for
an item already seen; only the tape builds a pooling matrix per group.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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
_SPACE_KEYS = {_CONJ: "col", _DISJ: "sem"}            # retrieval index per operator
_SPACE_ATTRS = {_CONJ: "e_col_i", _DISJ: "e_sem_i"}   # its item space in a bundle
_PREFIXES = {_CONJ: "conj", _DISJ: "disj"}            # its parameter slots


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
    """g x N averaging matrix: row p puts 1/len(ids) on each neighbor id.

    Built as CSR from its row pointers, then each row's columns are sorted,
    so a product adds a row's neighbors in id order.
    """
    lengths = np.array([len(ids) for ids in id_lists], dtype=np.int64)
    indptr = np.zeros(len(id_lists) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    cols = np.fromiter(itertools.chain.from_iterable(id_lists), dtype=np.int64,
                       count=int(indptr[-1]))
    vals = np.repeat(1.0 / np.maximum(lengths, 1), lengths)
    pool = sp.csr_matrix((vals, cols, indptr), shape=(len(id_lists), n_items))
    pool.sort_indices()
    return pool


class Route(NamedTuple):
    """How each pair of a batch is reasoned about (one entry per pair)."""

    codes: np.ndarray       # chain code seen by the dispatcher
    paths: np.ndarray       # index into PATHS
    behaviors: np.ndarray   # behavior whose embeddings are used
    kinds: np.ndarray       # operator: _CONCAT, _CONJ or _DISJ
    confidence: np.ndarray  # medium-path confidence; NaN where none was computed


def route(users, items, train, gate_arrays, tau, codes=None,
          disable_rea=False, disable_cnj=False, disable_dsj=False):
    """Dispatch a batch of pairs: chain codes, dispatch table, confidence gate, ablations.

    Dispatch is a table lookup on each pair's chain code (on code 0 under
    disable_rea); ``codes``, one code or one per pair, replaces the observed
    codes. Medium pairs whose confidence (read from ``gate_arrays``) is
    below tau take the conjunction, weak pairs the disjunction, and every
    other pair concatenation.
    """
    n = users.shape[0]
    if codes is None:
        codes = train.chain_codes(users, items)
    else:
        codes = np.broadcast_to(np.asarray(codes, dtype=np.int64), (n,))
    path_table, behavior_table = dispatch_table(len(train.spec))
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
    return Route(codes, paths, behaviors, kinds, confidence)


class TraceSequence(Sequence):
    """The ReasoningTrace of each pair in a batch, built on first access.

    Holds plain arrays only (never a tensor), so keeping the sequence does
    not keep the batch's autodiff tape alive.
    """

    _SPACES = {_CONJ: "collaborative", _DISJ: "semantic"}

    def __init__(self, r, neighbors, n_behaviors, tau, mediator):
        self._route = r
        self._neighbors = neighbors    # position -> neighbor ids (retrieval pairs)
        self._flags = flag_table(n_behaviors)
        self._tau = tau
        self._mediator = mediator      # position -> mediator row; rows are copied on read
        self._cache = {}

    def __len__(self):
        return self._route.codes.shape[0]

    def path_labels(self):
        """Path label of every pair, as a numpy string array."""
        return np.array([p.value for p in PATHS])[self._route.paths]

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
        r = self._route
        conf = float(r.confidence[k])
        ids = self._neighbors.get(k)
        return ReasoningTrace(
            flags=self._flags[r.codes[k]], path=PATHS[r.paths[k]],
            threshold=self._tau, behavior=int(r.behaviors[k]),
            confidence=None if math.isnan(conf) else conf,
            neighbor_ids=None if ids is None else list(ids),
            space=self._SPACES.get(r.kinds[k]),
            mediator=np.array(self._mediator(k)))


def reason_batch(users, items, train, cascade, indices, params, tau,
                 n_c=10, disable_rea=False, disable_cnj=False,
                 disable_dsj=False, codes=None, gate=None, tape=True):
    """Route a batch of (u, i) pairs through the reasoner.

    Each pair is dispatched by ``route``; when a GateSnapshot is given,
    confidence scores read it instead of the live cascade values. Pairs are
    then grouped by (operator, behavior), each group keeping batch order,
    and retrieval asks the indices for the neighbors of each retrieval
    group's items.

    On the tape (training, and the reference) returns (mediators, traces):
    the mediators are an (n x 2d) tensor in batch order, each group's
    computed in one batched call. With ``tape=False`` (inference) returns
    (logits, traces): the head's logits as a plain array, computed from the
    snapshot's ``InferenceTables`` with no tape op. Either way traces is a
    TraceSequence of ReasoningTrace, built lazily.
    """
    gate_arrays = (gate.per_behavior if gate is not None
                   else [_gate_arrays(b) for b in cascade.per_behavior])
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    n_b = len(train.spec)
    r = route(users, items, train, gate_arrays, tau, codes=codes, disable_rea=disable_rea,
              disable_cnj=disable_cnj, disable_dsj=disable_dsj)
    group_key = r.kinds * n_b + r.behaviors
    order = np.argsort(group_key, kind="stable")
    bounds = np.flatnonzero(np.diff(group_key[order])) + 1
    groups, neighbors = [], {}
    for pos in np.split(order, bounds) if len(order) else []:
        kind, b = int(r.kinds[pos[0]]), int(r.behaviors[pos[0]])
        index = hoods = None
        if kind != _CONCAT:
            index = indices[(b, _SPACE_KEYS[kind])]
            hoods = retrieval.neighbors(index, items[pos], n_c)
            neighbors.update(zip(pos.tolist(), hoods))
        groups.append((kind, b, pos, index, hoods))

    if not tape:
        logits, mediator = _table_logits(users, items, r, groups, cascade, params, n_c)
        return logits, TraceSequence(r, neighbors, n_b, tau, mediator)
    parts = []
    for kind, b, pos, _, hoods in groups:
        bundle = cascade.per_behavior[b]
        e_u_rows = tg.index_rows(bundle.e_u, users[pos])
        its = items[pos]
        if kind == _CONCAT:
            parts.append(strong_mediator(e_u_rows, tg.index_rows(bundle.e_i, its)))
        else:
            e_space = getattr(bundle, _SPACE_ATTRS[kind])
            mediator_fn = conjunction_mediator if kind == _CONJ else disjunction_mediator
            pool = _pooling_matrix(hoods, train.num_items)
            parts.append(mediator_fn(e_u_rows, tg.index_rows(e_space, its),
                                     tg.spmm(pool, e_space), params))
    if not parts:  # an empty batch
        width = 2 * cascade.per_behavior[0].e_u.data.shape[1]
        mediators = tg.Tensor(np.empty((0, width)))
        return mediators, TraceSequence(r, neighbors, n_b, tau, mediators.data.__getitem__)
    stacked = tg.concat_rows(parts) if len(parts) > 1 else parts[0]
    inv = np.empty(users.shape[0], dtype=np.int64)
    inv[order] = np.arange(users.shape[0])
    mediators = tg.index_rows(stacked, inv)
    return mediators, TraceSequence(r, neighbors, n_b, tau, mediators.data.__getitem__)


def _relu(x):
    """In-place relu that keeps NaN, so the finiteness checks still see it."""
    return np.maximum(x, 0.0, out=x)


class InferenceTables:
    """Item tables of one snapshot: a cascade, and the parameters at one version.

    The head's first layer on a concatenation [e_u, e_i] splits into the
    user row e_u @ Wh[:d] + b_h, computed per scored user, and the item
    table e_i @ Wh[d:]. A logic operator's first layer on [e_u, e_space, S]
    splits into the user row e_u @ W1[:d], the item table
    e_space @ W1[d:2d] + b1 and the pooled row P_i @ (e_space @ W1[2d:]),
    where P_i averages item i's neighbor rows (so P_i @ e_space is S). The
    neighbors are the item's own, so the pooled rows form one N x 2d table
    per (operator, behavior, index, n_c), filled an item at a time on first
    use. Each table, and each block of pooled rows, is checked for
    finiteness once.
    """

    def __init__(self, cascade, params):
        self.params = params
        self.version = params.version
        # plain arrays only: the tables never keep the cascade's tape alive
        self.user_rows = [b.e_u.data for b in cascade.per_behavior]
        self.item_rows = [b.e_i.data for b in cascade.per_behavior]
        self.spaces = {(b, kind): getattr(bundle, attr).data
                       for b, bundle in enumerate(cascade.per_behavior)
                       for kind, attr in _SPACE_ATTRS.items()}
        self.d = self.user_rows[0].shape[1]
        self._tables = {}
        self._pooled = {}  # (kind, b, index, n_c) -> (rows, filled); holds the index itself

    def _table(self, key, build):
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build()
            tg._check_finite(table, f"inference table {key}")
        return table

    def head_items(self, b):
        """e_i @ Wh[d:] for behavior b's items."""
        wh = self.params["head_wh"].data
        return self._table(("head", b), lambda: self.item_rows[b] @ wh[self.d:])

    def logic_items(self, kind, b):
        """(e_space @ W1[d:2d] + b1, e_space @ W1[2d:]) for one operator and behavior."""
        prefix, space, d = _PREFIXES[kind], self.spaces[(b, kind)], self.d
        w1 = self.params[f"{prefix}_w1"].data
        b1 = self.params[f"{prefix}_b1"].data
        return (self._table((prefix, b, "item"), lambda: space @ w1[d:2 * d] + b1),
                self._table((prefix, b, "pool"), lambda: space @ w1[2 * d:]))

    def pooled_rows(self, kind, b, index, n_c, items, hoods):
        """The pooled-row table of one operator, behavior, index and n_c, filled for items.

        hoods[p] holds the neighbor ids of items[p] in index. Rows not yet
        filled are computed in one product of their pooling matrix with the
        operator's pool table: a CSR row's product reads that row alone, so
        a row is the same bits whichever batch fills it.
        """
        pool_table = self.logic_items(kind, b)[1]
        key = (kind, b, index, n_c)
        entry = self._pooled.get(key)
        if entry is None:
            entry = self._pooled[key] = (np.empty(pool_table.shape),
                                         np.zeros(pool_table.shape[0], dtype=bool))
        rows, filled = entry
        missing = np.flatnonzero(~filled[items])
        if missing.size:
            new, first = np.unique(items[missing], return_index=True)
            pool = _pooling_matrix([hoods[k] for k in missing[first].tolist()], rows.shape[0])
            block = pool @ pool_table
            tg._check_finite(block, f"inference pooled rows {(_PREFIXES[kind], b)}")
            rows[new] = block
            filled[new] = True
        return rows


def inference_tables(cascade, params):
    """The snapshot's InferenceTables, memoized on the cascade until a parameter write."""
    tables = cascade.memo.get("inference")
    if tables is None or tables.params is not params or tables.version != params.version:
        tables = cascade.memo["inference"] = InferenceTables(cascade, params)
    return tables


def _user_rows(rows, users, weight, where):
    """rows[users] @ weight, computed once per distinct user and checked once."""
    uniq, inv = np.unique(users, return_inverse=True)
    out = rows[uniq] @ weight
    tg._check_finite(out, where)
    return out, inv


def split_head(rows, inv, item_rows, items, params, where=None):
    """The concatenation head in split-first-layer form: (n x 1 logits, hidden layer).

    The first layer of [e_u, e_i] @ W_h + b_h is (rows + b_h)[inv] +
    item_rows[items], summed in that order: rows holds e_u @ Wh[:d] once
    per distinct user and inv maps each pair to its row, and item_rows
    holds e_i @ Wh[d:]. The logits are relu(.) @ w_o + b_o, and the hidden
    layer is the relu's output. When ``where`` is given, the first layer
    is checked for finiteness before the relu, under that name.
    """
    bh, wo, bo = (params[f"head_{k}"].data for k in ("bh", "wo", "bo"))
    hidden = (rows + bh)[inv]
    hidden += item_rows[items]
    if where is not None:
        tg._check_finite(hidden, where)
    return _relu(hidden) @ wo + bo, hidden


def _table_logits(users, items, r, groups, cascade, params, n_c):
    """The head's logits of routed groups, from the tables: (logits, mediator of a position).

    A concatenation pair's logit is ``split_head`` of one head row per
    distinct user of the group and the behavior's item table. A retrieval
    pair's first layer sums its user row, item table row and pooled row, in
    that order; relu(.) @ W2 + b2 is its mediator, which goes through the
    head. The user rows, the retrieval mediators and the logits are checked
    for finiteness once.
    """
    tables = inference_tables(cascade, params)
    d = tables.d
    wh, bh, wo, bo = (params[f"head_{k}"].data for k in ("wh", "bh", "wo", "bo"))
    logits = np.empty(users.shape[0])
    retrieved = {}
    for kind, b, pos, index, hoods in groups:
        its = items[pos]
        if kind == _CONCAT:
            rows, inv = _user_rows(tables.user_rows[b], users[pos], wh[:d], "head user rows")
            logits[pos] = split_head(rows, inv, tables.head_items(b), its, params)[0][:, 0]
        else:
            prefix = _PREFIXES[kind]
            item_table = tables.logic_items(kind, b)[0]
            rows, inv = _user_rows(tables.user_rows[b], users[pos],
                                   params[f"{prefix}_w1"].data[:d], f"{prefix} user rows")
            first = rows[inv]
            first += item_table[its]
            first += tables.pooled_rows(kind, b, index, n_c, its, hoods)[its]
            med = _relu(first) @ params[f"{prefix}_w2"].data + params[f"{prefix}_b2"].data
            tg._check_finite(med, f"{prefix} mediators")
            retrieved.update(zip(pos.tolist(), med))
            logits[pos] = (_relu(med @ wh + bh) @ wo)[:, 0] + bo[0, 0]
    tg._check_finite(logits, "logits")

    def mediator(k):  # retrieval rows as computed; a concatenation is built on read
        row = retrieved.get(k)
        if row is None:
            b = r.behaviors[k]
            row = np.concatenate([tables.user_rows[b][users[k]], tables.item_rows[b][items[k]]])
        return row
    return logits, mediator


def reason(u, i, train, cascade, indices, params, tau, n_c=10, **flags):
    """Single-pair wrapper around reason_batch."""
    mediators, traces = reason_batch([u], [i], train, cascade, indices, params,
                                     tau, n_c=n_c, **flags)
    return mediators, traces[0]
