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
``route`` and scoring each (operator, behavior) group with one function:
``concat_scores`` for a concatenation, ``logic_scores`` for a conjunction
or disjunction. Each takes the head's and the operator's first layers
split into a user part and an item part; the item parts are tables of
the cascade's items (``ItemTables``), so a pair costs a few width-d
gathers and adds, plus the second operator layer on retrieval pairs. A
retrieval pair's pooled neighbor term is an item table too, filled
lazily per item. Training runs these functions on the tape, one op per
group with a hand-written vjp; inference runs the same functions with no
tape and gets the same bits. The op-by-op composition they replace is
the reference in the tests (``tests/unfused.py``).
"""

from __future__ import annotations

import functools
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


def _pooling_matrix(hoods, n_items):
    """g x N averaging matrix: row p puts 1/k on each id of row p of the g x k hoods.

    Built as CSR with each row's columns sorted, so a product adds a row's
    neighbors in id order. At k = 0 every row is empty.
    """
    g, k = hoods.shape
    return sp.csr_matrix((np.full(g * k, 1.0 / max(k, 1)), np.sort(hoods, axis=1).ravel(),
                          np.arange(g + 1) * k), shape=(g, n_items))


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
    other pair concatenation. Raises IndexError, before any table is read,
    for an id outside the dataset or a code outside [0, 2^B).
    """
    n = users.shape[0]
    if codes is None:
        codes = train.chain_codes(users, items)
    else:
        train.check_ids(users, items)
        codes = np.broadcast_to(np.asarray(codes, dtype=np.int64), (n,))
        n_codes = 1 << len(train.spec)
        if codes.size and (codes.min() < 0 or codes.max() >= n_codes):
            raise IndexError(f"chain code out of range [0, {n_codes})")
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
            # bitwise equal to the np.dot of the tests' oracle, test_reasoning.confidence_score
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
        self._neighbors = neighbors    # row k: pair k's neighbor ids (read for retrieval pairs)
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
        return ReasoningTrace(
            flags=self._flags[r.codes[k]], path=PATHS[r.paths[k]],
            threshold=self._tau, behavior=int(r.behaviors[k]),
            confidence=None if math.isnan(conf) else conf,
            neighbor_ids=None if r.kinds[k] == _CONCAT else self._neighbors[k].tolist(),
            space=self._SPACES.get(r.kinds[k]),
            mediator=np.array(self._mediator(k)))


def reason_batch(users, items, train, cascade, indices, params, tau,
                 n_c=10, disable_rea=False, disable_cnj=False,
                 disable_dsj=False, codes=None, gate=None, tape=True):
    """Route a batch of (u, i) pairs through the reasoner; returns (logits, traces).

    Each pair is dispatched by ``route``; when a GateSnapshot is given,
    confidence scores read it instead of the live cascade values. Pairs are
    then grouped by (operator, behavior), each group keeping batch order,
    and retrieval asks the indices for the neighbors of each retrieval
    group's items. Each group is scored by ``concat_scores`` or
    ``logic_scores``, and its logits are put back in batch order.

    On the tape (training) the logits are an (n x 1) tensor: one op per
    group, and one op that puts the rows in batch order. With ``tape=False``
    (inference) the same functions give the same bits as a plain (n,)
    array, with no tape op. Either way traces is a TraceSequence of
    ReasoningTrace, built lazily.
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
    positions = np.split(order, bounds) if len(order) else []
    parts, neighbors, retrieved = [], None, {}
    for pos in positions:
        kind, b = int(r.kinds[pos[0]]), int(r.behaviors[pos[0]])
        if kind == _CONCAT:
            parts.append(concat_scores(users[pos], items[pos], b, cascade, params, tape))
            continue
        index = indices[(b, _SPACE_KEYS[kind])]
        hoods = retrieval.neighbors(index, items[pos], n_c)
        if neighbors is None:  # every index of a snapshot has the same rows: one width
            neighbors = np.empty((len(items), hoods.shape[1]), dtype=np.int64)
        neighbors[pos] = hoods
        logits, med = logic_scores(users[pos], items[pos], kind, b, cascade, params,
                                   index, hoods, n_c, tape)
        parts.append(logits)
        retrieved.update(zip(pos.tolist(), med))
    tables = item_tables(cascade, params)

    def mediator(k):  # retrieval rows as computed; a concatenation is built on read
        row = retrieved.get(k)
        if row is None:
            b = r.behaviors[k]
            row = np.concatenate([tables.user_rows[b][users[k]], tables.item_rows[b][items[k]]])
        return row
    traces = TraceSequence(r, neighbors, n_b, tau, mediator)

    logits = np.empty((users.shape[0], 1))
    for pos, part in zip(positions, parts):
        logits[pos] = part.data if tape else part
    if not tape:
        return logits[:, 0], traces
    return tg.record(logits, "batch_order", tuple(parts),
                     lambda g: [g[pos] for pos in positions]), traces


def _relu(x):
    """In-place relu that keeps NaN, so the output checks still see it."""
    return np.maximum(x, 0.0, out=x)


class ItemTables:
    """Item tables of one snapshot: a cascade, and the parameters at one version.

    The head's first layer on a concatenation [e_u, e_i] splits into the
    user row e_u @ Wh[:d] + b_h, computed per scored user, and the item
    table e_i @ Wh[d:]. A logic operator's first layer on [e_u, e_space, S]
    splits into the user row e_u @ W1[:d], the item table
    e_space @ W1[d:2d] + b1 and the pooled row P_i @ (e_space @ W1[2d:]),
    where P_i averages item i's neighbor rows (so P_i @ e_space is S). The
    pooled rows depend on the parameters as well as on the index's id table
    (``retrieval.neighbors``): one N x 2d table per (operator, behavior,
    index, n_c), filled an item at a time on first use. A training step
    builds the tables once for its cascade; inference memoizes them per
    snapshot. No table is checked for finiteness: every row a group reads
    reaches the group's output, which is checked.
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

        Row p of the array hoods holds the neighbor ids of items[p] in index.
        Rows not yet filled are computed in one product of their pooling
        matrix with the operator's pool table: a CSR row's product reads
        that row alone, so a row is the same bits whichever batch fills it.
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
            pool = _pooling_matrix(hoods[missing[first]], rows.shape[0])
            rows[new] = pool @ pool_table
            filled[new] = True
        return rows


def item_tables(cascade, params):
    """The snapshot's ItemTables, memoized on the cascade until a parameter write."""
    tables = cascade.memo.get("item_tables")
    if tables is None or tables.params is not params or tables.version != params.version:
        tables = cascade.memo["item_tables"] = ItemTables(cascade, params)
    return tables


_HEAD_SLOTS = ("head_wh", "head_bh", "head_wo", "head_bo")


def _output(data, op, inputs, vjp, tape):
    """A group's output: the tape op ``op``, or with no tape the array, checked under that name."""
    if tape:
        return tg.record(data, op, inputs, vjp)
    tg._check_finite(data, op)
    return data


def _head_vjp(g, hidden, wo):
    """(grad of the head's first layer, of w_o, of b_o), given the relu's output hidden."""
    g_first = g @ wo.T
    g_first *= hidden > 0.0
    return g_first, hidden.T @ g, g.sum(axis=0, keepdims=True)


def _scatter_rows(g_rows, ids, weight, like):
    """The grad of a table whose rows ids fed first-layer rows through weight."""
    g_table = np.zeros_like(like)
    g_table[ids] = g_rows @ weight.T
    return g_table


def concat_scores(users, items, b, cascade, params, tape=True):
    """Head logits (g x 1) of concatenations [e_u[u], e_i[i]] of behavior b's embeddings.

    The first layer of [e_u, e_i] @ W_h + b_h is (e_u[u] @ Wh[:d] + b_h) +
    (e_i @ Wh[d:])[i], summed in that order: the user part is computed
    once per distinct user, and the item part is the ``ItemTables`` row.
    The logits are relu(.) @ w_o + b_o. On the tape this is one op; its
    vjp returns the grads of the behavior's e_u and e_i, each scattered
    once, and of the four head slots.
    """
    tables = item_tables(cascade, params)
    bundle = cascade.per_behavior[b]
    wh, bh, wo, bo = (params[k] for k in _HEAD_SLOTS)
    d = tables.d
    w_user, w_item = wh.data[:d], wh.data[d:]
    user_ids, user_of = np.unique(users, return_inverse=True)
    user_in = tables.user_rows[b][user_ids]
    hidden = (user_in @ w_user + bh.data)[user_of]
    hidden += tables.head_items(b)[items]
    logits = _relu(hidden) @ wo.data + bo.data

    def vjp(g):
        g_first, g_wo, g_bo = _head_vjp(g, hidden, wo.data)
        item_ids, item_of = np.unique(items, return_inverse=True)
        g_users = tg.scatter_add_rows(g_first, user_of, len(user_ids))
        g_items = tg.scatter_add_rows(g_first, item_of, len(item_ids))
        item_in = tables.item_rows[b][item_ids]
        return (_scatter_rows(g_users, user_ids, w_user, tables.user_rows[b]),
                _scatter_rows(g_items, item_ids, w_item, tables.item_rows[b]),
                np.concatenate([user_in.T @ g_users, item_in.T @ g_items]),
                g_first.sum(axis=0, keepdims=True), g_wo, g_bo)
    return _output(logits, "concatenation", (bundle.e_u, bundle.e_i, wh, bh, wo, bo), vjp, tape)


_OPS = {_CONJ: "conjunction", _DISJ: "disjunction"}


def logic_scores(users, items, kind, b, cascade, params, index, hoods, n_c, tape=True):
    """Head logits (g x 1) and mediators (g x 2d) of one logic operator on behavior b.

    The operator's first layer on [e_u, e_space, S] sums the user row
    e_u[u] @ W1[:d], once per distinct user, and the item and pooled rows
    of ``ItemTables``, in that order (row p of the array hoods holds the
    neighbor ids of items[p]). relu(.) @ W2 + b2 is the mediator, and the
    logits are relu(mediator @ W_h + b_h) @ w_o + b_o. On the tape this is
    one op; its vjp returns the grads of the behavior's e_u, of the
    operator's item space (the items' own rows and their neighbors'), and
    of the operator's and the head's four slots.
    """
    tables = item_tables(cascade, params)
    bundle = cascade.per_behavior[b]
    prefix = _PREFIXES[kind]
    space = getattr(bundle, _SPACE_ATTRS[kind])
    w1, b1, w2, b2 = (params[f"{prefix}_{k}"] for k in ("w1", "b1", "w2", "b2"))
    wh, bh, wo, bo = (params[k] for k in _HEAD_SLOTS)
    d = tables.d
    w_user, w_item, w_pool = w1.data[:d], w1.data[d:2 * d], w1.data[2 * d:]
    user_ids, user_of = np.unique(users, return_inverse=True)
    user_in = tables.user_rows[b][user_ids]
    first = (user_in @ w_user)[user_of]
    first += tables.logic_items(kind, b)[0][items]
    first += tables.pooled_rows(kind, b, index, n_c, items, hoods)[items]
    med = _relu(first) @ w2.data + b2.data
    hidden = med @ wh.data + bh.data
    logits = _relu(hidden) @ wo.data + bo.data

    def vjp(g):
        g_hidden, g_wo, g_bo = _head_vjp(g, hidden, wo.data)
        g_med = g_hidden @ wh.data.T
        g_first = g_med @ w2.data.T
        g_first *= first > 0.0
        item_ids, item_first, item_of = np.unique(items, return_index=True, return_inverse=True)
        g_users = tg.scatter_add_rows(g_first, user_of, len(user_ids))
        g_items = tg.scatter_add_rows(g_first, item_of, len(item_ids))
        space_in = space.data[item_ids]
        pool = _pooling_matrix(hoods[item_first], space.data.shape[0])
        g_space = pool.T @ (g_items @ w_pool.T)
        g_space[item_ids] += g_items @ w_item.T
        g_w1 = np.concatenate([user_in.T @ g_users, space_in.T @ g_items,
                               (pool @ space.data).T @ g_items])
        return (_scatter_rows(g_users, user_ids, w_user, tables.user_rows[b]), g_space,
                g_w1, g_first.sum(axis=0, keepdims=True), first.T @ g_med,
                g_med.sum(axis=0, keepdims=True), med.T @ g_hidden,
                g_hidden.sum(axis=0, keepdims=True), g_wo, g_bo)
    out = _output(logits, _OPS[kind], (bundle.e_u, space, w1, b1, w2, b2, wh, bh, wo, bo),
                  vjp, tape)
    return out, med


def reason(u, i, train, cascade, indices, params, tau, n_c=10, **flags):
    """Single-pair wrapper around reason_batch: (1 x 2d mediator tensor, trace)."""
    _, traces = reason_batch([u], [i], train, cascade, indices, params, tau, n_c=n_c,
                             tape=False, **flags)
    return tg.Tensor(traces[0].mediator[None, :]), traces[0]
