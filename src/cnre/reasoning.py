"""Three-path causal reasoning over user behavior chains.

A (user, item) pair's chain observation (one flag per behavior, from
train edges only) is dispatched to exactly one preference strength:

  - Strong: the target flag is set (complete or skip chains) -> direct
    concatenation of target-behavior user/item embeddings.
  - Medium: >= 2 auxiliary flags -> purchase-confidence gate, read from
    the cascade the retrieval indices were built from (``GateSnapshot``);
    below the threshold, collaborative retrieval feeds a neural conjunction MLP.
  - Weak: exactly 1 auxiliary flag -> semantic (hypergraph) retrieval
    feeds a neural disjunction MLP, no confidence computed.
  - Default: empty chain -> concatenation of the first behavior's
    embeddings (needed to rank never-touched items).

Every path emits a width-2d mediator for the shared prediction head and
a trace of each step of the dispatch, read off the pair's route. Each
logic operator is one row of ``OPERATORS``, and each chain code one
column of the one cached ``routing_table``: its path, behavior and
operator. ``route`` reads it per pair, and ``index_keys`` reads off it
the retrieval indices a snapshot needs: at B behaviors, the disjunction's
on behaviors 0 ... B-2 (weak pairs) and the conjunction's on 1 ... B-2
(medium pairs, whose chain behavior is the highest of >= 2 set flags).

``reason_batch`` runs this process on a batch, routing pairs with
``route`` and scoring each (operator, behavior) group with one function:
``concat_scores`` for a concatenation, ``logic_scores`` for a conjunction
or disjunction. Each takes the head's and the operator's first layers
split into a user part and an item part; the item parts are tables of
the cascade's items (``ItemTables``), so a pair costs a few width-d
gathers and adds, plus the second operator layer on retrieval pairs. A
retrieval pair's pooled neighbor term is an item table too, computed
whole on first use; a snapshot keeps all its tables in one memo. Each
function is one op with a hand-written vjp, and the cascade's slots
decide whether it records a tape: a training step's slots require grad,
a bare cascade's no-grad view of the store does not, and on the same
values both give the same bits. They read their slots where the cascade
keeps the ones it was computed from, ``cascade.params``, so cascade and
slots share one dtype: a training step's float32 casts
(``tensorgrad.SlotCasts``), or the float64 store's values. The op-by-op
composition they replace is the reference in the tests
(``tests/unfused.py``).
"""

from __future__ import annotations

import functools
import math
import operator
import types
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
    """Full record of one dispatch decision and its retrievals, read off its route."""

    flags: tuple
    path: PreferenceStrength
    threshold: float
    behavior: int | None = None          # chain behavior whose embeddings were used
    confidence: float | None = None      # medium path only
    neighbor_ids: list | None = None     # retrieval paths only
    space: str | None = None             # the retrieval operator's Operator.space
    mediator: np.ndarray | None = None
    operator: str = "concatenation"      # the scoring operator's Operator.explanation


def observe_chain(train, u, i):
    """One flag per behavior: 1 iff (u, i) is a train edge of that behavior."""
    return tuple(int(i in train.items_of(b, u).tolist()) for b in range(len(train.spec)))


def chain_flags(code, n_behaviors):
    """The flags of a chain code: flag k is bit k."""
    return tuple((code >> k) & 1 for k in range(n_behaviors))


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


@dataclass
class GateSnapshot:
    """Frozen user/item embedding arrays for the confidence gate only.

    ``CnreModel.build_indices`` takes one from the cascade it builds the
    retrieval indices from and keeps it with them, as ``indices["gate"]``.
    So within an epoch dispatch decisions are piecewise constant, while
    gradients still flow through the live cascade tensors.
    """

    per_behavior: list  # dicts with 'e_u' and 'e_i' arrays

    @classmethod
    def from_cascade(cls, cascade):
        """Read-only views of each behavior's e_u and e_i: no op writes a cascade array."""
        per_behavior = [{"e_u": b.e_u.data.view(), "e_i": b.e_i.data.view()}
                        for b in cascade.per_behavior]
        for arrays in per_behavior:
            for view in arrays.values():
                view.flags.writeable = False
        return cls(per_behavior=per_behavior)


PATHS = tuple(PreferenceStrength)  # path index -> strength
PATH_LABELS = np.array([p.value for p in PATHS])  # path index -> label
_MEDIUM = PATHS.index(PreferenceStrength.MEDIUM)
_WEAK = PATHS.index(PreferenceStrength.WEAK)
_CONCAT, _CONJ, _DISJ = 0, 1, 2   # operator codes, in the order groups are stacked


class Operator(NamedTuple):
    """What the reasoner, the model and the explanations read of one logic operator."""

    name: str         # group (tape) op name
    path: int         # index into PATHS of the pairs it scores
    index_key: str    # its retrieval indices' key, beside the behavior
    item_space: str   # its item space: a bundle attribute
    prefix: str       # prefix of its four parameter slots
    space: str        # ReasoningTrace.space of its pairs
    explanation: str  # its name in an explanation record


# operator code -> Operator, conjunction first (the order its slots are made in)
OPERATORS = {_CONJ: Operator("conjunction", _MEDIUM, "col", "e_col_i", "conj", "collaborative",
                             "neural_conjunction"),
             _DISJ: Operator("disjunction", _WEAK, "sem", "e_sem_i", "disj", "semantic",
                             "neural_disjunction")}


@functools.lru_cache(maxsize=None)
def routing_table(n_behaviors, disable_rea, disable_cnj, disable_dsj):
    """Rows (path, behavior, operator) per chain code, before the confidence gate.

    A code's path is ``dispatch``'s on its flags (``chain_flags``), and its
    behavior its highest set flag's, behavior 0 for the empty chain: strong
    pairs read the target behavior's embeddings, medium and weak pairs
    their chain behavior's, default pairs the first behavior's. So at two
    or more behaviors, default pairs (most of training's negatives, and
    evaluation's untouched candidates) do not read the embeddings of strong
    pairs (training's positives). A logic operator is on the codes of its
    ``OPERATORS`` path (the conjunction on medium codes, the disjunction on
    weak ones), concatenation on the rest and where the operator is
    disabled. Under disable_rea every code takes code 0's.
    """
    codes = range(1 << n_behaviors)
    paths = [PATHS.index(dispatch(chain_flags(code, n_behaviors))) for code in codes]
    kinds = {OPERATORS[kind].path: kind
             for kind, disabled in ((_CONJ, disable_cnj), (_DISJ, disable_dsj)) if not disabled}
    table = np.array([paths, [max(code.bit_length() - 1, 0) for code in codes],
                      [kinds.get(path, _CONCAT) for path in paths]], dtype=np.int64)
    if disable_rea:
        table[:] = table[:, :1]
    table.flags.writeable = False  # cached: every caller shares it
    return table


@functools.lru_cache(maxsize=None)
def index_keys(n_behaviors):
    """Read-only {(behavior, index key): operator code} of every index ``route`` can
    read: the routing table's (operator, behavior) pairs of retrieval operators."""
    _, behaviors, kinds = routing_table(n_behaviors, False, False, False)
    return types.MappingProxyType(dict(sorted(
        ((b, OPERATORS[kind].index_key), kind)
        for kind, b in set(zip(kinds.tolist(), behaviors.tolist())) if kind != _CONCAT)))


def _pooling_matrix(hoods, n_items, dtype):
    """g x N averaging matrix of dtype: row p puts 1/k on each id of row p of the g x k hoods.

    Built as CSR with each row's columns sorted, so a product adds a row's
    neighbors in id order. At k = 0 every row is empty.
    """
    g, k = hoods.shape
    return sp.csr_matrix((np.full(g * k, 1.0 / max(k, 1), dtype=dtype),
                          np.sort(hoods, axis=1).ravel(),
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
    """Dispatch a batch of pairs: chain codes, routing table, confidence gate, ablations.

    Dispatch is one gather of ``routing_table``, the one per-code table, at
    each pair's chain code (code 0's column under disable_rea); ``codes``,
    one code or one per pair, replaces the observed codes. Medium pairs
    whose confidence (read from ``gate_arrays``, per conjunction key of
    ``index_keys``) is below tau take the conjunction, weak pairs the
    disjunction, and every other pair concatenation. Raises IndexError,
    before any table is read, for an id outside the dataset or a code
    outside [0, 2^B).
    """
    n, n_b = users.shape[0], len(train.spec)
    if codes is None:
        codes = train.chain_codes(users, items)
    else:
        train.check_ids(users, items)
        codes = np.broadcast_to(np.asarray(codes, dtype=np.int64), (n,))
        if codes.size and (codes.min() < 0 or codes.max() >= 1 << n_b):
            raise IndexError(f"chain code out of range [0, {1 << n_b})")
    table = routing_table(n_b, disable_rea, disable_cnj, disable_dsj)
    paths, behaviors, kinds = table.take(codes, axis=1)
    confidence = np.full(n, np.nan)
    medium = np.flatnonzero(kinds == _CONJ)  # the gated pairs
    if medium.size:
        for b in (b for (b, _), kind in index_keys(n_b).items() if kind == _CONJ):
            pos = medium[behaviors[medium] == b]
            g = gate_arrays[b]
            # bitwise equal to the np.dot of the tests' oracle, test_reasoning.confidence_score
            dots = np.matmul(g["e_u"][users[pos], None, :], g["e_i"][items[pos], :, None])
            confidence[pos] = tg._sigmoid(dots.reshape(-1))
        kinds[medium] = np.where(confidence[medium] < tau, _CONJ, _CONCAT)
    return Route(codes, paths, behaviors, kinds, confidence)


class TraceSequence(Sequence):
    """The ReasoningTrace of each pair in a batch, read off its route each time it is read.

    Flags are the chain code's bits (``chain_flags``); path, behavior and
    confidence the route's; the operator's names its ``OPERATORS`` row, or
    concatenation's. A retrieval pair's neighbor ids are its item's row of
    its index's id table (``retrieval.neighbors``), its mediator its row of
    its group's ``logic_scores`` mediators; a concatenation mediator is
    gathered from the snapshot's ``ItemTables``. Holds plain arrays and
    indices only (never a tensor), so keeping the sequence does not keep
    the batch's autodiff tape alive.
    """

    def __init__(self, r, users, items, tables, groups, n_behaviors, tau, n_c):
        self._route, self._users, self._items, self._tables = r, users, items, tables
        self._groups = groups  # group key -> (ascending batch positions, index, mediators)
        self._n_b, self._tau, self._n_c = n_behaviors, tau, n_c

    def __len__(self):
        return self._route.codes.shape[0]

    def path_labels(self):
        """Path label of every pair, as a numpy string array."""
        return PATH_LABELS[self._route.paths]

    def __getitem__(self, k):
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("trace index out of range")
        r, tables, item = self._route, self._tables, self._items[k]
        conf, kind, b = float(r.confidence[k]), int(r.kinds[k]), int(r.behaviors[k])
        op = OPERATORS.get(kind)
        if op is None:  # a concatenation mediator is built on read
            neighbor_ids, mediator = None, np.concatenate(
                [tables.user_rows[b][self._users[k]], tables.item_rows[b][item]])
        else:  # pair k's row of its index's id table and of its group's mediators, copied
            pos, index, med = self._groups[kind * self._n_b + b]
            neighbor_ids = retrieval.neighbors(index, [item], self._n_c)[0].tolist()
            mediator = np.array(med[np.searchsorted(pos, k)])
        return ReasoningTrace(
            flags=chain_flags(int(r.codes[k]), self._n_b), path=PATHS[r.paths[k]],
            threshold=self._tau, behavior=b,
            confidence=None if math.isnan(conf) else conf,
            neighbor_ids=neighbor_ids, space=None if op is None else op.space,
            mediator=mediator, operator="concatenation" if op is None else op.explanation)


def reason_batch(users, items, train, cascade, indices, tau, n_c=10, disable_rea=False,
                 disable_cnj=False, disable_dsj=False, codes=None):
    """Route a batch of (u, i) pairs through the reasoner; returns (logits, traces).

    Each pair is dispatched by ``route``, whose confidence scores read the
    gate kept in indices (``CnreModel.build_indices``). Pairs are then
    grouped by (operator, behavior), each group keeping batch order, and
    each retrieval group reads its operator's index on its behavior. Each
    group is scored by ``concat_scores`` or ``logic_scores``, and its
    logits are put back in batch order.

    The logits are an (n x 1) tensor: one op per group, and one op that
    puts the rows in batch order. The cascade's slots decide whether they
    record a tape: those of the store or of its ``tg.SlotCasts`` do
    (training), those of a bare cascade's ``tg.SlotView`` do not
    (inference), and on the same values both give the same bits. traces is
    a TraceSequence of ReasoningTrace, each read off the route when read.
    """
    users, items = np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64)
    n_b = len(train.spec)
    r = route(users, items, train, indices["gate"].per_behavior, tau, codes=codes,
              disable_rea=disable_rea, disable_cnj=disable_cnj, disable_dsj=disable_dsj)
    group_key = r.kinds * n_b + r.behaviors
    order = np.argsort(group_key, kind="stable")
    ends = np.cumsum(np.bincount(group_key)).tolist()  # group key -> end of its slice of order
    groups, parts = {}, []  # group key -> (positions, index, mediators); its logits
    for key, (start, end) in enumerate(zip([0] + ends, ends)):
        if end == start:
            continue
        pos, index, med = order[start:end], None, None
        kind, b = divmod(key, n_b)
        if kind == _CONCAT:
            part = concat_scores(users[pos], items[pos], b, cascade)
        else:
            index = indices[(b, OPERATORS[kind].index_key)]
            part, med = logic_scores(users[pos], items[pos], kind, b, cascade, index, n_c)
        parts.append(part)
        groups[key] = pos, index, med
    traces = TraceSequence(r, users, items, item_tables(cascade), groups, n_b, tau, n_c)

    logits = np.empty((users.shape[0], 1), dtype=parts[0].data.dtype if parts else np.float64)
    for (pos, _, _), part in zip(groups.values(), parts):
        logits[pos] = part.data
    return tg.record(logits, "batch_order", tuple(parts),
                     lambda g: [g[pos] for pos, _, _ in groups.values()]), traces


def _relu(x):
    """In-place relu that keeps NaN, so the output checks still see it."""
    return np.maximum(x, 0.0, out=x)


class ItemTables:
    """Item tables of one snapshot: a cascade, and its slots at one version.

    The head's first layer on a concatenation [e_u, e_i] splits into the
    user row e_u @ Wh[:d] + b_h, computed per scored user, and the item
    table e_i @ Wh[d:]. A logic operator's first layer on [e_u, e_space, S]
    splits into the user row e_u @ W1[:d], the item table
    e_space @ W1[d:2d] + b1 and the pooled row P_i @ (e_space @ W1[2d:]),
    where P_i averages item i's neighbor rows (so P_i @ e_space is S). The
    pooled rows depend on the parameters as well as on the index's id table
    (``retrieval.neighbors``): one N x 2d table per (operator, behavior,
    index, n_c), computed whole on first use. All tables share one memo:
    a training step builds them once for its cascade, inference once per
    snapshot. No table is checked for finiteness: every row a group reads
    reaches the group's output, which is checked.
    """

    def __init__(self, cascade):
        self.params = cascade.params
        self.version = self.params.version
        # plain arrays only: the tables never keep the cascade's tape alive
        self.user_rows = [b.e_u.data for b in cascade.per_behavior]
        self.item_rows = [b.e_i.data for b in cascade.per_behavior]
        self.spaces = {(b, kind): getattr(bundle, op.item_space).data
                       for b, bundle in enumerate(cascade.per_behavior)
                       for kind, op in OPERATORS.items()}
        self.d = self.user_rows[0].shape[1]
        self._tables = {}  # a pooled-row key holds its index itself

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
        """e_space @ W1[d:2d] + b1 for one operator and behavior."""
        prefix, space, d = OPERATORS[kind].prefix, self.spaces[(b, kind)], self.d
        w1, b1 = (self.params[f"{prefix}_{k}"].data for k in ("w1", "b1"))
        return self._table(("item", kind, b), lambda: space @ w1[d:2 * d] + b1)

    def pooled_rows(self, kind, b, index, n_c):
        """The pooled-row table of one operator, behavior, index and n_c.

        Row i pools item i's neighbors in the index's id table for n_c
        (``retrieval.neighbors``, read first: its fill's search peaks in
        memory). The table is computed whole on first use, in one product of
        that id table's pooling matrix with the pool table e_space @ W1[2d:],
        which is computed then and not kept. A CSR row's product reads that
        row alone, so each row holds the bits of its own row's product.
        """
        def build():
            hoods = retrieval.neighbors(index, np.arange(index.size), n_c)
            w1 = self.params[f"{OPERATORS[kind].prefix}_w1"].data
            pool_table = self.spaces[(b, kind)] @ w1[2 * self.d:]
            return _pooling_matrix(hoods, index.size, pool_table.dtype) @ pool_table
        return self._table(("pooled", kind, b, index, n_c), build)


def item_tables(cascade):
    """The snapshot's ItemTables, memoized on the cascade until a write to its slots."""
    tables = cascade.memo.get("item_tables")
    if tables is None or tables.version != cascade.params.version:
        tables = cascade.memo["item_tables"] = ItemTables(cascade)
    return tables


_HEAD_SLOTS = ("head_wh", "head_bh", "head_wo", "head_bo")


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


def concat_scores(users, items, b, cascade):
    """Head logits (g x 1) of concatenations [e_u[u], e_i[i]] of behavior b's embeddings.

    The first layer of [e_u, e_i] @ W_h + b_h is (e_u[u] @ Wh[:d] + b_h) +
    (e_i @ Wh[d:])[i], summed in that order: the user part is computed
    once per distinct user, and the item part is the ``ItemTables`` row.
    The logits are relu(.) @ w_o + b_o, as one op (a tensor); its
    vjp returns the grads of the behavior's e_u and e_i, each scattered
    once, and of the four head slots.
    """
    tables = item_tables(cascade)
    bundle = cascade.per_behavior[b]
    wh, bh, wo, bo = (cascade.params[k] for k in _HEAD_SLOTS)
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
    return tg.record(logits, "concatenation", (bundle.e_u, bundle.e_i, wh, bh, wo, bo), vjp)


def logic_scores(users, items, kind, b, cascade, index, n_c):
    """Head logits (g x 1) and mediators (g x 2d) of one logic operator on behavior b.

    The operator's first layer on [e_u, e_space, S] sums the user row
    e_u[u] @ W1[:d], once per distinct user, and the item and pooled rows
    of ``ItemTables``, in that order (the pooled rows pool each item's
    neighbors in the index's id table for n_c). relu(.) @ W2 + b2 is the
    mediator, and the logits are relu(mediator @ W_h + b_h) @ w_o + b_o, as
    one op (a tensor); its vjp returns the grads of the behavior's e_u, of
    the operator's item space (the items' own rows and their neighbors'),
    and of the operator's and the head's four slots.
    """
    tables = item_tables(cascade)
    params = cascade.params
    bundle = cascade.per_behavior[b]
    op = OPERATORS[kind]
    space = getattr(bundle, op.item_space)
    w1, b1, w2, b2 = (params[f"{op.prefix}_{k}"] for k in ("w1", "b1", "w2", "b2"))
    wh, bh, wo, bo = (params[k] for k in _HEAD_SLOTS)
    d = tables.d
    w_user, w_item, w_pool = w1.data[:d], w1.data[d:2 * d], w1.data[2 * d:]
    pooled = tables.pooled_rows(kind, b, index, n_c)  # fetched first: its build peaks in memory
    user_ids, user_of = np.unique(users, return_inverse=True)
    user_in = tables.user_rows[b][user_ids]
    first = (user_in @ w_user)[user_of]
    first += tables.logic_items(kind, b)[items]
    first += pooled[items]
    med = _relu(first) @ w2.data + b2.data
    hidden = med @ wh.data + bh.data
    logits = _relu(hidden) @ wo.data + bo.data

    def vjp(g):
        g_hidden, g_wo, g_bo = _head_vjp(g, hidden, wo.data)
        g_med = g_hidden @ wh.data.T
        g_first = g_med @ w2.data.T
        g_first *= first > 0.0
        item_ids, item_of = np.unique(items, return_inverse=True)
        g_users = tg.scatter_add_rows(g_first, user_of, len(user_ids))
        g_items = tg.scatter_add_rows(g_first, item_of, len(item_ids))
        space_in = space.data[item_ids]
        pool = _pooling_matrix(retrieval.neighbors(index, item_ids, n_c), space.data.shape[0],
                               space.data.dtype)
        g_space = pool.T @ (g_items @ w_pool.T)
        g_space[item_ids] += g_items @ w_item.T
        g_w1 = np.concatenate([user_in.T @ g_users, space_in.T @ g_items,
                               (pool @ space.data).T @ g_items])
        return (_scatter_rows(g_users, user_ids, w_user, tables.user_rows[b]), g_space,
                g_w1, g_first.sum(axis=0, keepdims=True), first.T @ g_med,
                g_med.sum(axis=0, keepdims=True), med.T @ g_hidden,
                g_hidden.sum(axis=0, keepdims=True), g_wo, g_bo)
    return tg.record(logits, op.name, (bundle.e_u, space, w1, b1, w2, b2, wh, bh, wo, bo),
                     vjp), med


def reason(u, i, train, cascade, indices, params, tau, n_c=10, **flags):
    """Single-pair wrapper around reason_batch: (1 x 2d mediator tensor, trace).
    The scorers read ``cascade.params``: params must be it, or the store it views."""
    slots = cascade.params
    if params is not slots and params is not getattr(slots, "store", slots):
        raise ValueError("params are not the slots the cascade was computed from")
    _, (trace,) = reason_batch([u], [i], train, cascade, indices, tau, n_c=n_c, **flags)
    return tg.Tensor(trace.mediator[None, :]), trace
