"""Ingestion of per-behavior interaction logs and dataset utilities.

Raw logs are tab-separated "<user>\t<item>" lines, one file per behavior.
Datasets carry dense indices (first-seen order across behaviors), a
leave-one-out split on the target behavior, BPR triple sampling, and the
analysis groupings (sparsity quantiles, history dropping).
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class InputError(ValueError):
    """Input the program cannot use: a manifest, file, checkpoint, id, edit or dataset."""


class ParseError(InputError):
    """Malformed or undecodable interaction line."""


class UnknownIdError(InputError, KeyError):
    """A raw user or item id the dataset does not know."""

    __str__ = Exception.__str__  # the message, without KeyError's quotes


@dataclass(frozen=True)
class BehaviorSpec:
    """Ordered behavior chain; the last behavior is the prediction target."""

    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 2:
            raise InputError("behavior chain needs at least 2 behaviors")
        if len(set(names)) != len(names):
            raise InputError("behavior labels must be unique")

    @property
    def target_index(self):
        return len(self.names) - 1

    @property
    def target(self):
        return self.names[-1]

    def __len__(self):
        return len(self.names)

    def index_of(self, name):
        return self.names.index(name)


def edge_matrix(users, items, num_users, num_items):
    """Canonical M x N 0/1 CSR of the (users[p], items[p]) edges.

    Rows hold sorted, distinct item indices (a repeated pair counts once)
    and the matrix's arrays are read-only.
    """
    users = np.asarray(users, dtype=np.int64).reshape(-1)
    items = np.asarray(items, dtype=np.int64).reshape(-1)
    if users.size and (users.min() < 0 or users.max() >= num_users
                       or items.min() < 0 or items.max() >= num_items):
        raise ValueError("edge indices out of range")
    rows, cols = np.divmod(np.unique(users * num_items + items), max(num_items, 1))
    indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_users), out=indptr[1:])
    return _frozen(sp.csr_matrix((np.ones(cols.size, dtype=np.int64), cols, indptr),
                                 shape=(num_users, num_items)))


def _frozen(matrix):
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.flags.writeable = False
    return matrix


def entry_rows(matrix):
    """Row index of every stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr))


def _keep_entries(matrix, keep):
    """The edge matrix holding only the stored entries where keep is True."""
    return edge_matrix(entry_rows(matrix)[keep], matrix.indices[keep], *matrix.shape)


@dataclass(frozen=True, eq=False)  # eq=False: sparse matrices have no truth value
class InteractionDataset:
    """Per-behavior edge matrices with raw-ID maps.

    Each behavior's edges are one canonical M x N 0/1 CSR matrix (see
    ``edge_matrix``) whose arrays are read-only, so everything derived from
    them (the chain-code matrix, the set views) can be cached.
    """

    spec: BehaviorSpec
    num_users: int
    num_items: int
    matrices: tuple  # edge matrix per behavior, aligned with spec.names
    user_ids: list   # dense index -> raw id
    item_ids: list

    def __post_init__(self):
        set_attr = object.__setattr__
        set_attr(self, "matrices", tuple(self.matrices))
        shape = (self.num_users, self.num_items)
        if len(self.matrices) != len(self.spec) or any(m.shape != shape for m in self.matrices):
            raise ValueError(f"one {shape} edge matrix per behavior required")
        set_attr(self, "user_index", {raw: k for k, raw in enumerate(self.user_ids)})
        set_attr(self, "item_index", {raw: k for k, raw in enumerate(self.item_ids)})

    @classmethod
    def from_edges(cls, spec, num_users, num_items, per_behavior_edges, user_ids, item_ids):
        """Dataset from dense (u, i) pairs, one collection per behavior."""
        pairs = [np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64,
                             count=2 * len(edges)).reshape(-1, 2).T
                 for edges in per_behavior_edges]
        matrices = [edge_matrix(us, its, num_users, num_items) for us, its in pairs]
        return cls(spec, num_users, num_items, matrices, user_ids, item_ids)

    @cached_property
    def chain_code_matrix(self):
        """C = sum_k 2^k A_k: bit k of C[u, i] is behavior k's flag; pattern = all edges."""
        return _frozen(sum((1 << k) * m for k, m in enumerate(self.matrices)))

    def chain_codes(self, users, items):
        """Chain code of each (users[p], items[p]) pair, as an int64 array."""
        if len(users) == 0:  # scipy answers an empty pair index with a sparse matrix
            return np.empty(0, dtype=np.int64)
        return np.asarray(self.chain_code_matrix[users, items], dtype=np.int64).reshape(-1)

    def behavior_index(self, behavior):
        """Index of a behavior given by index or label."""
        return self.spec.index_of(behavior) if isinstance(behavior, str) else behavior

    def items_of(self, behavior, u):
        """Ascending items user u has under a behavior (a read-only row slice)."""
        m = self.matrices[self.behavior_index(behavior)]
        return m.indices[m.indptr[u]:m.indptr[u + 1]]

    def encode_user(self, raw):
        if raw not in self.user_index:
            raise UnknownIdError(f"unknown raw user id {raw!r}")
        return self.user_index[raw]

    def encode_item(self, raw):
        if raw not in self.item_index:
            raise UnknownIdError(f"unknown raw item id {raw!r}")
        return self.item_index[raw]

    def decode_user(self, idx):
        return self.user_ids[idx]

    def decode_item(self, idx):
        return self.item_ids[idx]

    @cached_property
    def per_behavior_edges(self):
        """Frozenset of (u, i) edges per behavior: a read-only view built on first use."""
        return tuple(frozenset(zip(entry_rows(m).tolist(), m.indices.tolist()))
                     for m in self.matrices)

    def edges(self, behavior):
        """Edge set view for a behavior given by index or label."""
        return self.per_behavior_edges[self.behavior_index(behavior)]

    def target_edges(self):
        return self.per_behavior_edges[self.spec.target_index]

    def user_items(self, behavior):
        """Per-user item sets under one behavior (fresh sets on every call)."""
        return [set(self.items_of(behavior, u).tolist()) for u in range(self.num_users)]

    def total_interactions(self):
        return sum(m.nnz for m in self.matrices)


@dataclass
class SplitDataset:
    """Train dataset plus one held-out target interaction per eligible user."""

    train: InteractionDataset
    test_positives: dict  # user index -> held-out item index


def load_interactions(path, behavior):
    """Read one behavior file into a set of raw (user, item) pairs."""
    pairs = set()
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0] or not parts[1] or "\ufeff" in line:
                    raise ParseError(
                        f"{path}: line {lineno}: expected '<user>\\t<item>', got {line!r}"
                    )
                pairs.add((parts[0], parts[1]))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    if not pairs:
        warnings.warn(f"behavior '{behavior}' file {path} is empty")
    return pairs


def build_dataset_from_pairs(per_behavior_pairs, spec):
    """Assign dense ids (first-seen order across behaviors in spec order)."""
    if len(per_behavior_pairs) != len(spec):
        raise ValueError("one pair set per behavior required")
    user_index, item_index = {}, {}  # raw id -> dense id, in first-seen order
    dense = [[(user_index.setdefault(u, len(user_index)),
               item_index.setdefault(i, len(item_index)))
              for u, i in sorted(pairs, key=lambda p: (str(p[0]), str(p[1])))]
             for pairs in per_behavior_pairs]
    return InteractionDataset.from_edges(spec, len(user_index), len(item_index), dense,
                                         list(user_index), list(item_index))


def build_dataset(per_behavior_files, spec):
    """Load one file per behavior (dict label -> path) into a dataset."""
    pair_sets = []
    for name in spec.names:
        if name not in per_behavior_files:
            raise InputError(f"no file given for behavior '{name}'")
        pair_sets.append(load_interactions(per_behavior_files[name], name))
    if not pair_sets[-1]:
        raise InputError("target behavior file is empty")
    return build_dataset_from_pairs(pair_sets, spec)


def compute_conversion_order(dataset):
    """Suggest a cascade order by ascending conversion-toward-target rate.

    Rate for behavior b is |edges(b) ∩ edges(target)| / |edges(b)|; the
    target is forced last; ties keep the configured spec order.
    """
    spec = dataset.spec
    target = dataset.matrices[spec.target_index]
    rates = []
    for k, name in enumerate(spec.names[:-1]):
        m = dataset.matrices[k]
        if not m.nnz:
            warnings.warn(f"behavior '{name}' has no edges; placed first")
        rates.append((m.multiply(target).nnz / m.nnz if m.nnz else -1.0, k, name))
    rates.sort(key=lambda r: (r[0], r[1]))  # tie-break: spec order
    return [name for _, _, name in rates] + [spec.target]


def reorder_behaviors(dataset, new_order):
    """Permute the behavior chain; the target must stay last."""
    spec = dataset.spec
    if sorted(new_order) != sorted(spec.names):
        raise InputError("new order must be a permutation of the behavior labels")
    if new_order[-1] != spec.target:
        raise InputError("the target behavior must remain last")
    return dataclasses.replace(
        dataset, spec=BehaviorSpec(tuple(new_order)),
        matrices=[dataset.matrices[spec.index_of(name)] for name in new_order])


def leave_one_out_split(dataset, seed):
    """Hold out one target interaction per user with >= 2 target edges.

    Each such user, in ascending order, draws one of its ascending target
    items uniformly.
    """
    rng = np.random.default_rng(seed)
    target = dataset.matrices[-1]
    counts = np.diff(target.indptr)
    users = np.flatnonzero(counts >= 2)
    picked = target.indptr[users] + rng.integers(counts[users])
    keep = np.ones(target.nnz, dtype=bool)
    keep[picked] = False
    train = dataclasses.replace(
        dataset, matrices=dataset.matrices[:-1] + (_keep_entries(target, keep),))
    return SplitDataset(train=train, test_positives=dict(
        zip(users.tolist(), target.indices[picked].tolist())))


def sample_bpr_triples(train, behavior, count, rng):
    """(count, 3) int64 array of (user, positive item, negative item) rows.

    Positives are uniform over the behavior's edges whose user still has an
    unobserved item; each negative is uniform over that user's unobserved
    items, rejection-sampled in vectorized rounds.
    """
    behavior = train.behavior_index(behavior)
    m = train.matrices[behavior]
    if not m.nnz:
        raise InputError(f"behavior index {behavior} has no edges")
    n_items = train.num_items
    if n_items < 2:
        raise InputError("negative sampling needs at least 2 items")
    rows = entry_rows(m)
    eligible = np.flatnonzero(np.diff(m.indptr)[rows] < n_items)
    if not eligible.size:
        raise InputError("every positive's user interacted with every item; "
                         "no negatives available")
    if eligible.size < m.nnz:
        warnings.warn(f"{m.nnz - eligible.size} positives skipped: their "
                      "users interacted with every item")
    picked = eligible[rng.integers(eligible.size, size=count)]
    users = rows[picked]
    keys = rows * n_items + m.indices  # ascending, as the matrix is canonical
    neg = np.empty(count, dtype=np.int64)
    redraw = np.arange(count)
    while redraw.size:
        neg[redraw] = rng.integers(n_items, size=redraw.size)
        drawn = users[redraw] * n_items + neg[redraw]
        redraw = redraw[keys[np.minimum(np.searchsorted(keys, drawn), keys.size - 1)] == drawn]
    return np.stack([users, m.indices[picked], neg], axis=1)


def group_users_by_sparsity(dataset, n_groups=4):
    """Split users into equal-population quantile buckets by interaction count."""
    if dataset.num_users < n_groups:
        raise InputError(f"{dataset.num_users} users cannot form {n_groups} groups")
    counts = sum(np.diff(m.indptr) for m in dataset.matrices)
    order = np.argsort(counts, kind="stable")
    return [chunk.tolist() for chunk in np.array_split(order, n_groups)]


def drop_history(dataset, user_fraction, drop_fraction, seed):
    """Remove a fraction of interactions for a random fraction of users.

    Drops are uniform across behaviors for each affected user: the user's
    events are numbered behavior by behavior, items ascending, and a
    uniform subset of them is dropped. Operates on a train dataset, so
    held-out test positives (absent from train) are never touched.
    """
    if not (0.0 <= user_fraction <= 1.0 and 0.0 <= drop_fraction <= 1.0):
        raise InputError("fractions must lie in [0, 1]")
    if user_fraction == 0.0 or drop_fraction == 0.0:
        return dataset
    rng = np.random.default_rng(seed)
    n_affected = int(round(user_fraction * dataset.num_users))
    affected = np.sort(rng.choice(dataset.num_users, size=n_affected, replace=False))
    mats = dataset.matrices
    rows = np.concatenate([entry_rows(m) for m in mats])  # every behavior's entries
    events = np.argsort(rows, kind="stable")  # per user: behavior by behavior, items ascending
    bounds = np.searchsorted(rows[events], np.arange(dataset.num_users + 1))
    keep = np.ones(rows.size, dtype=bool)
    for u in affected.tolist():
        mine = events[bounds[u]:bounds[u + 1]]
        n_drop = int(round(drop_fraction * mine.size))
        if n_drop == 0:
            continue
        keep[mine[rng.choice(mine.size, size=n_drop, replace=False)]] = False
        if n_drop == mine.size:
            warnings.warn(f"user {u} has no interactions left after drop")
    ends = np.cumsum([m.nnz for m in mats])[:-1]
    return dataclasses.replace(dataset, matrices=[
        _keep_entries(m, k) for m, k in zip(mats, np.split(keep, ends))])
