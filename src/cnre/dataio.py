"""Ingestion of per-behavior interaction logs and dataset utilities.

Raw logs are tab-separated "<user>\t<item>" lines, one file per behavior.
``load_interactions`` parses a file with whole-text string operations
into two columns of raw ids, one entry per non-empty line in file order,
repeats kept; ``edge_matrix`` drops repeated pairs. Datasets carry dense
indices, a leave-one-out split on the target behavior, BPR triple
sampling, and the analysis groupings (sparsity quantiles, history
dropping).

Dense ids are first-seen order: the behaviors are read in spec order and
each behavior's pairs in ascending (str(user), str(item)) order, so a
user's id follows (its first behavior, its str) and an item's id follows
(the earliest (behavior, user str) of its pairs, its str). Two distinct
raw users (or items) with the same str() have no order and raise
InputError. ``build_dataset`` and ``build_dataset_from_pairs`` give these
ids without sorting the pairs: they rank the distinct raw ids by str and
order them with numpy.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class InputError(ValueError):
    """Input the program cannot use: a manifest, file, checkpoint, id, edit or dataset."""


class ParseError(InputError):
    """Unreadable interaction file, or a malformed or undecodable line in one."""


class UnknownIdError(InputError, KeyError):
    """A raw user or item id the dataset does not know."""

    __str__ = Exception.__str__  # the message, without KeyError's quotes


def is_int(value, least=-math.inf, most=math.inf):
    """True for an int (not a bool) in [least, most]."""
    return isinstance(value, int) and not isinstance(value, bool) and least <= value <= most


def is_number(value, least=-math.inf, most=math.inf):
    """True for an int (not a bool) or a finite float in [least, most]."""
    return ((is_int(value) or isinstance(value, float) and math.isfinite(value))
            and least <= value <= most)


def list_of(check):
    """A check for a list whose every element passes check."""
    return lambda value: isinstance(value, list) and all(map(check, value))


def check_fields(raw, schema, what, error, required=()):
    """Validate a JSON object against schema: key -> (check, description).

    Raises error, naming what and the key, for a raw that is not an object,
    a key the schema does not list, a value its check rejects or a missing
    required key.
    """
    if not isinstance(raw, dict):
        raise error(f"{what} is not a JSON object")
    unknown = raw.keys() - schema.keys()
    if unknown:
        raise error(f"{what} has unknown keys: {sorted(unknown)}")
    for key, value in raw.items():
        check, want = schema[key]
        if not check(value):
            raise error(f"{what} field '{key}' is malformed: must be {want}, not {value!r}")
    for key in required:
        if key not in raw:
            raise error(f"{what} has no '{key}'")


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
    # sort and drop repeats: numpy 2's np.unique hashes int keys, ~15x slower at 72k
    keys = np.sort(users * num_items + items)
    fresh = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    rows, cols = np.divmod(keys[fresh], max(num_items, 1))
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
    them (the chain-code matrix, the edge-set view) can be cached.
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

    @cached_property
    def _chain_keys(self):
        """(u * N + i, code) of every stored chain code; ascending, as C is canonical."""
        c = self.chain_code_matrix
        return entry_rows(c) * self.num_items + c.indices, np.asarray(c.data, dtype=np.int64)

    def chain_codes(self, users, items):
        """Chain code of each (users[p], items[p]) pair, as an int64 array.

        Read from the sorted keys u * N + i of the chain-code matrix by binary
        search; a pair with no edge has code 0. Raises IndexError for a user
        outside [0, M) or an item outside [0, N), so no out-of-range pair
        reads another pair's key.
        """
        users = np.asarray(users, dtype=np.int64).reshape(-1)
        items = np.asarray(items, dtype=np.int64).reshape(-1)
        self.check_ids(users, items)
        keys, codes = self._chain_keys
        wanted = users * self.num_items + items
        if not keys.size:
            return np.zeros(wanted.shape, dtype=np.int64)
        at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        return np.where(keys[at] == wanted, codes[at], 0)

    def check_ids(self, users, items):
        """Raise IndexError for a user outside [0, M) or an item outside [0, N) (int arrays)."""
        for ids, bound, what in ((users, self.num_users, "user"),
                                 (items, self.num_items, "item")):
            if ids.size and (ids.min() < 0 or ids.max() >= bound):
                raise IndexError(f"{what} index out of range [0, {bound})")

    def items_of(self, b, u):
        """Ascending items user u has under behavior b (a read-only row slice)."""
        m = self.matrices[b]
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

    def user_items(self, b):
        """Per-user item sets under behavior b (fresh sets on every call)."""
        return [set(self.items_of(b, u).tolist()) for u in range(self.num_users)]


@dataclass
class SplitDataset:
    """Train dataset plus one held-out target interaction per eligible user."""

    train: InteractionDataset
    test_positives: dict  # user index -> held-out item index


def load_interactions(path, behavior):
    """Read one behavior file into (users, items), two lists of raw ids.

    Entry k of each list comes from the k-th non-empty line, in file order;
    a repeated pair is kept, and ``edge_matrix`` drops it. The file is read
    whole and parsed with whole-text string operations, so a bad UTF-8 byte
    is reported even where a malformed line comes before it. Raises
    ParseError naming the first line that is not '<user>\\t<item>' with both
    ids non-empty and free of byte-order marks.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read interaction file {path}: {exc}") from exc
    # "\n" only: str.splitlines would also split on \x0b, \x1c, \x85, \u2028 and more
    rows = list(filter(None, text.split("\n")))
    if not rows:
        warnings.warn(f"behavior '{behavior}' file {path} is empty")
        return [], []
    fields = "\t".join(rows).split("\t")
    # a tab in every row and 2 fields per row on average: exactly one tab in each
    if (len(fields) != 2 * len(rows) or "" in fields or "\ufeff" in text
            or not all(map(str.__contains__, rows, itertools.repeat("\t")))):
        # only a file with a malformed line fails the check: name the first one
        lineno, line = next((k, line) for k, line in enumerate(text.split("\n"), start=1)
                            if line and _malformed(line))
        raise ParseError(f"{path}: line {lineno}: expected '<user>\\t<item>', got {line!r}")
    return fields[0::2], fields[1::2]


def _malformed(line):
    """True unless line is '<user>\\t<item>' with both ids non-empty and no byte-order mark."""
    parts = line.split("\t")
    return len(parts) != 2 or not parts[0] or not parts[1] or "\ufeff" in line


def _str_ranks(raw_ids, what):
    """(ids sorted by str, raw id -> rank); InputError for two ids with one str()."""
    ordered = sorted(raw_ids, key=str)
    keys = list(map(str, ordered))
    if len(set(keys)) < len(keys):  # equal strs sort next to each other
        k = next(k for k in range(1, len(keys)) if keys[k] == keys[k - 1])
        raise InputError(f"raw {what} ids {ordered[k - 1]!r} and {ordered[k]!r} "
                         f"have the same str() {keys[k]!r}")
    return ordered, {raw: r for r, raw in enumerate(ordered)}


def _ranks_of(raw, rank):
    """int64 array of rank[r] for each r in the list raw."""
    return np.fromiter(map(rank.__getitem__, raw), dtype=np.int64, count=len(raw))


def build_dataset_from_pairs(per_behavior_pairs, spec):
    """Dataset from one collection (set or list) of raw (user, item) pairs per behavior.

    Dense ids are first-seen order: the behaviors are read in spec order,
    each one's pairs in ascending (str(user), str(item)) order. So a user's
    id follows (the first behavior it appears in, the rank of its str), and
    an item's id follows (the earliest behavior, and within it the smallest
    user str, of the pairs it appears in, then the rank of its own str).
    Raises InputError for two distinct raw users (or items) with the same
    str(), as their order would be undefined.
    """
    if len(per_behavior_pairs) != len(spec):
        raise ValueError("one pair set per behavior required")
    return _dataset_from_columns([[u for u, _ in pairs] for pairs in per_behavior_pairs],
                                 [[i for _, i in pairs] for pairs in per_behavior_pairs], spec)


def _dataset_from_columns(raw_users, raw_items, spec):
    """The ``build_dataset_from_pairs`` dataset of the pairs (raw_users[b][p], raw_items[b][p])."""
    user_ids, user_rank = _str_ranks(set().union(*raw_users), "user")
    item_ids, item_rank = _str_ranks(set().union(*raw_items), "item")
    m, n = len(user_ids), len(item_ids)
    users = [_ranks_of(raw, user_rank) for raw in raw_users]
    items = [_ranks_of(raw, item_rank) for raw in raw_items]
    # a pair's reading position is (b, user rank, item rank): a user is first
    # seen at its first behavior, an item at its smallest b * m + user rank
    user_first = np.full(m, len(spec), dtype=np.int64)
    item_first = np.full(n, len(spec) * m, dtype=np.int64)
    for b in reversed(range(len(spec))):
        user_first[users[b]] = b
        np.minimum.at(item_first, items[b], b * m + users[b])
    user_order = np.argsort(user_first, kind="stable")  # ties: str rank
    item_order = np.argsort(item_first, kind="stable")
    user_dense, item_dense = np.empty(m, dtype=np.int64), np.empty(n, dtype=np.int64)
    user_dense[user_order] = np.arange(m)
    item_dense[item_order] = np.arange(n)
    matrices = [edge_matrix(user_dense[us], item_dense[its], m, n)
                for us, its in zip(users, items)]
    return InteractionDataset(spec, m, n, matrices,
                              [user_ids[r] for r in user_order.tolist()],
                              [item_ids[r] for r in item_order.tolist()])


def build_dataset(per_behavior_files, spec):
    """Load one file per behavior (dict label -> path) into a dataset.

    The dataset is the ``build_dataset_from_pairs`` dataset of the files'
    pairs: a pair repeated in a file is one edge.
    """
    columns = []
    for name in spec.names:
        if name not in per_behavior_files:
            raise InputError(f"no file given for behavior '{name}'")
        columns.append(load_interactions(per_behavior_files[name], name))
    if not columns[-1][0]:
        raise InputError("target behavior file is empty")
    return _dataset_from_columns([us for us, _ in columns], [its for _, its in columns], spec)


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


def sample_bpr_triples(train, b, count, rng):
    """(count, 3) int64 array of (user, positive item, negative item) rows.

    Positives are uniform over behavior b's edges whose user still has an
    unobserved item; each negative is uniform over that user's unobserved
    items, rejection-sampled in vectorized rounds.
    """
    m = train.matrices[b]
    if not m.nnz:
        raise InputError(f"behavior index {b} has no edges")
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


# Sparsity groups evaluate reports (user quartiles by interaction count)
SPARSITY_GROUPS = 4


def group_users_by_sparsity(dataset):
    """Split users into SPARSITY_GROUPS equal-population buckets by interaction count."""
    if dataset.num_users < SPARSITY_GROUPS:
        raise InputError(f"{dataset.num_users} users cannot form {SPARSITY_GROUPS} groups")
    counts = sum(np.diff(m.indptr) for m in dataset.matrices)
    order = np.argsort(counts, kind="stable")
    return [chunk.tolist() for chunk in np.array_split(order, SPARSITY_GROUPS)]


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
