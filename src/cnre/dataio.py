"""Ingestion of per-behavior interaction logs and dataset utilities.

Raw logs are tab-separated "<user>\t<item>" lines, one file per behavior.
Datasets carry dense indices (first-seen order across behaviors), a
leave-one-out split on the target behavior, BPR triple sampling, and the
analysis groupings (sparsity quantiles, history dropping).
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class ParseError(ValueError):
    """Malformed interaction line."""


@dataclass(frozen=True)
class BehaviorSpec:
    """Ordered behavior chain; the last behavior is the prediction target."""

    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 2:
            raise ValueError("behavior chain needs at least 2 behaviors")
        if len(set(names)) != len(names):
            raise ValueError("behavior labels must be unique")

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


@dataclass(frozen=True)
class InteractionDataset:
    """Densely indexed per-behavior edge sets with raw-ID maps.

    The edges are immutable after construction (a tuple of frozensets), so
    the chain-code matrix derived from them can be cached.
    """

    spec: BehaviorSpec
    num_users: int
    num_items: int
    per_behavior_edges: tuple  # frozenset[(u, i)] per behavior, aligned with spec.names
    user_ids: list             # dense index -> raw id
    item_ids: list

    def __post_init__(self):
        set_attr = object.__setattr__
        set_attr(self, "per_behavior_edges",
                 tuple(frozenset(e) for e in self.per_behavior_edges))
        set_attr(self, "user_index", {raw: k for k, raw in enumerate(self.user_ids)})
        set_attr(self, "item_index", {raw: k for k, raw in enumerate(self.item_ids)})

    @cached_property
    def chain_code_matrix(self):
        """M x N sparse matrix C = sum_k 2^k A_k; bit k of C[u, i] is behavior k's flag.

        Built on first use: most datasets (split inputs, sweep copies) never
        need it.
        """
        rows, cols, vals = [], [], []
        for k, edges in enumerate(self.per_behavior_edges):
            arr = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
            rows.append(arr[:, 0])
            cols.append(arr[:, 1])
            vals.append(np.full(arr.shape[0], 1 << k, dtype=np.int64))
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.num_users, self.num_items), dtype=np.int64)

    def chain_codes(self, users, items):
        """Chain code of each (users[p], items[p]) pair, as an int64 array."""
        return np.asarray(self.chain_code_matrix[users, items], dtype=np.int64).reshape(-1)

    def encode_user(self, raw):
        if raw not in self.user_index:
            raise KeyError(f"unknown raw user id {raw!r}")
        return self.user_index[raw]

    def encode_item(self, raw):
        if raw not in self.item_index:
            raise KeyError(f"unknown raw item id {raw!r}")
        return self.item_index[raw]

    def decode_user(self, idx):
        return self.user_ids[idx]

    def decode_item(self, idx):
        return self.item_ids[idx]

    def edges(self, behavior):
        """Edge set for a behavior given by index or label."""
        if isinstance(behavior, str):
            behavior = self.spec.index_of(behavior)
        return self.per_behavior_edges[behavior]

    def target_edges(self):
        return self.per_behavior_edges[self.spec.target_index]

    def union_edges(self):
        out = set()
        for edges in self.per_behavior_edges:
            out |= edges
        return out

    def user_items(self, behavior):
        """Per-user item sets under one behavior."""
        out = [set() for _ in range(self.num_users)]
        for u, i in self.edges(behavior):
            out[u].add(i)
        return out

    def total_interactions(self):
        return sum(len(e) for e in self.per_behavior_edges)


@dataclass
class SplitDataset:
    """Train dataset plus one held-out target interaction per eligible user."""

    train: InteractionDataset
    test_positives: dict  # user index -> held-out item index


@dataclass(frozen=True)
class BprTriple:
    user: int
    pos_item: int
    neg_item: int
    behavior: int


def load_interactions(path, behavior):
    """Read one behavior file into a set of raw (user, item) pairs."""
    pairs = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ParseError(
                    f"{path}: line {lineno}: expected '<user>\\t<item>', got {line!r}"
                )
            pairs.add((parts[0], parts[1]))
    if not pairs:
        warnings.warn(f"behavior '{behavior}' file {path} is empty")
    return pairs


def build_dataset_from_pairs(per_behavior_pairs, spec):
    """Assign dense ids (first-seen order across behaviors in spec order)."""
    if len(per_behavior_pairs) != len(spec):
        raise ValueError("one pair set per behavior required")
    user_ids, item_ids = [], []
    user_index, item_index = {}, {}
    edges = []
    for pairs in per_behavior_pairs:
        eset = set()
        for raw_u, raw_i in sorted(pairs, key=lambda p: (str(p[0]), str(p[1]))):
            if raw_u not in user_index:
                user_index[raw_u] = len(user_ids)
                user_ids.append(raw_u)
            if raw_i not in item_index:
                item_index[raw_i] = len(item_ids)
                item_ids.append(raw_i)
            eset.add((user_index[raw_u], item_index[raw_i]))
        edges.append(eset)
    return InteractionDataset(
        spec=spec,
        num_users=len(user_ids),
        num_items=len(item_ids),
        per_behavior_edges=edges,
        user_ids=user_ids,
        item_ids=item_ids,
    )


def build_dataset(per_behavior_files, spec):
    """Load one file per behavior (dict label -> path) into a dataset."""
    pair_sets = []
    for name in spec.names:
        if name not in per_behavior_files:
            raise ValueError(f"no file given for behavior '{name}'")
        pair_sets.append(load_interactions(per_behavior_files[name], name))
    if not pair_sets[-1]:
        raise ValueError("target behavior file is empty")
    return build_dataset_from_pairs(pair_sets, spec)


def compute_conversion_order(dataset):
    """Suggest a cascade order by ascending conversion-toward-target rate.

    Rate for behavior b is |edges(b) ∩ edges(target)| / |edges(b)|; the
    target is forced last; ties keep the configured spec order.
    """
    spec = dataset.spec
    target = dataset.target_edges()
    rates = []
    for k, name in enumerate(spec.names[:-1]):
        edges = dataset.per_behavior_edges[k]
        if not edges:
            warnings.warn(f"behavior '{name}' has no edges; placed first")
            rates.append((-1.0, k, name))
            continue
        rate = len(edges & target) / len(edges)
        rates.append((rate, k, name))
    rates.sort(key=lambda r: (r[0], r[1]))  # tie-break: spec order
    return [name for _, _, name in rates] + [spec.target]


def reorder_behaviors(dataset, new_order):
    """Permute the behavior chain; the target must stay last."""
    spec = dataset.spec
    if sorted(new_order) != sorted(spec.names):
        raise ValueError("new order must be a permutation of the behavior labels")
    if new_order[-1] != spec.target:
        raise ValueError("the target behavior must remain last")
    perm = [spec.index_of(name) for name in new_order]
    return dataclasses.replace(
        dataset, spec=BehaviorSpec(tuple(new_order)),
        per_behavior_edges=[dataset.per_behavior_edges[k] for k in perm])


def leave_one_out_split(dataset, seed):
    """Hold out one target interaction per user with >= 2 target edges."""
    rng = np.random.default_rng(seed)
    by_user = {}
    for u, i in sorted(dataset.target_edges()):
        by_user.setdefault(u, []).append(i)
    test_positives = {}
    for u in sorted(by_user):
        items = by_user[u]
        if len(items) < 2:
            continue
        test_positives[u] = items[rng.integers(len(items))]
    edges = list(dataset.per_behavior_edges)
    edges[-1] = edges[-1] - set(test_positives.items())
    return SplitDataset(train=dataclasses.replace(dataset, per_behavior_edges=edges),
                        test_positives=test_positives)


def sample_bpr_triples(train, behavior, count, rng):
    """Uniform positives with one rejection-sampled uniform negative each."""
    if isinstance(behavior, str):
        behavior = train.spec.index_of(behavior)
    edges = sorted(train.per_behavior_edges[behavior])
    if not edges:
        raise ValueError(f"behavior index {behavior} has no edges")
    if train.num_items < 2:
        raise ValueError("negative sampling needs at least 2 items")
    user_items = train.user_items(behavior)
    eligible = [e for e in edges if len(user_items[e[0]]) < train.num_items]
    if not eligible:
        raise ValueError("every positive's user interacted with every item; "
                         "no negatives available")
    if len(eligible) < len(edges):
        warnings.warn(f"{len(edges) - len(eligible)} positives skipped: their "
                      "users interacted with every item")
    triples = []
    n_edges = len(eligible)
    while len(triples) < count:
        u, i = eligible[rng.integers(n_edges)]
        seen = user_items[u]
        while True:
            j = int(rng.integers(train.num_items))
            if j not in seen:
                break
        triples.append(BprTriple(user=u, pos_item=i, neg_item=j, behavior=behavior))
    return triples


def group_users_by_sparsity(dataset, n_groups=4):
    """Split users into equal-population quantile buckets by interaction count."""
    if dataset.num_users < n_groups:
        raise ValueError(f"{dataset.num_users} users cannot form {n_groups} groups")
    counts = np.zeros(dataset.num_users, dtype=np.int64)
    for edges in dataset.per_behavior_edges:
        for u, _ in edges:
            counts[u] += 1
    order = np.argsort(counts, kind="stable")
    return [list(map(int, chunk)) for chunk in np.array_split(order, n_groups)]


def drop_history(dataset, user_fraction, drop_fraction, seed):
    """Remove a fraction of interactions for a random fraction of users.

    Drops are uniform across behaviors for each affected user. Operates on
    a train dataset, so held-out test positives (absent from train) are
    never touched.
    """
    if not (0.0 <= user_fraction <= 1.0 and 0.0 <= drop_fraction <= 1.0):
        raise ValueError("fractions must lie in [0, 1]")
    if user_fraction == 0.0 or drop_fraction == 0.0:
        return dataset
    rng = np.random.default_rng(seed)
    n_affected = int(round(user_fraction * dataset.num_users))
    affected = set(map(int, rng.choice(dataset.num_users, size=n_affected, replace=False)))
    pool = {u: [] for u in affected}
    for b, edges in enumerate(dataset.per_behavior_edges):
        for u, i in sorted(edges):
            if u in affected:
                pool[u].append((b, u, i))
    edges = [set(e) for e in dataset.per_behavior_edges]
    for u in sorted(affected):
        events = pool[u]
        n_drop = int(round(drop_fraction * len(events)))
        if n_drop == 0:
            continue
        picked = rng.choice(len(events), size=n_drop, replace=False)
        for k in picked:
            b, uu, ii = events[k]
            edges[b].discard((uu, ii))
        if not any(any(e[0] == u for e in es) for es in edges):
            warnings.warn(f"user {u} has no interactions left after drop")
    return dataclasses.replace(dataset, per_behavior_edges=edges)
