"""Prediction head, BPR multi-task losses, training loop and checkpoints."""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import dataio, propagation, reasoning, retrieval, tensorgrad as tg


class CheckpointError(dataio.InputError):
    """Unreadable or inconsistent checkpoint file."""


# Upper limit on embedding_dim and hyperedges (16x the default width). The
# logic operators hold 3d x 2d weights (50 MB each at d = 1024), so a much
# larger value would fail allocating the model instead of as invalid input.
MAX_WIDTH = 1024

_COUNT = (lambda v: dataio.is_int(v, 0), "an int of at least 0")
_COUNTS = dataio.list_of(lambda c: dataio.is_int(c, 0))
_POSITIVE = (lambda v: dataio.is_int(v, 1), "an int of at least 1")
_WIDTH = (lambda v: dataio.is_int(v, 1, MAX_WIDTH), f"an int between 1 and {MAX_WIDTH}")
_FLAG = (lambda v: isinstance(v, bool), "true or false")

# TrainConfig field -> (check, description); values may come from JSON
_CONFIG_FIELDS = {
    "embedding_dim": _WIDTH,
    "hyperedges": _WIDTH,
    "layer_counts": (lambda v: v is None or _COUNTS(v),
                     "null or a list of ints of at least 0"),
    "lr": (lambda v: dataio.is_number(v) and v > 0, "a finite number above 0"),
    "l2": (lambda v: dataio.is_number(v, 0), "a finite number of at least 0"),
    "tau": (lambda v: dataio.is_number(v, 0, 1), "a number in [0, 1]"),
    "n_c": _POSITIVE,
    "batch_size": _POSITIVE,
    "epochs": _COUNT,
    "seed": _COUNT,
    "index_mode": (lambda v: v in ("exact", "approximate"), '"exact" or "approximate"'),
    **dict.fromkeys(("disable_hpp", "disable_par", "disable_prj", "disable_rea",
                     "disable_cnj", "disable_dsj"), _FLAG),
}


@dataclass
class TrainConfig:
    embedding_dim: int = 64
    hyperedges: int = 32
    layer_counts: list | None = None   # default: 1 per auxiliary behavior, 3 for target
    lr: float = 1e-3
    l2: float = 1e-4
    tau: float = 0.5
    n_c: int = 10
    batch_size: int = 1024
    epochs: int = 10
    seed: int = 0
    index_mode: str = "exact"
    disable_hpp: bool = False
    disable_par: bool = False
    disable_prj: bool = False
    disable_rea: bool = False
    disable_cnj: bool = False
    disable_dsj: bool = False

    def __post_init__(self):
        dataio.check_fields(vars(self), _CONFIG_FIELDS, "config", dataio.InputError)

    @classmethod
    def from_json(cls, raw):
        """The config a JSON object gives; every unknown key is named, as InputError."""
        dataio.check_fields(raw, _CONFIG_FIELDS, "config", dataio.InputError)
        return cls(**raw)

    def resolved_layer_counts(self, n_behaviors):
        if self.layer_counts is not None:
            if len(self.layer_counts) != n_behaviors:
                raise dataio.InputError("layer_counts length must equal behavior count")
            return list(self.layer_counts)
        return [1] * (n_behaviors - 1) + [3]


def predict_logit(mediators, params):
    """Pre-activation of the head MLP: relu(m @ W_h + b_h) @ w_o + b_o."""
    hidden = tg.relu(tg.add(tg.matmul(mediators, params["head_wh"]), params["head_bh"]))
    return tg.add(tg.matmul(hidden, params["head_wo"]), params["head_bo"])


def bpr_loss(y_pos, y_neg):
    """-log sigmoid(y_pos - y_neg), summed over the batch (stable form)."""
    return tg.sum_all(tg.softplus(tg.sub(y_neg, y_pos)))


def multi_task_loss(per_behavior_bpr, l2_weight, store):
    """Sum of the per-behavior BPR terms plus L2 over every parameter slot."""
    if not per_behavior_bpr:
        raise ValueError("at least one BPR term required")
    total = per_behavior_bpr[0]
    for term in per_behavior_bpr[1:]:
        total = tg.add(total, term)
    if l2_weight > 0.0:
        reg = None
        for _, p in store.items():
            sq = tg.l2_norm_sq(p)
            reg = sq if reg is None else tg.add(reg, sq)
        total = tg.add(total, tg.mul(tg.Tensor(np.array(l2_weight)), reg))
    return total


class CnreModel:
    """All trainable state plus the graphs needed to run the architecture."""

    def __init__(self, train_dataset, config):
        self.train_dataset = train_dataset
        self.config = config
        self.behavior_names = list(train_dataset.spec.names)
        self.layer_counts = config.resolved_layer_counts(len(self.behavior_names))
        self.rng = np.random.default_rng(config.seed)
        self.store = tg.ParameterStore()
        self._init_parameters()
        self.adjacencies = [propagation.build_normalized_adjacency(m)
                            for m in train_dataset.matrices]
        self.unified_adj = propagation.build_normalized_adjacency(
            train_dataset.chain_code_matrix)  # its pattern is the union of all behaviors

    def _init_parameters(self):
        d = self.config.embedding_dim
        k = self.config.hyperedges
        h = 2 * d  # hidden width of both logic operators
        rng = self.rng
        M, N = self.train_dataset.num_users, self.train_dataset.num_items
        add = self.store.add
        add("base_user", tg.xavier_uniform(rng, M, d))
        add("base_item", tg.xavier_uniform(rng, N, d))
        for name in self.behavior_names:
            add(f"hyp_u_{name}", tg.xavier_uniform(rng, d, k))
            add(f"hyp_i_{name}", tg.xavier_uniform(rng, d, k))
        for prefix in ("conj", "disj"):
            add(f"{prefix}_w1", tg.xavier_uniform(rng, 3 * d, h))
            add(f"{prefix}_b1", np.zeros((1, h)))
            add(f"{prefix}_w2", tg.xavier_uniform(rng, h, 2 * d))
            add(f"{prefix}_b2", np.zeros((1, 2 * d)))
        add("head_wh", tg.xavier_uniform(rng, 2 * d, d))
        add("head_bh", np.zeros((1, d)))
        add("head_wo", tg.xavier_uniform(rng, d, 1))
        add("head_bo", np.zeros((1, 1)))

    def cascade(self, n=None):
        """Cascade over the first n behaviors (all by default).

        A behavior's bundle feeds only the behaviors after it, so the first
        n bundles are the same as those of the full cascade.
        """
        cfg = self.config
        return propagation.cascade_forward(
            self.adjacencies[:n], self.unified_adj, self.store,
            self.behavior_names[:n], self.layer_counts[:n], disable_hpp=cfg.disable_hpp,
            disable_par=cfg.disable_par, disable_prj=cfg.disable_prj)

    def build_indices(self, cascade):
        """Fresh retrieval indices over the auxiliary item embedding spaces."""
        cfg = self.config
        indices = {}
        for b in range(len(self.behavior_names) - 1):
            bundle = cascade.per_behavior[b]
            indices[(b, "col")] = retrieval.build_index(bundle.e_col_i.data, mode=cfg.index_mode)
            indices[(b, "sem")] = retrieval.build_index(bundle.e_sem_i.data, mode=cfg.index_mode)
        return indices

    def score(self, users, items, cascade, indices, gate=None, codes=None, tape=True):
        """Head logits and traces of a batch of pairs: ``reasoning.reason_batch``."""
        cfg = self.config
        return reasoning.reason_batch(
            users, items, self.train_dataset, cascade, indices, self.store,
            cfg.tau, n_c=cfg.n_c, disable_rea=cfg.disable_rea,
            disable_cnj=cfg.disable_cnj, disable_dsj=cfg.disable_dsj,
            codes=codes, gate=gate, tape=tape)

    def reason_batch(self, users, items, cascade, indices, gate=None, codes=None):
        """(n x 2d mediators, traces) of a batch: the traces' mediators, stacked, as a tensor."""
        _, traces = self.score(users, items, cascade, indices, gate=gate, codes=codes,
                               tape=False)
        rows = [t.mediator for t in traces]
        return tg.Tensor(np.array(rows).reshape(len(rows), 2 * self.config.embedding_dim)), traces

    def batch_loss(self, per_behavior_triples, cascade, indices, gate=None):
        """Multi-task loss over one step's triples; returns (loss, n_pairs).

        Each task scores its positives and negatives in one call, so each
        user's first-layer rows and their grads are computed once: the
        target task through the reasoner, an auxiliary task through the
        concatenation head on its own behavior's embeddings. BPR margins use
        the head logits; the logistic squash would cap the achievable margin
        at 1 and stall the pairwise objective.
        """
        terms = []
        n_pairs = 0
        t_idx = len(self.behavior_names) - 1
        for b, triples in enumerate(per_behavior_triples):
            if not len(triples):
                continue
            users, pos, neg = np.asarray(triples, dtype=np.int64).T
            users, items = np.concatenate([users, users]), np.concatenate([pos, neg])
            y = (self.score(users, items, cascade, indices, gate=gate)[0] if b == t_idx
                 else reasoning.concat_scores(users, items, b, cascade, self.store))
            n = len(triples)
            terms.append(bpr_loss(tg.slice_rows(y, 0, n), tg.slice_rows(y, n, 2 * n)))
            n_pairs += n
        loss = multi_task_loss(terms, self.config.l2, self.store)
        return loss, n_pairs

    def fit(self, log=None):
        """Run the configured number of epochs; returns one loss per epoch.

        An epoch's loss is the sum of its steps' ``multi_task_loss`` (each
        task's summed BPR plus one L2 term) over its number of BPR pairs.
        ``log`` gets a line per epoch: index, that sum undivided, seconds.

        A step propagates the cascade only through the last behavior that
        has triples in its batch: no loss term reads a later behavior. Step
        0 runs the full cascade, because the epoch's retrieval indices and
        gate are built from it.
        """
        cfg = self.config
        ds = self.train_dataset
        history = []
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            per_behavior = [
                dataio.sample_bpr_triples(ds, b, m.nnz, self.rng)
                if m.nnz else np.empty((0, 3), dtype=np.int64)
                for b, m in enumerate(ds.matrices)]
            n_steps = max(1, -(-max(len(t) for t in per_behavior) // cfg.batch_size))
            epoch_loss = 0.0
            epoch_pairs = 0
            for step in range(n_steps):
                lo, hi = step * cfg.batch_size, (step + 1) * cfg.batch_size
                batch = [t[lo:hi] for t in per_behavior]
                if not any(len(t) for t in batch):
                    continue
                last = max(b for b, t in enumerate(batch) if len(t))
                cascade = self.cascade(None if step == 0 else last + 1)
                if step == 0:  # the epoch's indices and gate: plain arrays of step 0's cascade
                    indices = self.build_indices(cascade)
                    gate = reasoning.GateSnapshot.from_cascade(cascade)
                loss, n_pairs = self.batch_loss(batch, cascade, indices, gate=gate)
                self.store.zero_grad()
                loss.backward()
                self.store.adam_step(cfg.lr)
                epoch_loss += loss.item()
                epoch_pairs += n_pairs
                del loss, cascade  # free this step's tape before the next cascade
            mean_bpr = epoch_loss / max(epoch_pairs, 1)
            history.append(mean_bpr)
            if log is not None:
                log(f"{epoch}\t{epoch_loss:.6f}\t{time.perf_counter() - t0:.3f}")
        return history

    def checkpoint_header(self):
        ds = self.train_dataset
        return {
            "format_version": 1,
            "num_users": ds.num_users,
            "num_items": ds.num_items,
            "behaviors": list(self.behavior_names),
            "layer_counts": list(self.layer_counts),
            "step": self.store.step_count,
            "config": asdict(self.config),
            "slots": [{"name": n, "shape": list(self.store[n].data.shape)}
                      for n in self.store.names()],
        }

    def save(self, path):
        save_checkpoint(path, self.store, self.checkpoint_header())

    @classmethod
    def from_checkpoint(cls, path, train_dataset):
        ckpt = load_checkpoint(path)
        h = ckpt.header
        if (h["num_users"], h["num_items"]) != (train_dataset.num_users,
                                                train_dataset.num_items):
            raise CheckpointError("checkpoint dimensions do not match the dataset")
        if list(train_dataset.spec.names) != h["behaviors"]:
            raise CheckpointError("checkpoint behavior chain does not match the dataset")
        try:
            config = TrainConfig.from_json(h["config"])
            layer_counts = config.resolved_layer_counts(len(h["behaviors"]))
        except dataio.InputError as exc:
            raise CheckpointError(f"checkpoint config does not fit TrainConfig: {exc}") from exc
        if h["layer_counts"] != layer_counts:
            raise CheckpointError(f"checkpoint layer_counts {h['layer_counts']} differ from "
                                  f"its config's {layer_counts}")
        model = cls(train_dataset, config)
        want = {s["name"]: s["shape"] for s in model.checkpoint_header()["slots"]}
        got = {s["name"]: s["shape"] for s in h["slots"]}
        if got != want:
            raise CheckpointError("checkpoint slots do not match the model: " + ", ".join(
                f"{n}: checkpoint {got.get(n, 'has none')}, model {want.get(n, 'has none')}"
                for n in sorted(want.keys() | got.keys()) if got.get(n) != want.get(n)))
        model.store.load_arrays(ckpt.arrays)
        model.store.step_count = h["step"]
        return model


@dataclass
class Checkpoint:
    header: dict
    arrays: dict  # slot name -> float64 array (restored from f32 payload)


_MAGIC = b"CNRE"
_VERSION = 1


def save_checkpoint(path, store, header):
    """magic + version byte + u32-LE header length + JSON header + f32-LE slots."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION]))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for slot in header["slots"]:
            arr = store[slot["name"]].data.astype("<f4")
            if list(arr.shape) != slot["shape"]:
                raise CheckpointError(f"slot '{slot['name']}' shape drifted")
            fh.write(arr.tobytes(order="C"))


# every field checkpoint_header writes, with its check
_HEADER_FIELDS = {
    "format_version": (lambda v: dataio.is_int(v, _VERSION, _VERSION), f"{_VERSION}"),
    "num_users": _COUNT,
    "num_items": _COUNT,
    "behaviors": (dataio.list_of(lambda b: isinstance(b, str)), "a list of strings"),
    "layer_counts": (_COUNTS, "a list of ints of at least 0"),
    "step": _COUNT,
    "config": (lambda v: isinstance(v, dict), "an object"),
    "slots": (dataio.list_of(lambda s: isinstance(s, dict) and isinstance(s.get("name"), str)
                             and _COUNTS(s.get("shape"))),
              "a list of objects with a string name and a shape of ints of at least 0"),
}


def _parse_header(raw):
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    dataio.check_fields(header, _HEADER_FIELDS, "checkpoint header", CheckpointError,
                        required=_HEADER_FIELDS)
    names = [slot["name"] for slot in header["slots"]]
    if len(set(names)) != len(names):
        raise CheckpointError("checkpoint header names a slot twice")
    return header


def load_checkpoint(path):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if blob[:4] != _MAGIC:
        raise CheckpointError("bad magic: not a CNRE checkpoint")
    if len(blob) < 9:
        raise CheckpointError("truncated checkpoint header")
    if blob[4] != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {blob[4]}")
    (hlen,) = struct.unpack("<I", blob[5:9])
    if len(blob) < 9 + hlen:
        raise CheckpointError("truncated checkpoint header")
    header = _parse_header(blob[9:9 + hlen])
    off = 9 + hlen
    arrays = {}
    for slot in header["slots"]:
        name, shape = slot["name"], tuple(slot["shape"])
        nbytes = 4 * math.prod(shape)
        chunk = blob[off:off + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"truncated payload for slot '{name}'")
        try:
            arr = np.frombuffer(chunk, dtype="<f4").reshape(shape).astype(np.float64)
        except ValueError as exc:  # a zero-size shape numpy cannot allocate
            raise CheckpointError(f"slot '{name}': shape {list(shape)}: {exc}") from exc
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"slot '{name}' holds non-finite values")
        arrays[name] = arr
        off += nbytes
    if off != len(blob):
        raise CheckpointError("trailing bytes after declared payload")
    return Checkpoint(header=header, arrays=arrays)


def train(split, config, log=None):
    """Build a model on the train split and fit it; returns (model, ``fit``'s losses)."""
    model = CnreModel(split.train, config)
    history = model.fit(log=log)
    return model, history
