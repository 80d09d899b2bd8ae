"""Prediction head, BPR multi-task losses, training loop and checkpoints."""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, fields, asdict

import numpy as np

from . import dataio, propagation, reasoning, retrieval, tensorgrad as tg


class CheckpointError(dataio.InputError):
    """Unreadable or inconsistent checkpoint file."""


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# TrainConfig field annotation -> (value check, description); values may come from JSON
_FIELD_TYPES = {
    "int": (_is_int, "an int"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list | None": (lambda v: v is None or (isinstance(v, list) and all(map(_is_int, v))),
                    "null or a list of ints"),
}

# Upper limit on embedding_dim and hyperedges (16x the default width). The
# logic operators hold 3d x 2d weights (50 MB each at d = 1024), so a much
# larger value would fail allocating the model instead of as invalid input.
MAX_WIDTH = 1024

# TrainConfig field -> (range check, description), applied to a value of the right type
_FIELD_RANGES = {
    **dict.fromkeys(("embedding_dim", "hyperedges"),
                    (lambda v: 1 <= v <= MAX_WIDTH, f"between 1 and {MAX_WIDTH}")),
    **dict.fromkeys(("n_c", "batch_size"), (lambda v: v >= 1, "at least 1")),
    **dict.fromkeys(("epochs", "seed"), (lambda v: v >= 0, "at least 0")),
    "layer_counts": (lambda v: v is None or all(c >= 0 for c in v),
                     "null or a list of counts of at least 0"),
    "lr": (lambda v: 0 < v < math.inf, "finite and above 0"),
    "l2": (lambda v: 0 <= v < math.inf, "finite and at least 0"),
    "tau": (lambda v: 0 <= v <= 1, "in [0, 1]"),
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
        for f in fields(self):
            value = getattr(self, f.name)
            valid, want = _FIELD_TYPES[f.type]
            if valid(value):
                valid, want = _FIELD_RANGES.get(f.name, (valid, want))
            if not valid(value):
                raise dataio.InputError(f"config field '{f.name}' must be {want}, not {value!r}")

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


def auxiliary_task_score(users, items, behavior, cascade, params):
    """Head logits of auxiliary pairs, via a strong-style mediator."""
    bundle = cascade.per_behavior[behavior]
    med = reasoning.strong_mediator(
        tg.index_rows(bundle.e_u, np.asarray(users, dtype=np.int64)),
        tg.index_rows(bundle.e_i, np.asarray(items, dtype=np.int64)),
    )
    return predict_logit(med, params)


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

    def cascade(self):
        cfg = self.config
        return propagation.cascade_forward(
            self.adjacencies, self.unified_adj, self.store,
            self.behavior_names, self.layer_counts, disable_hpp=cfg.disable_hpp,
            disable_par=cfg.disable_par, disable_prj=cfg.disable_prj)

    def build_indices(self, cascade):
        """Fresh retrieval indices over the auxiliary item embedding spaces."""
        cfg = self.config
        indices = {}
        for b in range(len(self.behavior_names) - 1):
            bundle = cascade.per_behavior[b]
            indices[(b, "col")] = retrieval.build_index(
                bundle.e_col_i.data, mode=cfg.index_mode, seed=cfg.seed)
            indices[(b, "sem")] = retrieval.build_index(
                bundle.e_sem_i.data, mode=cfg.index_mode, seed=cfg.seed)
        return indices

    def reason_batch(self, users, items, cascade, indices, gate=None, codes=None, tape=True):
        cfg = self.config
        return reasoning.reason_batch(
            users, items, self.train_dataset, cascade, indices, self.store,
            cfg.tau, n_c=cfg.n_c, disable_rea=cfg.disable_rea,
            disable_cnj=cfg.disable_cnj, disable_dsj=cfg.disable_dsj,
            codes=codes, gate=gate, tape=tape)

    def batch_loss(self, per_behavior_triples, cascade, indices, gate=None):
        """Multi-task loss over one step's triples; returns (loss, n_pairs)."""
        terms = []
        n_pairs = 0
        t_idx = len(self.behavior_names) - 1
        for b, triples in enumerate(per_behavior_triples):
            if not len(triples):
                continue
            users, pos, neg = np.asarray(triples, dtype=np.int64).T
            # BPR margins use the head logits; the logistic squash would cap
            # the achievable margin at 1 and stall the pairwise objective
            if b == t_idx:
                med_pos, _ = self.reason_batch(users, pos, cascade, indices, gate=gate)
                med_neg, _ = self.reason_batch(users, neg, cascade, indices, gate=gate)
                y_pos = predict_logit(med_pos, self.store)
                y_neg = predict_logit(med_neg, self.store)
            else:
                y_pos = auxiliary_task_score(users, pos, b, cascade, self.store)
                y_neg = auxiliary_task_score(users, neg, b, cascade, self.store)
            terms.append(bpr_loss(y_pos, y_neg))
            n_pairs += len(triples)
        loss = multi_task_loss(terms, self.config.l2, self.store)
        return loss, n_pairs

    def fit(self, log=None):
        """Run the configured number of epochs; returns per-epoch mean BPR."""
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
                cascade = self.cascade()
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
            config = TrainConfig(**h["config"])
            config.resolved_layer_counts(len(h["behaviors"]))
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint config does not fit TrainConfig: {exc}") from exc
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


def _is_count(value):
    return _is_int(value) and value >= 0


def _is_slot(value):
    return (isinstance(value, dict) and isinstance(value.get("name"), str)
            and isinstance(value.get("shape"), list) and all(map(_is_count, value["shape"])))


# header fields CnreModel.from_checkpoint reads, with their checks
_HEADER_FIELDS = {
    "num_users": _is_count,
    "num_items": _is_count,
    "behaviors": lambda v: isinstance(v, list) and all(isinstance(b, str) for b in v),
    "step": _is_count,
    "config": lambda v: isinstance(v, dict),
    "slots": lambda v: isinstance(v, list) and all(map(_is_slot, v)),
}


def _parse_header(raw):
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    for key, valid in _HEADER_FIELDS.items():
        if key not in header:
            raise CheckpointError(f"checkpoint header has no '{key}'")
        if not valid(header[key]):
            raise CheckpointError(f"checkpoint header field '{key}' is malformed")
    names = [slot["name"] for slot in header["slots"]]
    if len(set(names)) != len(names):
        raise CheckpointError("checkpoint header names a slot twice")
    return header


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
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
    """Build a model on the train split and fit it; returns (model, history)."""
    model = CnreModel(split.train, config)
    history = model.fit(log=log)
    return model, history
