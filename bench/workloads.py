"""The benchmark's workloads: train and explain.

Each workload is built in three steps:

* ``__init__`` makes the inputs from the seed (funnel pairs, and for
  ``explain`` the TSV files, manifest and checkpoint). It is not timed.
* ``setup`` is what ``setup_s`` times: data build and split, model build
  or checkpoint load, and the cascade and index build where needed.
  ``release`` drops what ``setup`` built, so that the next set-up starts
  from the inputs alone.
* ``run`` does the timed work and checks its outputs. It runs the checks
  through ``tracer.paused``, so a traced run keeps them out of its spans.
  With ``seconds=0`` it does one fixed unit of work: one fit epoch with
  its evaluation, or ``Size.requests`` requests.

Rates are total work over total time across the whole run. On a shared
2-core box the machine's speed drifts by about 15% over 20 s windows and
by about 4% over 40 s windows, so a rate needs a long window to be steady,
and train interleaves its fit epochs with its evaluations so that both
rates span the run.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from cnre import cli, dataio, evalexplain, reasoning, training

import checks
import funnel

# train: least timed epochs in a run with seconds > 0, so that a slow host
# still runs the same number of epochs (evaluation work depends on it).
MIN_EPOCHS = 3


@dataclass(frozen=True)
class Size:
    shape: funnel.FunnelShape
    dim: int = 64
    hyperedges: int = 32
    batch_size: int = 4096
    eval_users: int = 300   # train: fixed sample of test users evaluated after each epoch
    requests: int = 200     # explain: least requests per run (p95 needs 200)
    check_users: int = 3    # batches checked pair by pair, per evaluation or run
    check_pairs: int = 20   # sampled pairs per checked batch


SIZES = {
    # Size M on the sparse funnel.
    "train": Size(funnel.FunnelShape(8000, 1000, 9, 4, 3, 0.15)),
    # 500 items, not 1000: three set-ups of four HNSW indexes must fit the
    # run-time budget (see README).
    "explain": Size(funnel.FunnelShape(4000, 500, 9, 4, 3, 0.15)),
}


@dataclass
class Outcome:
    pairs_per_s: float = 0.0       # pairs the main phase pushes through the model
    rank_pairs_per_s: float = 0.0  # scored pairs of full ranking
    work_seconds: float = 0.0      # every timed section, checks excluded
    attempted: int = 0
    failed: int = 0
    details: dict = field(default_factory=dict)


class Untraced:
    """Stands in for ``tracer.Tracer`` when a run is not traced."""

    @staticmethod
    def span(_name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def paused(fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _sample(rng, n, k):
    return sorted(rng.choice(n, size=min(k, n), replace=False).tolist())


class Train:
    """fit epochs at size M, each followed by evaluate on a fixed sample of test users.

    A timed run does at least MIN_EPOCHS epochs: the evaluation's work
    depends on how far the model has trained, so a fixed count keeps it the
    same from run to run.
    """

    name = "train"

    def __init__(self, size, seed, workdir):
        self.size = size
        self.seed = seed
        edges = funnel.make_funnel(size.shape, seed)
        self.pairs = [funnel.raw_pairs(edges[b]) for b in funnel.BEHAVIORS]

    def release(self):
        self.model = self.split = None

    def setup(self):
        s = self.size
        dataset = dataio.build_dataset_from_pairs(self.pairs, dataio.BehaviorSpec(funnel.BEHAVIORS))
        split = dataio.leave_one_out_split(dataset, self.seed)
        config = training.TrainConfig(embedding_dim=s.dim, hyperedges=s.hyperedges,
                                      batch_size=s.batch_size, epochs=1, seed=self.seed)
        self.model = training.CnreModel(split.train, config)
        users = sorted(split.test_positives)
        users = [users[k] for k in _sample(np.random.default_rng(self.seed), len(users),
                                           s.eval_users)]
        self.split = dataio.SplitDataset(
            train=split.train, test_positives={u: split.test_positives[u] for u in users})

    def run(self, seconds, tracer=Untraced):
        untimed = tracer.paused
        out = Outcome()
        least = MIN_EPOCHS if seconds > 0 else 1
        train = self.model.train_dataset
        fit_pairs = sum(len(e) for e in train.per_behavior_edges)
        owned = train.user_items(train.spec.target_index)
        eval_pairs = sum(train.num_items - len(owned[u]) for u in self.split.test_positives)
        fit_s = eval_s = 0.0
        epochs = 0
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            history = self.model.fit()
            t1 = time.perf_counter()
            rep = evalexplain.evaluate(self.model, self.split, ks=(10,))
            t2 = time.perf_counter()
            fit_s += t1 - t0
            eval_s += t2 - t1
            epochs += 1
            out.attempted += 1 + rep.user_count
            out.failed += untimed(self._check_fit, history)
            out.failed += untimed(self._check_eval, rep, epochs)
            if epochs >= least and time.perf_counter() - start >= seconds:
                break
        out.work_seconds = fit_s + eval_s
        out.pairs_per_s = epochs * fit_pairs / fit_s
        out.rank_pairs_per_s = epochs * eval_pairs / eval_s
        out.details.update(epochs=epochs, bpr_last=history[-1],
                           train_pairs_per_s=out.pairs_per_s,
                           eval_pairs_per_s=out.rank_pairs_per_s,
                           hr_at_10=rep.hr[10], ndcg_at_10=rep.ndcg[10],
                           path_fractions=rep.path_fractions)
        return out

    def _check_fit(self, history):
        return int(not (np.all(np.isfinite(history)) and all(
            np.all(np.isfinite(a)) for a in self.model.store.state_arrays().values())))

    def _check_eval(self, rep, epoch):
        """Evaluated users failed: all of them if the report is wrong, else sampled ones."""
        model, split = self.model, self.split
        if checks.report(rep, split, model.train_dataset):
            return rep.user_count
        failed = 0
        cascade = model.cascade()
        indices = model.build_indices(cascade)
        train = model.train_dataset
        owned = train.user_items(train.spec.target_index)
        rng = np.random.default_rng([self.seed, epoch])
        users = sorted(split.test_positives)
        for k in _sample(rng, len(users), self.size.check_users):
            u = users[k]
            items = [i for i in range(train.num_items) if i not in owned[u]]
            sample = {items.index(split.test_positives[u]),
                      *_sample(rng, len(items), self.size.check_pairs - 1)}
            failed += checks.batch_against_single(model, cascade, indices, u, items,
                                                  sorted(sample)) > 0
        return failed


class Explain:
    """Closed-loop client on the `cnre explain` path with an HNSW index."""

    name = "explain"

    def __init__(self, size, seed, workdir):
        self.size = size
        self.seed = seed
        edges = funnel.make_funnel(size.shape, seed)
        files = funnel.write_tsv(edges, workdir)
        self.manifest_path = os.path.join(workdir, "manifest.json")
        with open(self.manifest_path, "w", encoding="utf-8") as fh:
            json.dump({"behaviors": list(funnel.BEHAVIORS), "files": files,
                       "order": "auto", "split_seed": seed,
                       "train": {"embedding_dim": size.dim, "hyperedges": size.hyperedges,
                                 "index_mode": "approximate", "seed": seed}}, fh)
        manifest = cli.load_manifest(self.manifest_path)
        split = cli.build_split(manifest)
        self.checkpoint = os.path.join(workdir, "model.cnre")
        training.CnreModel(split.train, manifest["train"]).save(self.checkpoint)
        self.plan = self._plan(split)

    def _plan(self, split):
        """Request stream: (user, raw user, a carted, not bought item of the user)."""
        train = split.train
        carts = train.user_items(train.spec.index_of("cart"))
        buys = train.user_items(train.spec.target_index)
        users = sorted(split.test_positives)
        plan = []
        for k in np.random.default_rng(self.seed).permutation(len(users)).tolist():
            u = users[k]
            chain = sorted(carts[u] - buys[u])
            if chain:
                plan.append((u, train.decode_user(u), train.decode_item(chain[0])))
        return plan

    def release(self):
        self.model = self.cascade = self.indices = None

    def setup(self):
        manifest = cli.load_manifest(self.manifest_path)
        split = cli.build_split(manifest)
        self.model = training.CnreModel.from_checkpoint(self.checkpoint, split.train)
        self.cascade = self.model.cascade()
        self.indices = self.model.build_indices(self.cascade)

    def _request(self, u, u_raw, chain_raw):
        """rank_items, explain the top-ranked item, counterfactual on a chain item."""
        model, cascade, indices = self.model, self.cascade, self.indices
        t0 = time.perf_counter()
        ranked = evalexplain.rank_items(u, model, cascade=cascade, indices=indices)
        rank_s = time.perf_counter() - t0
        top_raw = model.train_dataset.decode_item(ranked[0][0])
        record = evalexplain.explain(u_raw, top_raw, model, cascade=cascade, indices=indices)
        cf = evalexplain.counterfactual(u_raw, chain_raw,
                                        evalexplain.CounterfactualEdit(drop="cart"), model,
                                        cascade=cascade, indices=indices)
        return ranked, rank_s, record, cf

    def run(self, seconds, tracer=Untraced):
        untimed = tracer.paused
        out = Outcome()
        latencies = []
        pairs = rank_pairs = 0
        rank_s = 0.0
        start = time.perf_counter()
        k = 0
        while True:
            u, u_raw, chain_raw = self.plan[k % len(self.plan)]
            before = untimed(self.model.store.state_arrays)
            t0 = time.perf_counter()
            ranked, dt, record, cf = tracer.span("bench.request", self._request,
                                                 u, u_raw, chain_raw)
            latencies.append(time.perf_counter() - t0)
            pairs += len(ranked) + 3
            rank_pairs += len(ranked)
            rank_s += dt
            out.attempted += 1
            out.failed += untimed(self._check, k, u, ranked, record, cf, before) > 0
            k += 1
            if k >= self.size.requests and time.perf_counter() - start >= seconds:
                break
        out.work_seconds = float(np.sum(latencies))
        out.pairs_per_s = pairs / out.work_seconds
        out.rank_pairs_per_s = rank_pairs / rank_s
        lat_ms = np.asarray(latencies) * 1e3
        out.details.update(requests=k, request_p50_ms=float(np.percentile(lat_ms, 50)),
                           request_p95_ms=float(np.percentile(lat_ms, 95)),
                           requests_per_s=k / out.work_seconds,
                           eval_pairs_per_s=out.rank_pairs_per_s)
        return out

    def _check(self, k, u, ranked, record, cf, before):
        model = self.model
        train = model.train_dataset
        base, edited, diff = cf
        failed = checks.ranked_paths(ranked, train, u)
        failed += abs(record.score - ranked[0][1]) > checks.LOGIT_TOL
        failed += sum(checks.explain_record(r) for r in (record, base, edited))
        flags = list(reasoning.observe_chain(train, u, train.encode_item(edited.item)))
        failed += diff["path_before"] != reasoning.dispatch(tuple(flags)).value
        flags[train.spec.index_of("cart")] = 0
        failed += diff["path_after"] != reasoning.dispatch(tuple(flags)).value
        failed += checks.parameters_unchanged(before, model.store)
        if k < self.size.check_users:
            items = [i for i, _, _ in ranked]
            rng = np.random.default_rng([self.seed, k])
            failed += checks.batch_against_single(
                model, self.cascade, self.indices, u, items,
                _sample(rng, len(items), self.size.check_pairs))
        return failed


WORKLOADS = {cls.name: cls for cls in (Train, Explain)}


def make(name, seed, workdir, size=None):
    """Prepare a workload's inputs; ``size`` overrides SIZES (smoke test)."""
    return WORKLOADS[name](size or SIZES[name], seed, workdir)
