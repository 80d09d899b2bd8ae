"""Output fingerprint: sha256 digests of what cnre trains, evaluates and serves.

    python tests/fingerprint.py --seed 3
    python tests/fingerprint.py --size tiny --seed 3
    python tests/fingerprint.py --disable par --seed 3

A change meant to keep behaviour bit-identical prints the same digests as
its parent. The inputs are the benchmark's: bench/ is imported, never
written. The digests cover:

- ``fit``: the history and every slot's bytes (``store.state_arrays()``,
  in sorted slot order) after EPOCHS fit epochs on the train workload's
  data;
- ``evaluate``: the ``evaluate(..., ks=(10, num_items))`` JSON line on
  the train workload's eval users, after those epochs: NDCG@num_items sums
  1 / log2(rank + 1) over every user, so it moves with any user's rank;
- ``neighbors``: the full neighbor-id table of every retrieval index at the
  config's ``n_c`` (``retrieval.neighbors`` over all items, indices in
  sorted key order), on ``evaluate``'s snapshot after those epochs;
- ``explain``: REQUESTS explain-workload requests, each a ``rank_items``
  list (scores as ``float.hex``), an ``explain`` record and a
  ``counterfactual`` base, edited record and diff, all on the snapshot the
  bench's set-up takes with a bare ``model.cascade()``, so the digest covers
  that default;
- ``dataset``: the raw ids and every edge matrix's ``indptr`` and
  ``indices`` of the train workload's ``build_dataset_from_pairs`` dataset
  and of the explain workload's train split, read from its TSV files by
  ``cli.build_split``.

``--size bench`` runs the bench's own sizes (train 8000 x 1000, explain
4000 x 500); ``--size tiny`` runs a 60 x 40 funnel in about half a
second. The explain workload's files go to a temporary directory. The
history is printed too, as a readable check. pytest does not collect
this file.

``tests/fingerprints.txt`` holds the output of the tiny runs at seeds 3
and 4 and with ``--disable par``, and of the bench-size run at seed 3,
under the environment (``environment()``) it was taken in;
``tests/test_fingerprint.py`` checks the tiny lines against it. A change
meant to change outputs rewrites the file.

``--disable NAME`` (one of ABLATIONS) rebuilds the train workload's model
from its config with ``disable_<NAME>`` set, and prints only the train
workload's digests: history, ``fit``, ``evaluate`` and ``neighbors``. The
explain workload's checkpoint is trained by bench code at the default
config, so it has no ablated digest.
"""

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import platform
import sys
import tempfile

if __name__ == "__main__":
    # fit's parameters are bit-reproducible only for a fixed BLAS thread
    # count; set before numpy is first imported
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import funnel  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from cnre import dataio, evalexplain, retrieval, training  # noqa: E402

TINY = workloads.Size(funnel.FunnelShape(60, 40, 6, 3, 2, 0.2), dim=8, hyperedges=4,
                      batch_size=64, eval_users=10)
SIZES = {"bench": None, "tiny": TINY}  # None: each workload's own bench size
EPOCHS = 2
REQUESTS = 300
ABLATIONS = ("hpp", "par", "prj", "rea", "cnj", "dsj")  # TrainConfig's disable_<name> flags


def environment():
    """{key: value} of what the digests depend on beyond the code and the thread count:
    the numpy version, OpenBLAS's build configuration and the CPU kernel it picked.

    The bundled OpenBLAS is a DYNAMIC_ARCH build, which picks its kernels per
    CPU at run time, so the kernel is read from the library numpy loaded; where
    it cannot be, the CPU model stands in for it.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        kernel = "cpu " + _cpu_model()
    else:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        kernel = corename().decode()
    return {"numpy": np.__version__, "openblas": blas.get("openblas configuration", "unknown"),
            "kernel": kernel}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def _line(h, payload):
    h.update(payload.encode("utf-8") + b"\n")


def dataset_digest(datasets):
    """Digest of each dataset's raw ids and its matrices' indptr and indices."""
    h = hashlib.sha256()
    for ds in datasets:
        _line(h, json.dumps([ds.user_ids, ds.item_ids]))
        for m in ds.matrices:
            h.update(m.indptr.tobytes())
            h.update(m.indices.tobytes())
    return h.hexdigest()


def train_digests(size, seed, workdir, disable=None):
    """(the built dataset, history, fit, evaluate and neighbors digests) on the train
    workload, with the model's disable_<disable> flag set if disable is given."""
    w = workloads.make("train", seed, workdir, size)
    dataset = dataio.build_dataset_from_pairs(w.pairs, dataio.BehaviorSpec(funnel.BEHAVIORS))
    w.setup()  # a model configured for one epoch per fit call, as the bench runs it
    if disable is not None:
        config = dataclasses.replace(w.model.config, **{f"disable_{disable}": True})
        w.model = training.CnreModel(w.model.train_dataset, config)
    history = [loss for _ in range(EPOCHS) for loss in w.model.fit()]
    fit = hashlib.sha256()
    _line(fit, json.dumps([float.hex(loss) for loss in history]))
    arrays = w.model.store.state_arrays()
    for name in sorted(arrays):
        _line(fit, name)
        fit.update(arrays[name].tobytes())
    report = evalexplain.evaluate(w.model, w.split, ks=(10, w.model.train_dataset.num_items))
    indices = w.model.build_indices(w.model.cascade())  # evaluate's snapshot
    neighbors = hashlib.sha256()
    for key in sorted(k for k in indices if k != "gate"):
        _line(neighbors, json.dumps(key))
        index = indices[key]
        neighbors.update(retrieval.neighbors(index, range(index.size), w.model.config.n_c))
    return (dataset, history, fit.hexdigest(),
            hashlib.sha256(report.to_json_line().encode()).hexdigest(), neighbors.hexdigest())


def explain_digest(size, seed, workdir):
    """(train split's dataset, digest of the first REQUESTS requests in plan order)."""
    w = workloads.make("explain", seed, workdir, size)
    w.setup()
    h = hashlib.sha256()
    for k in range(REQUESTS):
        ranked, _, record, (base, edited, diff) = w._request(*w.plan[k % len(w.plan)])
        _line(h, json.dumps([[i, float.hex(score), path] for i, score, path in ranked]))
        for rec in (record, base, edited):
            _line(h, rec.to_json_line())
        _line(h, json.dumps(diff, sort_keys=True))
    return w.model.train_dataset, h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="bench")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--disable", choices=ABLATIONS)
    args = parser.parse_args(argv)
    size = SIZES[args.size]
    with tempfile.TemporaryDirectory() as workdir:
        train, history, fit, report, neighbors = train_digests(size, args.seed, workdir,
                                                               args.disable)
        lines = [("history", *history), ("fit", fit), ("evaluate", report),
                 ("neighbors", neighbors)]
        if args.disable is None:
            explain_train, explain = explain_digest(size, args.seed, workdir)
            lines += [("explain", explain), ("dataset", dataset_digest([train, explain_train]))]
    for line in lines:
        print(*line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
