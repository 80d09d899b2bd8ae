"""Command-line surface: train / eval / explain / counterfactual / sweep.

Runs are driven by a JSON manifest naming the per-behavior files, the
cascade order ("auto" derives it from conversion rates) and all training
settings, so every experiment is reproducible from the manifest alone.
Exit codes: 0 success, 2 invalid input (``dataio.InputError``, which covers
an input file that cannot be read), 3 numerical abort; any other exception
is a fault in the program and ends it with a traceback (exit 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import dataio, evalexplain, training
from .tensorgrad import NonFiniteError


class ManifestError(dataio.InputError):
    pass


_STRINGS = dataio.list_of(lambda v: isinstance(v, str))
_KS = (lambda v: v != [] and dataio.list_of(lambda k: dataio.is_int(k, 1))(v),
       "a non-empty list of ints of at least 1")

# top-level manifest key -> (check, description); values come from JSON
_MANIFEST_FIELDS = {
    "behaviors": (_STRINGS, "a list of strings"),
    "files": (lambda v: isinstance(v, dict) and all(isinstance(p, str) for p in v.values()),
              "an object mapping behaviors to file paths"),
    "order": (lambda v: v == "auto" or _STRINGS(v), "\"auto\" or a list of behaviors"),
    "split_seed": (lambda v: dataio.is_int(v, 0), "an int of at least 0"),
    "output_dir": (lambda v: isinstance(v, str), "a string"),
    "ks": _KS,
    "train": (lambda v: isinstance(v, dict), "an object"),
}

# sweep spec key -> (check, description); "type" picks the sweep and its required key
_SWEEP_FIELDS = {
    "type": (lambda v: v in ("layers", "robustness"), "\"layers\" or \"robustness\""),
    "grid": (lambda v: v != [] and dataio.list_of(
        dataio.list_of(lambda n: dataio.is_int(n, 0)))(v),
             "a non-empty list of layer-count lists of ints of at least 0"),
    "fractions": (dataio.list_of(lambda v: dataio.is_number(v, 0, 1)),
                  "a list of numbers in [0, 1]"),
    "user_fraction": (lambda v: dataio.is_number(v, 0, 1), "a number in [0, 1]"),
    "ks": _KS,
}


def _read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError or UnicodeDecodeError
        raise ManifestError(f"cannot read {what} {path}: {exc}") from exc


def load_manifest(path):
    """Parse and validate a run manifest; unknown keys and mistyped values are rejected."""
    raw = _read_json(path, "manifest")
    dataio.check_fields(raw, _MANIFEST_FIELDS, f"manifest {path}", ManifestError,
                        required=("behaviors", "files"))
    behaviors, files = raw["behaviors"], raw["files"]
    for name in behaviors:
        if name not in files:
            raise ManifestError(f"no file listed for behavior '{name}'")
        if not os.path.exists(files[name]):
            raise ManifestError(f"missing interaction file: {files[name]}")
    extra_files = set(files) - set(behaviors)
    if extra_files:
        raise ManifestError(f"files listed for unknown behaviors: {sorted(extra_files)}")
    try:
        config = training.TrainConfig.from_json(raw.get("train", {}))
        config.resolved_layer_counts(len(behaviors))
    except dataio.InputError as exc:  # an unknown, mistyped or misfitting key
        raise ManifestError(f"manifest {path} field 'train': {exc}") from exc
    order = raw.get("order", behaviors)
    if order != "auto" and (sorted(order) != sorted(behaviors)
                            or order[-1:] != behaviors[-1:]):
        raise ManifestError("order must permute the behaviors with the target last")
    return {
        "behaviors": behaviors,
        "files": files,
        "order": order,
        "split_seed": raw.get("split_seed", 0),
        "output_dir": raw.get("output_dir", "cnre_out"),
        "ks": raw.get("ks", [10, 50]),
        "train": config,
    }


def build_split(manifest):
    spec = dataio.BehaviorSpec(tuple(manifest["behaviors"]))
    dataset = dataio.build_dataset(manifest["files"], spec)
    order = manifest["order"]
    if order == "auto":
        order = dataio.compute_conversion_order(dataset)
    if list(order) != list(spec.names):
        dataset = dataio.reorder_behaviors(dataset, list(order))
    return dataio.leave_one_out_split(dataset, manifest["split_seed"])


def _load_model(checkpoint_path, manifest):
    split = build_split(manifest)
    model = training.CnreModel.from_checkpoint(checkpoint_path, split.train)
    return model, split


def _output_dir(args, manifest):
    """--out, or the manifest's output_dir, created now, before any data is loaded."""
    out_dir = args.out or manifest["output_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a path under a file, a file, no permission
        raise dataio.InputError(f"cannot create output directory {out_dir}: {exc}") from exc
    return out_dir


def cmd_train(args):
    manifest = load_manifest(args.manifest)
    out_dir = _output_dir(args, manifest)
    split = build_split(manifest)
    log_path = os.path.join(out_dir, "train_log.txt")
    with open(log_path, "w", encoding="utf-8") as log_fh:
        def log(line):
            print(line)
            log_fh.write(line + "\n")
        model, _ = training.train(split, manifest["train"], log=log)
    ckpt_path = os.path.join(out_dir, "checkpoint.cnre")
    model.save(ckpt_path)
    print(f"checkpoint written to {ckpt_path}")
    return 0


def cmd_eval(args):
    manifest = load_manifest(args.manifest)
    out_dir = _output_dir(args, manifest)
    model, split = _load_model(args.checkpoint, manifest)
    ks = args.ks or manifest["ks"]
    report = evalexplain.evaluate(model, split, ks=ks)
    line = report.to_json_line()
    print(line)
    with open(os.path.join(out_dir, "metrics.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return 0


def cmd_explain(args):
    manifest = load_manifest(args.manifest)
    model, _ = _load_model(args.checkpoint, manifest)
    record = evalexplain.explain(args.user, args.item, model)
    print(record.to_json_line())
    return 0


def cmd_counterfactual(args):
    manifest = load_manifest(args.manifest)
    model, _ = _load_model(args.checkpoint, manifest)
    edit = evalexplain.CounterfactualEdit(drop=args.drop, add=args.add)
    base, edited, diff = evalexplain.counterfactual(args.user, args.item, edit, model)
    print(json.dumps({"base": json.loads(base.to_json_line()),
                      "edited": json.loads(edited.to_json_line()),
                      "diff": diff}, sort_keys=True))
    return 0


def cmd_sweep(args):
    manifest = load_manifest(args.manifest)
    sweep_spec = _read_json(args.sweep, "sweep spec")
    what = f"sweep spec {args.sweep}"
    dataio.check_fields(sweep_spec, _SWEEP_FIELDS, what, ManifestError, required=("type",))
    needs = "grid" if sweep_spec["type"] == "layers" else "fractions"
    dataio.check_fields(sweep_spec, _SWEEP_FIELDS, what, ManifestError, required=(needs,))
    for counts in sweep_spec.get("grid", []):
        try:
            dataclasses.replace(manifest["train"], layer_counts=counts).resolved_layer_counts(
                len(manifest["behaviors"]))
        except dataio.InputError as exc:
            raise ManifestError(f"{what} field 'grid' entry {counts}: {exc}") from exc
    ks = sweep_spec.get("ks", [10])
    out_dir = _output_dir(args, manifest)
    split = build_split(manifest)
    if needs == "grid":
        rows = evalexplain.layer_sweep(split, manifest["train"],
                                       sweep_spec["grid"], ks=ks)
    else:
        rows = evalexplain.robustness_sweep(
            split, manifest["train"], sweep_spec["fractions"], ks=ks,
            user_fraction=sweep_spec.get("user_fraction", 0.5))
    tsv = evalexplain.rows_to_tsv(rows)
    print(tsv, end="")
    with open(os.path.join(out_dir, "sweep.tsv"), "w", encoding="utf-8") as fh:
        fh.write(tsv)
    return 0


def _positive_int(text):
    k = int(text)  # argparse reports a ValueError as an invalid value
    if k < 1:
        raise argparse.ArgumentTypeError(f"{k} is not at least 1")
    return k


def build_parser():
    parser = argparse.ArgumentParser(prog="cnre",
                                     description="multi-behavior recommendation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a manifest")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--out", default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--ks", type=_positive_int, nargs="+", default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_exp = sub.add_parser("explain", help="explain one (user, item) pair")
    p_exp.add_argument("--checkpoint", required=True)
    p_exp.add_argument("--manifest", required=True)
    p_exp.add_argument("--user", required=True)
    p_exp.add_argument("--item", required=True)
    p_exp.set_defaults(func=cmd_explain)

    p_cf = sub.add_parser("counterfactual", help="edit a behavior chain and re-reason")
    p_cf.add_argument("--checkpoint", required=True)
    p_cf.add_argument("--manifest", required=True)
    p_cf.add_argument("--user", required=True)
    p_cf.add_argument("--item", required=True)
    group = p_cf.add_mutually_exclusive_group(required=True)
    group.add_argument("--drop", default=None)
    group.add_argument("--add", default=None)
    p_cf.set_defaults(func=cmd_counterfactual)

    p_sw = sub.add_parser("sweep", help="layer-count or robustness sweep")
    p_sw.add_argument("--manifest", required=True)
    p_sw.add_argument("--sweep", required=True, help="sweep spec JSON file")
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except dataio.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
