"""Command-line surface: train / eval / explain / counterfactual / sweep.

Runs are driven by a JSON manifest naming the per-behavior files, the
cascade order ("auto" derives it from conversion rates) and all training
settings, so every experiment is reproducible from the manifest alone.
Exit codes: 0 success, 2 manifest/validation error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dataio, evalexplain, training
from .tensorgrad import NonFiniteError


class ManifestError(ValueError):
    pass


_TOP_KEYS = {"behaviors", "files", "order", "split_seed", "output_dir", "ks", "train"}


def load_manifest(path):
    """Parse and validate a run manifest; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ManifestError(f"unknown manifest keys: {sorted(unknown)}")
    for key in ("behaviors", "files"):
        if key not in raw:
            raise ManifestError(f"manifest missing required key '{key}'")
    behaviors = list(raw["behaviors"])
    files = dict(raw["files"])
    for name in behaviors:
        if name not in files:
            raise ManifestError(f"no file listed for behavior '{name}'")
        if not os.path.exists(files[name]):
            raise ManifestError(f"missing interaction file: {files[name]}")
    extra_files = set(files) - set(behaviors)
    if extra_files:
        raise ManifestError(f"files listed for unknown behaviors: {sorted(extra_files)}")
    try:
        config = training.TrainConfig(**dict(raw.get("train", {})))
    except (TypeError, ValueError) as exc:  # an unknown or mistyped key
        raise ManifestError(f"manifest train block: {exc}") from exc
    order = raw.get("order", behaviors)
    if order != "auto":
        order = list(order)
        if sorted(order) != sorted(behaviors) or order[-1] != behaviors[-1]:
            raise ManifestError("order must permute the behaviors with the target last")
    return {
        "behaviors": behaviors,
        "files": files,
        "order": order,
        "split_seed": int(raw.get("split_seed", 0)),
        "output_dir": raw.get("output_dir", "cnre_out"),
        "ks": [int(k) for k in raw.get("ks", [10, 50])],
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


def cmd_train(args):
    manifest = load_manifest(args.manifest)
    out_dir = args.out or manifest["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
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
    model, split = _load_model(args.checkpoint, manifest)
    ks = args.ks or manifest["ks"]
    report = evalexplain.evaluate(model, split, ks=ks)
    line = report.to_json_line()
    print(line)
    out_dir = args.out or manifest["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
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
    with open(args.sweep, "r", encoding="utf-8") as fh:
        sweep_spec = json.load(fh)
    unknown = set(sweep_spec) - {"type", "grid", "fractions", "user_fraction", "ks"}
    if unknown:
        raise ManifestError(f"unknown sweep keys: {sorted(unknown)}")
    split = build_split(manifest)
    ks = sweep_spec.get("ks", [10])
    if sweep_spec.get("type") == "layers":
        rows = evalexplain.layer_sweep(split, manifest["train"],
                                       sweep_spec["grid"], ks=ks)
    elif sweep_spec.get("type") == "robustness":
        rows = evalexplain.robustness_sweep(
            split, manifest["train"], sweep_spec["fractions"], ks=ks,
            user_fraction=sweep_spec.get("user_fraction", 0.5))
    else:
        raise ManifestError("sweep type must be 'layers' or 'robustness'")
    tsv = evalexplain.rows_to_tsv(rows)
    print(tsv, end="")
    out_dir = args.out or manifest["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.tsv"), "w", encoding="utf-8") as fh:
        fh.write(tsv)
    return 0


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
    p_eval.add_argument("--ks", type=int, nargs="+", default=None)
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
    except (ManifestError, training.CheckpointError, ValueError, KeyError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
