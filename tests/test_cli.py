"""Manifest validation, exit codes, and the full command round trip."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cnre import cli, evalexplain, tensorgrad as tg, training
from cnre.synthetic import make_planted_dataset


@pytest.fixture
def workspace(tmp_path):
    """Interaction files + manifest for a small planted dataset."""
    return _workspace(tmp_path, make_planted_dataset(num_users=15, num_items=10, n_groups=3,
                                                     seed=0))


def _workspace(tmp_path, ds):
    files = {}
    for b, name in enumerate(ds.spec.names):
        p = tmp_path / f"{name}.tsv"
        lines = [f"{ds.decode_user(u)}\t{ds.decode_item(i)}"
                 for u, i in sorted(ds.per_behavior_edges[b])]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        files[name] = str(p)
    manifest = {
        "behaviors": list(ds.spec.names),
        "files": files,
        "order": list(ds.spec.names),
        "split_seed": 0,
        "output_dir": str(tmp_path / "out"),
        "ks": [5, 10],
        "train": {"embedding_dim": 6, "hyperedges": 3, "epochs": 2,
                  "seed": 0, "n_c": 3},
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    return tmp_path, mpath, manifest, ds


class TestManifest:
    def test_loads_and_validates(self, workspace):
        _, mpath, manifest, _ = workspace
        loaded = cli.load_manifest(str(mpath))
        assert loaded["behaviors"] == manifest["behaviors"]
        assert loaded["train"].embedding_dim == 6

    def test_unknown_top_key_rejected(self, workspace):
        tmp_path, mpath, manifest, _ = workspace
        manifest["surprise"] = 1
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(cli.ManifestError, match="surprise"):
            cli.load_manifest(str(mpath))

    def test_int_accepted_for_float_train_value(self, workspace):
        _, mpath, manifest, _ = workspace
        manifest["train"]["tau"] = 1
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        assert cli.load_manifest(str(mpath))["train"].tau == 1

    def test_unknown_train_key_rejected(self, workspace):
        tmp_path, mpath, manifest, _ = workspace
        manifest["train"]["learning_rate"] = 0.1
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(cli.ManifestError, match="learning_rate"):
            cli.load_manifest(str(mpath))

    def test_every_unknown_train_key_named(self, workspace):
        _, mpath, manifest, _ = workspace
        manifest["train"].update(learning_rate=0.1, momentum=0.9)
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(cli.ManifestError, match=r"field 'train': config has unknown "
                                                    r"keys: \['learning_rate', 'momentum'\]"):
            cli.load_manifest(str(mpath))
        assert cli.main(["train", "--manifest", str(mpath)]) == 2

    def test_missing_file_rejected(self, workspace):
        tmp_path, mpath, manifest, _ = workspace
        manifest["files"]["view"] = str(tmp_path / "nope.tsv")
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(cli.ManifestError, match="missing interaction file"):
            cli.load_manifest(str(mpath))

    def test_bad_order_rejected(self, workspace):
        tmp_path, mpath, manifest, _ = workspace
        manifest["order"] = ["buy", "view", "cart"]
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(cli.ManifestError, match="order"):
            cli.load_manifest(str(mpath))

    def test_auto_order_accepted(self, workspace):
        tmp_path, mpath, manifest, _ = workspace
        manifest["order"] = "auto"
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        loaded = cli.load_manifest(str(mpath))
        assert loaded["order"] == "auto"
        split = cli.build_split(loaded)
        assert split.train.spec.target == "buy"

    def test_unreadable_manifest_rejected(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(cli.ManifestError):
            cli.load_manifest(str(p))


class TestCommands:
    def test_full_round_trip(self, workspace, capsys):
        tmp_path, mpath, manifest, ds = workspace
        out = manifest["output_dir"]

        assert cli.main(["train", "--manifest", str(mpath)]) == 0
        ckpt = os.path.join(out, "checkpoint.cnre")
        assert os.path.exists(ckpt)
        assert os.path.exists(os.path.join(out, "train_log.txt"))

        assert cli.main(["eval", "--checkpoint", ckpt,
                         "--manifest", str(mpath)]) == 0
        metrics = json.loads(Path(out, "metrics.jsonl").read_text(encoding="utf-8"))
        assert set(metrics["hr"]) == {"5", "10"}

        # pick a pair that exists in the data for explain/counterfactual
        u, i = sorted(ds.per_behavior_edges[1])[0]
        user, item = str(ds.decode_user(u)), str(ds.decode_item(i))
        capsys.readouterr()
        assert cli.main(["explain", "--checkpoint", ckpt, "--manifest",
                         str(mpath), "--user", user, "--item", item]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["user"] == user and "steps" in record

        assert cli.main(["counterfactual", "--checkpoint", ckpt, "--manifest",
                         str(mpath), "--user", user, "--item", item,
                         "--drop", "cart"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert {"base", "edited", "diff"} <= set(payload)

    def test_approximate_index_mode_loads_and_matches_exact(self, workspace):
        """A manifest and a checkpoint that say "approximate" still load and run;
        both modes build the same exact index, so the outputs match bit for bit."""
        tmp_path, mpath, manifest, _ = workspace
        manifest["train"]["index_mode"] = "approximate"
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        assert cli.main(["train", "--manifest", str(mpath)]) == 0
        ckpt = os.path.join(manifest["output_dir"], "checkpoint.cnre")
        assert cli.main(["eval", "--checkpoint", ckpt, "--manifest", str(mpath)]) == 0
        split = cli.build_split(cli.load_manifest(str(mpath)))
        approx = training.CnreModel.from_checkpoint(ckpt, split.train)
        header = approx.checkpoint_header()
        assert header["config"]["index_mode"] == "approximate"
        header["config"]["index_mode"] = "exact"
        exact_ckpt = str(tmp_path / "exact.cnre")
        training.save_checkpoint(exact_ckpt, approx.store, header)
        exact = training.CnreModel.from_checkpoint(exact_ckpt, split.train)

        def outputs(model):
            cascade = model.cascade()
            indices = model.build_indices(cascade)
            tr = model.train_dataset
            ranks = [evalexplain.rank_items(u, model, cascade=cascade, indices=indices)
                     for u in range(tr.num_users)]
            records = [evalexplain.explain(tr.decode_user(u), tr.decode_item(i), model,
                                           cascade=cascade, indices=indices).to_json_line()
                       for u in range(tr.num_users) for i in range(tr.num_items)]
            return ranks, evalexplain.evaluate(model, split, ks=(5, 10)), records

        got, want = outputs(approx), outputs(exact)
        assert got == want
        assert any('"retrieve"' in r for r in got[2])  # the retrieval paths ran

    def test_sweep_layers(self, workspace, capsys):
        tmp_path, mpath, manifest, _ = workspace
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"type": "layers",
                                     "grid": [[1, 1, 1], [1, 1, 2]],
                                     "ks": [5]}), encoding="utf-8")
        assert cli.main(["sweep", "--manifest", str(mpath),
                         "--sweep", str(sweep)]) == 0
        tsv = Path(manifest["output_dir"], "sweep.tsv").read_text(encoding="utf-8")
        assert tsv.splitlines()[0] == "layer_counts\thr\tndcg"
        assert len(tsv.strip().splitlines()) == 3

    def test_sweep_robustness(self, workspace):
        tmp_path, mpath, manifest, _ = workspace
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"type": "robustness",
                                     "fractions": [0.0, 0.5],
                                     "ks": [5]}), encoding="utf-8")
        assert cli.main(["sweep", "--manifest", str(mpath),
                         "--sweep", str(sweep)]) == 0

    def test_unknown_sweep_type_exits_2(self, workspace):
        tmp_path, mpath, _, _ = workspace
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"type": "mystery"}), encoding="utf-8")
        assert cli.main(["sweep", "--manifest", str(mpath),
                         "--sweep", str(sweep)]) == 2

    @pytest.mark.parametrize("spec, key", [
        ({"type": "layers", "grid": [5]}, "grid"),
        ({"type": "robustness", "fractions": ["a"]}, "fractions"),
        ({"type": "robustness", "fractions": [0.5], "user_fraction": "x"}, "user_fraction"),
        ({"type": "layers", "grid": [[1, 1, "2"]]}, "grid"),
        ({"type": "robustness", "fractions": [1.5]}, "fractions"),
        ({"type": "robustness", "fractions": [True]}, "fractions"),
        ({"type": "robustness", "fractions": [], "user_fraction": -0.1}, "user_fraction"),
        ({"type": "layers"}, "grid"),
        ({"type": ["layers"], "grid": [[1, 1, 1]]}, "type"),
        ({"type": "layers", "grid": [[1, 1, 1], [1, 1]]}, "grid"),  # one count short
        ({"type": "layers", "grid": []}, "grid"),
    ])
    def test_mistyped_sweep_spec_exits_2(self, workspace, capsys, monkeypatch, spec, key):
        tmp_path, mpath, _, _ = workspace
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(spec), encoding="utf-8")

        def unreachable(*args, **kwargs):
            raise AssertionError("the spec was not checked before the data was loaded")

        monkeypatch.setattr(cli, "build_split", unreachable)
        monkeypatch.setattr(training, "train", unreachable)
        assert cli.main(["sweep", "--manifest", str(mpath),
                         "--sweep", str(sweep)]) == 2
        assert f"'{key}'" in capsys.readouterr().err


# TrainConfig values of the wrong type: ints reject bools and floats, floats
# take ints, bools take only bools, layer_counts is null or a list of ints;
# then values of the right type out of range (the widths above their limit
# would fail allocating the model)
MISTYPED_CONFIG = [
    ("embedding_dim", "x"),
    ("n_c", 2.5),
    ("epochs", True),
    ("tau", "0.5"),
    ("lr", None),
    ("layer_counts", 3),
    ("layer_counts", [1, 1.0, 2]),
    ("disable_rea", "yes"),
    ("disable_cnj", 1),
    ("index_mode", ["exact"]),
    ("embedding_dim", 0),
    ("hyperedges", 0),
    ("n_c", 0),
    ("batch_size", 0),
    ("batch_size", -5),
    ("epochs", -1),
    ("seed", -1),
    ("layer_counts", [1, -1, 3]),
    ("lr", 0),
    ("lr", -1),
    ("lr", float("nan")),
    ("lr", float("inf")),
    ("l2", -1),
    ("l2", float("nan")),
    ("tau", -0.1),
    ("tau", 2.0),
    ("embedding_dim", 10**6),
    ("hyperedges", 1025),
    ("index_mode", "fuzzy"),
]


# Manifest values of the wrong type or range; key None replaces the whole
# manifest, and a "files" value keeps the other behaviors' paths
MISTYPED_MANIFEST = [
    (None, 5),
    (None, ["behaviors", "files"]),
    ("behaviors", 5),
    ("behaviors", [["view"], "buy"]),
    ("files", {"view": 0}),  # fd 0 exists: without the check this reads stdin
    ("order", 3),
    ("split_seed", {}),
    ("split_seed", True),
    ("split_seed", -1),
    ("output_dir", 5),
    ("ks", 5),
    ("ks", [0, 10]),
    ("ks", [5.0]),
    ("train", {"layer_counts": [1, 1]}),  # one count per behavior
]


class TestExitCodes:
    def test_bad_manifest_exits_2(self, workspace):
        tmp_path, mpath, manifest, _ = workspace
        manifest["bogus_key"] = True
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        assert cli.main(["train", "--manifest", str(mpath)]) == 2

    @pytest.mark.parametrize("key, value", MISTYPED_MANIFEST)
    def test_mistyped_manifest_value_exits_2(self, workspace, key, value):
        _, mpath, manifest, _ = workspace
        out = manifest["output_dir"]
        if key is None:
            manifest = value
        else:
            manifest[key] = {**manifest["files"], **value} if key == "files" else value
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(cli.ManifestError, match=f"'{key}'" if key else "not a JSON object"):
            cli.load_manifest(str(mpath))
        assert cli.main(["train", "--manifest", str(mpath)]) == 2
        assert not os.path.exists(os.path.join(out, "checkpoint.cnre"))

    @pytest.mark.parametrize("ks", [["0"], ["5", "-1"]])
    def test_eval_ks_below_1_exits_2(self, workspace, capsys, ks):
        tmp_path, mpath, _, _ = workspace
        with pytest.raises(SystemExit) as info:
            cli.main(["eval", "--checkpoint", str(tmp_path / "none.cnre"),
                      "--manifest", str(mpath), "--ks", *ks])
        assert info.value.code == 2
        assert "--ks" in capsys.readouterr().err

    def test_type_error_reading_a_config_is_not_input_error(self, workspace, monkeypatch):
        """A TypeError while a config is read is a fault: it propagates, it does not exit 2."""
        _, mpath, manifest, _ = workspace
        assert cli.main(["train", "--manifest", str(mpath)]) == 0
        train = cli.build_split(cli.load_manifest(str(mpath))).train

        def broken(raw):
            raise TypeError("internal fault")
        monkeypatch.setattr(training.TrainConfig, "from_json", broken)
        with pytest.raises(TypeError, match="internal fault"):
            cli.main(["train", "--manifest", str(mpath)])
        with pytest.raises(TypeError, match="internal fault"):
            training.CnreModel.from_checkpoint(
                os.path.join(manifest["output_dir"], "checkpoint.cnre"), train)

    @pytest.mark.parametrize("exc", ["ValueError", "KeyError"])
    def test_internal_value_or_key_error_exits_1_with_traceback(self, workspace, exc):
        """A plain ValueError or KeyError is a fault in the program, not invalid input."""
        _, mpath, _, _ = workspace
        script = (f"import sys\n"
                  f"from cnre import cli\n"
                  f"def broken(manifest):\n"
                  f"    raise {exc}('internal fault')\n"
                  f"cli.build_split = broken\n"
                  f"sys.exit(cli.main(['train', '--manifest', {str(mpath)!r}]))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr and f"{exc}: " in proc.stderr

    @pytest.mark.parametrize("name, content", [
        ("view", b"u1\ti1\nnot-a-pair\n"),          # malformed line
        ("cart", b"u1\ti\xff\n"),                   # not UTF-8
        ("buy", b""),                                # empty target file
    ])
    @pytest.mark.filterwarnings("ignore:behavior 'buy' file")
    def test_bad_interaction_file_exits_2(self, workspace, name, content):
        _, mpath, manifest, _ = workspace
        with open(manifest["files"][name], "wb") as fh:
            fh.write(content)
        assert cli.main(["train", "--manifest", str(mpath)]) == 2
        assert not os.path.exists(os.path.join(manifest["output_dir"], "checkpoint.cnre"))

    @pytest.mark.filterwarnings("error")
    def test_eval_without_test_users_exits_2(self, tmp_path, capsys):
        """One buy per user leaves no held-out item: exit 2, not NaN metrics."""
        ds = make_planted_dataset(num_users=12, num_items=10, n_groups=3, seed=0,
                                  buys_per_user=1)
        _, mpath, manifest, _ = _workspace(tmp_path, ds)
        assert cli.main(["train", "--manifest", str(mpath)]) == 0
        ckpt = os.path.join(manifest["output_dir"], "checkpoint.cnre")
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", ckpt, "--manifest", str(mpath)]) == 2
        assert "no test users" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(manifest["output_dir"], "metrics.jsonl"))

    def test_python_dash_m_cnre_runs_without_warning(self, workspace):
        _, mpath, manifest, _ = workspace
        assert cli.main(["train", "--manifest", str(mpath)]) == 0
        ckpt = os.path.join(manifest["output_dir"], "checkpoint.cnre")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "cnre", "eval", "--checkpoint", ckpt,
                               "--manifest", str(mpath)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert set(json.loads(proc.stdout)["hr"]) == {"5", "10"}

    def test_missing_checkpoint_exits_2(self, workspace):
        tmp_path, mpath, _, _ = workspace
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "none.cnre"),
                         "--manifest", str(mpath)]) == 2

    def test_directory_as_checkpoint_exits_2(self, workspace, capsys):
        tmp_path, mpath, _, _ = workspace
        folder = tmp_path / "ckpt_dir"
        folder.mkdir()
        assert cli.main(["eval", "--checkpoint", str(folder), "--manifest", str(mpath)]) == 2
        assert str(folder) in capsys.readouterr().err

    def test_directory_as_interaction_file_exits_2(self, workspace, capsys):
        tmp_path, mpath, manifest, _ = workspace
        folder = tmp_path / "cart_dir"
        folder.mkdir()
        manifest["files"]["cart"] = str(folder)
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        assert cli.main(["train", "--manifest", str(mpath)]) == 2
        assert str(folder) in capsys.readouterr().err
        assert not os.path.exists(os.path.join(manifest["output_dir"], "checkpoint.cnre"))

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    def test_file_as_output_dir_exits_2_before_any_data_is_loaded(self, workspace, capsys,
                                                                  monkeypatch, command):
        tmp_path, mpath, _, _ = workspace
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"type": "layers", "grid": [[1, 1, 1]]}), encoding="utf-8")
        extra = {"train": [], "eval": ["--checkpoint", str(tmp_path / "none.cnre")],
                 "sweep": ["--sweep", str(sweep)]}[command]

        def no_data(manifest):
            raise AssertionError("data loaded before the output directory was made")
        monkeypatch.setattr(cli, "build_split", no_data)
        for out in (afile, afile / "sub"):  # a file, and a path under a file
            assert cli.main([command, "--manifest", str(mpath), "--out", str(out),
                             *extra]) == 2
            assert f"cannot create output directory {out}" in capsys.readouterr().err

    def _edited_checkpoint(self, workspace, edit):
        """Train, then save the model's checkpoint after edit(model); return (path, train)."""
        tmp_path, mpath, manifest, _ = workspace
        assert cli.main(["train", "--manifest", str(mpath)]) == 0
        ckpt = os.path.join(manifest["output_dir"], "checkpoint.cnre")
        train = cli.build_split(cli.load_manifest(str(mpath))).train
        model = training.CnreModel.from_checkpoint(ckpt, train)
        header = edit(model)
        bad = str(tmp_path / "bad.cnre")
        training.save_checkpoint(bad, model.store, header)
        return bad, train

    def test_unknown_checkpoint_config_key_exits_2(self, workspace):
        def edit(model):
            header = model.checkpoint_header()
            header["config"]["surprise"] = 1
            return header
        bad, train = self._edited_checkpoint(workspace, edit)
        with pytest.raises(training.CheckpointError, match="surprise"):
            training.CnreModel.from_checkpoint(bad, train)
        assert cli.main(["eval", "--checkpoint", bad, "--manifest", str(workspace[1])]) == 2

    def test_every_unknown_checkpoint_config_key_named(self, workspace):
        def edit(model):
            header = model.checkpoint_header()
            header["config"].update(surprise=1, another=2)
            return header
        bad, train = self._edited_checkpoint(workspace, edit)
        with pytest.raises(training.CheckpointError,
                           match=r"config has unknown keys: \['another', 'surprise'\]"):
            training.CnreModel.from_checkpoint(bad, train)
        assert cli.main(["eval", "--checkpoint", bad, "--manifest", str(workspace[1])]) == 2

    def test_checkpoint_missing_slot_exits_2(self, workspace):
        def edit(model):
            header = model.checkpoint_header()
            header["slots"] = [s for s in header["slots"] if s["name"] != "head_bo"]
            return header
        bad, train = self._edited_checkpoint(workspace, edit)
        with pytest.raises(training.CheckpointError,
                           match="head_bo: checkpoint has none, model \\[1, 1\\]"):
            training.CnreModel.from_checkpoint(bad, train)
        assert cli.main(["eval", "--checkpoint", bad, "--manifest", str(workspace[1])]) == 2

    def test_checkpoint_extra_slot_exits_2(self, workspace):
        def edit(model):
            model.store.add("surplus", np.zeros((1, 1)))
            return model.checkpoint_header()
        bad, train = self._edited_checkpoint(workspace, edit)
        with pytest.raises(training.CheckpointError,
                           match="surplus: checkpoint \\[1, 1\\], model has none"):
            training.CnreModel.from_checkpoint(bad, train)
        assert cli.main(["eval", "--checkpoint", bad, "--manifest", str(workspace[1])]) == 2

    def test_checkpoint_slot_shape_mismatch_exits_2(self, workspace):
        def edit(model):
            model.store["head_bo"].data = np.zeros((1, 2))
            return model.checkpoint_header()
        bad, train = self._edited_checkpoint(workspace, edit)
        with pytest.raises(training.CheckpointError,
                           match="head_bo: checkpoint \\[1, 2\\], model \\[1, 1\\]"):
            training.CnreModel.from_checkpoint(bad, train)
        assert cli.main(["eval", "--checkpoint", bad, "--manifest", str(workspace[1])]) == 2

    def _raw_checkpoint(self, workspace, edit_header=None, edit_payload=None):
        """Train, then rewrite the saved file's JSON header or payload bytes; return its path."""
        tmp_path, mpath, manifest, _ = workspace
        assert cli.main(["train", "--manifest", str(mpath)]) == 0
        with open(os.path.join(manifest["output_dir"], "checkpoint.cnre"), "rb") as fh:
            blob = fh.read()
        (hlen,) = struct.unpack("<I", blob[5:9])
        header = json.loads(blob[9:9 + hlen])
        payload = bytearray(blob[9 + hlen:])
        if edit_header is not None:
            header = edit_header(header)
        if edit_payload is not None:
            edit_payload(payload)
        raw = json.dumps(header).encode("utf-8")
        bad = tmp_path / "bad.cnre"
        bad.write_bytes(blob[:5] + struct.pack("<I", len(raw)) + raw + bytes(payload))
        return str(bad)

    def _assert_rejected(self, workspace, bad, match):
        train = cli.build_split(cli.load_manifest(str(workspace[1]))).train
        with pytest.raises(training.CheckpointError, match=match):
            training.CnreModel.from_checkpoint(bad, train)
        assert cli.main(["eval", "--checkpoint", bad, "--manifest", str(workspace[1])]) == 2

    @pytest.mark.parametrize("counts", [[7, 7, 7], [1, 1]])
    def test_header_layer_counts_differing_from_config_exit_2(self, workspace, counts):
        """The model is built from the config, so a header that says otherwise is rejected."""
        def edit(header):
            assert header["layer_counts"] == [1, 1, 3] and header["config"]["layer_counts"] is None
            header["layer_counts"] = counts
            return header
        bad = self._raw_checkpoint(workspace, edit_header=edit)
        self._assert_rejected(
            workspace, bad,
            rf"checkpoint layer_counts \[{', '.join(map(str, counts))}\] differ from "
            r"its config's \[1, 1, 3\]")

    @pytest.mark.parametrize("key, value", MISTYPED_CONFIG)
    def test_mistyped_manifest_train_value_exits_2(self, workspace, key, value):
        tmp_path, mpath, manifest, _ = workspace
        manifest["train"][key] = value
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(cli.ManifestError, match=f"'{key}'"):
            cli.load_manifest(str(mpath))
        assert cli.main(["train", "--manifest", str(mpath)]) == 2
        assert not os.path.exists(os.path.join(manifest["output_dir"], "checkpoint.cnre"))

    @pytest.mark.parametrize("key, value", MISTYPED_CONFIG)
    def test_mistyped_checkpoint_config_value_exits_2(self, workspace, key, value):
        def edit(header):
            header["config"][key] = value
            return header
        self._assert_rejected(workspace, self._raw_checkpoint(workspace, edit), f"'{key}'")

    def test_checkpoint_layer_counts_of_wrong_length_exits_2(self, workspace):
        def edit(header):
            header["config"]["layer_counts"] = [1, 1]
            return header
        self._assert_rejected(workspace, self._raw_checkpoint(workspace, edit),
                              "layer_counts length")

    def test_checkpoint_slots_not_a_list_exits_2(self, workspace):
        def edit(header):
            header["slots"] = 5
            return header
        self._assert_rejected(workspace, self._raw_checkpoint(workspace, edit),
                              "field 'slots' is malformed")

    def test_checkpoint_header_not_an_object_exits_2(self, workspace):
        bad = self._raw_checkpoint(workspace, lambda header: [header])
        self._assert_rejected(workspace, bad, "not a JSON object")

    def test_checkpoint_string_shape_exits_2(self, workspace):
        def edit(header):
            header["slots"][0]["shape"] = ["12", "6"]
            return header
        self._assert_rejected(workspace, self._raw_checkpoint(workspace, edit),
                              "field 'slots' is malformed")

    def test_checkpoint_nan_parameter_exits_2(self, workspace):
        def edit(payload):
            payload[:4] = struct.pack("<f", float("nan"))
        bad = self._raw_checkpoint(workspace, edit_payload=edit)
        self._assert_rejected(workspace, bad, "slot 'base_user' holds non-finite values")

    def test_internal_shape_error_is_not_invalid_input(self, workspace, monkeypatch):
        _, mpath, _, _ = workspace

        def broken_fit(self, log=None):
            raise tg.ShapeError("matmul: (2, 3) @ (4, 5)")

        monkeypatch.setattr(training.CnreModel, "fit", broken_fit)
        with pytest.raises(tg.ShapeError):
            cli.main(["train", "--manifest", str(mpath)])

    def test_unknown_pair_exits_2(self, workspace):
        tmp_path, mpath, manifest, _ = workspace
        assert cli.main(["train", "--manifest", str(mpath)]) == 0
        ckpt = os.path.join(manifest["output_dir"], "checkpoint.cnre")
        assert cli.main(["explain", "--checkpoint", ckpt, "--manifest",
                         str(mpath), "--user", "ghost", "--item", "x"]) == 2

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_abort_exits_3(self, workspace):
        tmp_path, mpath, manifest, _ = workspace
        manifest["train"]["lr"] = 1e200  # guaranteed to overflow the forward pass
        manifest["train"]["epochs"] = 3
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        assert cli.main(["train", "--manifest", str(mpath)]) == 3
