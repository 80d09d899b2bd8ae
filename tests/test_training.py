"""Head/loss oracles, training-loop behavior and checkpoint persistence."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnre import dataio, propagation, reasoning, tensorgrad as tg, training
from cnre.synthetic import make_planted_dataset


def _head_store(d=4, seed=0, zero=False):
    rng = np.random.default_rng(seed)
    store = tg.ParameterStore()
    if zero:
        store.add("head_wh", np.zeros((2 * d, d)))
        store.add("head_wo", np.zeros((d, 1)))
    else:
        store.add("head_wh", tg.xavier_uniform(rng, 2 * d, d))
        store.add("head_wo", tg.xavier_uniform(rng, d, 1))
    store.add("head_bh", np.zeros((1, d)))
    store.add("head_bo", np.zeros((1, 1)))
    return store, rng


class TestPredict:
    """The head's probability is ``tg._sigmoid`` of ``predict_logit``."""

    def test_zero_head_gives_half(self):
        store, _ = _head_store(zero=True)
        logit = training.predict_logit(tg.Tensor(np.zeros((3, 8))), store).data
        np.testing.assert_array_equal(logit, 0.0)
        np.testing.assert_allclose(tg._sigmoid(logit), 0.5)

    def test_output_in_open_interval(self):
        store, rng = _head_store()
        logit = training.predict_logit(tg.Tensor(rng.normal(size=(50, 8)) * 10), store).data
        out = tg._sigmoid(logit)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_matches_loop_oracle(self):
        store, rng = _head_store(d=3, seed=1)
        med = rng.normal(size=(6, 6))
        got = training.predict_logit(tg.Tensor(med), store).data
        wh, bh = store["head_wh"].data, store["head_bh"].data
        wo, bo = store["head_wo"].data, store["head_bo"].data
        for r in range(6):
            hidden = np.maximum(med[r] @ wh + bh[0], 0.0)
            logit = hidden @ wo + bo[0]
            np.testing.assert_allclose(got[r], logit, atol=1e-12)
            np.testing.assert_allclose(tg._sigmoid(got[r]), 1.0 / (1.0 + np.exp(-logit)),
                                       atol=1e-12)


class TestBprLoss:
    def test_equal_scores_give_ln2(self):
        y = tg.Tensor(np.full((3, 1), 0.7))
        loss = training.bpr_loss(y, y)
        np.testing.assert_allclose(loss.item(), 3 * np.log(2.0), atol=1e-12)

    def test_vanishes_for_large_margin(self):
        pos = tg.Tensor(np.array([[40.0]]))
        neg = tg.Tensor(np.array([[-40.0]]))
        assert training.bpr_loss(pos, neg).item() < 1e-12

    def test_monotone_decreasing_in_margin(self):
        neg = tg.Tensor(np.zeros((1, 1)))
        vals = [training.bpr_loss(tg.Tensor(np.array([[m]])), neg).item()
                for m in (-2.0, -0.5, 0.0, 0.5, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_additivity_over_batch(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=(5, 1))
        neg = rng.normal(size=(5, 1))
        whole = training.bpr_loss(tg.Tensor(pos), tg.Tensor(neg)).item()
        parts = sum(training.bpr_loss(tg.Tensor(pos[k:k + 1]),
                                      tg.Tensor(neg[k:k + 1])).item()
                    for k in range(5))
        np.testing.assert_allclose(whole, parts, atol=1e-12)


class TestMultiTaskLoss:
    def test_zero_weight_is_plain_sum(self):
        store, _ = _head_store()
        terms = [tg.Tensor(np.array(1.5)), tg.Tensor(np.array(0.25))]
        out = training.multi_task_loss(terms, 0.0, store)
        np.testing.assert_allclose(out.item(), 1.75, atol=1e-12)

    def test_hand_computed_regularizer(self):
        store = tg.ParameterStore()
        store.add("a", np.array([[1.0, 2.0]]))
        store.add("b", np.array([[3.0]]))
        out = training.multi_task_loss([tg.Tensor(np.array(2.0))], 0.1, store)
        np.testing.assert_allclose(out.item(), 2.0 + 0.1 * (1 + 4 + 9), atol=1e-12)

    def test_empty_terms_rejected(self):
        store, _ = _head_store()
        with pytest.raises(ValueError):
            training.multi_task_loss([], 0.1, store)


def test_auxiliary_score_compositional_identity():
    ds = make_planted_dataset(num_users=12, num_items=8, n_groups=3)
    split = dataio.leave_one_out_split(ds, 0)
    cfg = training.TrainConfig(embedding_dim=5, hyperedges=2, epochs=0, seed=1)
    model, _ = training.train(split, cfg)
    cascade = model.cascade()
    users, items = np.array([0, 3, 7]), np.array([1, 4, 2])
    got = training.auxiliary_task_score(users, items, 0, cascade, model.store).data
    bundle = cascade.per_behavior[0]
    med = reasoning.strong_mediator(tg.index_rows(bundle.e_u, users),
                                    tg.index_rows(bundle.e_i, items))
    want = training.predict_logit(med, model.store).data
    np.testing.assert_allclose(got, want, atol=1e-12)


class TestTrainLoop:
    def test_zero_epochs_keeps_initialization(self):
        ds = make_planted_dataset(num_users=10, num_items=8, n_groups=2)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=0, seed=5)
        model, history = training.train(split, cfg)
        fresh = training.CnreModel(split.train, cfg)
        assert history == []
        for name in model.store.names():
            np.testing.assert_array_equal(model.store[name].data,
                                          fresh.store[name].data)

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        ds = make_planted_dataset(num_users=12, num_items=8, n_groups=3)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=2, seed=7)
        paths = []
        for run in range(2):
            model, _ = training.train(split, cfg)
            p = tmp_path / f"run{run}.cnre"
            model.save(str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_loss_decreases_on_small_run(self):
        ds = make_planted_dataset(num_users=15, num_items=10, n_groups=3)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=8, hyperedges=3, epochs=15,
                                   seed=0, lr=0.01)
        _, history = training.train(split, cfg)
        assert history[-1] < history[0]

    def test_one_cascade_per_step(self, monkeypatch):
        ds = make_planted_dataset(num_users=15, num_items=10, n_groups=3)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=3, seed=0,
                                   batch_size=8, n_c=3)
        model = training.CnreModel(split.train, cfg)
        calls, snapshots = [], []
        forward = propagation.cascade_forward
        monkeypatch.setattr(propagation, "cascade_forward",
                            lambda *a, **k: calls.append(1) or forward(*a, **k))
        build_indices = model.build_indices
        monkeypatch.setattr(model, "build_indices",
                            lambda cascade: snapshots.append(1) or build_indices(cascade))
        model.fit()
        steps = -(-max(m.nnz for m in split.train.matrices) // cfg.batch_size)
        assert steps > 1
        assert model.store.step_count == cfg.epochs * steps
        assert len(calls) == cfg.epochs * steps
        assert len(snapshots) == cfg.epochs  # the epoch's indices come from its first step

    def test_training_log_lines(self):
        ds = make_planted_dataset(num_users=10, num_items=10, n_groups=2)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=2, seed=0)
        lines = []
        training.train(split, cfg, log=lines.append)
        assert len(lines) == 2
        for k, line in enumerate(lines):
            epoch, loss, secs = line.split("\t")
            assert int(epoch) == k
            float(loss), float(secs)

    def test_layer_counts_resolved_and_validated(self):
        cfg = training.TrainConfig()
        assert cfg.resolved_layer_counts(3) == [1, 1, 3]
        cfg2 = training.TrainConfig(layer_counts=[2, 2, 2])
        assert cfg2.resolved_layer_counts(3) == [2, 2, 2]
        with pytest.raises(ValueError):
            cfg2.resolved_layer_counts(4)


class TestCheckpoints:
    def _model(self, tmp_path, epochs=1):
        ds = make_planted_dataset(num_users=12, num_items=8, n_groups=3)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=epochs,
                                   seed=3)
        model, _ = training.train(split, cfg)
        path = tmp_path / "model.cnre"
        model.save(str(path))
        return model, split, path

    def test_roundtrip_preserves_values_to_f32(self, tmp_path):
        model, split, path = self._model(tmp_path)
        loaded = training.CnreModel.from_checkpoint(str(path), split.train)
        for name in model.store.names():
            want = model.store[name].data.astype("<f4").astype(np.float64)
            np.testing.assert_array_equal(loaded.store[name].data, want)
        assert loaded.store.step_count == model.store.step_count
        assert loaded.config == model.config

    def test_corrupt_magic_rejected(self, tmp_path):
        _, split, path = self._model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(training.CheckpointError, match="magic"):
            training.load_checkpoint(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        _, split, path = self._model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(training.CheckpointError, match="version"):
            training.load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        _, split, path = self._model(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(training.CheckpointError, match="truncated"):
            training.load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        _, split, path = self._model(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(training.CheckpointError, match="trailing"):
            training.load_checkpoint(str(path))

    def test_dataset_mismatch_rejected(self, tmp_path):
        _, split, path = self._model(tmp_path)
        other = make_planted_dataset(num_users=9, num_items=8, n_groups=3)
        other_split = dataio.leave_one_out_split(other, 0)
        with pytest.raises(training.CheckpointError, match="dimensions"):
            training.CnreModel.from_checkpoint(str(path), other_split.train)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """(checkpoint bytes, train dataset, scratch dir) of a small one-epoch model."""
    ds = make_planted_dataset(num_users=12, num_items=8, n_groups=3)
    split = dataio.leave_one_out_split(ds, 0)
    cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=1, seed=3)
    model, _ = training.train(split, cfg)
    workdir = tmp_path_factory.mktemp("fuzz")
    model.save(str(workdir / "model.cnre"))
    return (workdir / "model.cnre").read_bytes(), split.train, workdir


def _load_only_or_checkpoint_error(blob, train, workdir):
    """from_checkpoint on blob either returns a model or raises CheckpointError."""
    path = workdir / "edited.cnre"
    path.write_bytes(bytes(blob))
    try:
        model = training.CnreModel.from_checkpoint(str(path), train)
    except training.CheckpointError:
        return
    assert isinstance(model, training.CnreModel)


def _with_header(blob, header):
    """The checkpoint blob with its JSON header replaced by header."""
    (hlen,) = struct.unpack("<I", blob[5:9])
    raw = json.dumps(header).encode("utf-8")
    return blob[:5] + struct.pack("<I", len(raw)) + raw + blob[9 + hlen:]


def _other_type(value):
    """JSON values whose type differs from value's (bool counts apart from int)."""
    def kind(v):
        return type(v).__name__ if not isinstance(v, float) else "float"
    leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3),
                     st.text(max_size=3))
    any_json = st.recursive(leaf, lambda inner: st.lists(inner, max_size=2)
                            | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                            max_leaves=4)
    return any_json.filter(lambda v: kind(v) != kind(value))


class TestCheckpointFuzz:
    """Damaged checkpoints load or raise CheckpointError, never another error."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncation(self, saved_checkpoint, data):
        blob, train, workdir = saved_checkpoint
        cut = data.draw(st.integers(0, len(blob) - 1))
        _load_only_or_checkpoint_error(blob[:cut], train, workdir)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_single_bit_flip(self, saved_checkpoint, data):
        blob, train, workdir = saved_checkpoint
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        _load_only_or_checkpoint_error(flipped, train, workdir)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_header_field_type_edit(self, saved_checkpoint, data):
        blob, train, workdir = saved_checkpoint
        (hlen,) = struct.unpack("<I", blob[5:9])
        header = json.loads(blob[9:9 + hlen])
        slot = data.draw(st.sampled_from(header["slots"]))
        # (container, key) of every top-level, config and slot field
        places = [(header, k) for k in sorted(header)] + [(slot, "name"), (slot, "shape")]
        places += [(header["config"], k) for k in sorted(header["config"])]
        places += [(slot["shape"], k) for k in range(len(slot["shape"]))]
        where, key = data.draw(st.sampled_from(places))
        where[key] = data.draw(_other_type(where[key]))
        _load_only_or_checkpoint_error(_with_header(blob, header), train, workdir)

    @pytest.mark.parametrize("field, value, match", [
        ("num_users", None, "has no 'num_users'"),
        ("step", None, "has no 'step'"),
        ("slots", None, "has no 'slots'"),
        ("step", "1", "'step' is malformed"),
        ("step", -1, "'step' is malformed"),
        ("num_items", 8.0, "'num_items' is malformed"),
        ("num_users", True, "'num_users' is malformed"),
        ("behaviors", "view", "'behaviors' is malformed"),
        ("behaviors", ["view", 1, "buy"], "'behaviors' is malformed"),
        ("config", [], "'config' is malformed"),
        ("slots", [{"name": "base_user"}], "'slots' is malformed"),
        ("slots", [{"name": 1, "shape": [12, 4]}], "'slots' is malformed"),
        ("slots", [{"name": "base_user", "shape": [12, -4]}], "'slots' is malformed"),
        ("slots", [{"name": "a", "shape": []}, {"name": "a", "shape": []}], "slot twice"),
        ("slots", [{"name": "a", "shape": [0, 2 ** 62, 2 ** 62]}], "slot 'a': shape"),
    ])
    def test_malformed_header_field_rejected(self, saved_checkpoint, field, value, match):
        blob, _, workdir = saved_checkpoint
        (hlen,) = struct.unpack("<I", blob[5:9])
        header = json.loads(blob[9:9 + hlen])
        if value is None:
            del header[field]
        else:
            header[field] = value
        path = workdir / "malformed.cnre"
        path.write_bytes(_with_header(blob, header))
        with pytest.raises(training.CheckpointError, match=match):
            training.load_checkpoint(str(path))


def test_full_loss_gradients_finite_difference():
    """End-to-end gradient check through cascade, reasoner, head and L2."""
    ds = make_planted_dataset(num_users=12, num_items=10, n_groups=3, seed=4)
    split = dataio.leave_one_out_split(ds, 0)
    cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=0, seed=2,
                               n_c=3)
    model, _ = training.train(split, cfg)
    rng = np.random.default_rng(9)
    per_behavior = [dataio.sample_bpr_triples(split.train, b, 6, rng)
                    for b in range(3)]
    cascade0 = model.cascade()
    indices = model.build_indices(cascade0)
    gate = reasoning.GateSnapshot.from_cascade(cascade0)

    def loss_fn():
        cascade = model.cascade()
        loss, _ = model.batch_loss(per_behavior, cascade, indices, gate=gate)
        return loss

    err = tg.finite_difference_check(loss_fn, model.store, max_coords=96,
                                     rng=np.random.default_rng(3))
    assert err < 1e-4
