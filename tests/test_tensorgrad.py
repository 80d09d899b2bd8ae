"""Unit tests for the autodiff kernel: op gradients, the tape, Adam, and the FD harness."""

import gc

import numpy as np
import pytest
import scipy.sparse as sp

from cnre import dataio, tensorgrad as tg, training
from cnre.synthetic import make_planted_dataset


def _fd_scalar(loss_fn, store, **kw):
    return tg.finite_difference_check(loss_fn, store, **kw)


def _store_with(**arrays):
    store = tg.ParameterStore()
    for name, arr in arrays.items():
        store.add(name, arr)
    return store


class TestPrimitiveGradients:
    """Each op checked by central differences through a scalar reduction."""

    def test_add_sub_mul_div_broadcast(self):
        rng = np.random.default_rng(0)
        store = _store_with(a=rng.normal(size=(4, 3)), b=rng.normal(size=(1, 3)),
                            c=rng.normal(size=(4, 1)) + 3.0)

        def loss():
            x = tg.add(store["a"], store["b"])
            y = tg.sub(x, tg.mul(store["a"], store["b"]))
            z = tg.div(y, store["c"])
            return tg.sum_all(tg.mul(z, z))

        assert _fd_scalar(loss, store) < 1e-6

    def test_matmul_transpose(self):
        rng = np.random.default_rng(1)
        store = _store_with(a=rng.normal(size=(3, 4)), b=rng.normal(size=(4, 2)))

        def loss():
            return tg.sum_all(tg.matmul(tg.transpose(tg.matmul(store["a"], store["b"])),
                                        store["a"]))

        assert _fd_scalar(loss, store) < 1e-6

    def test_nonlinearities(self):
        rng = np.random.default_rng(2)
        store = _store_with(a=rng.normal(size=(5, 4)))

        def loss():
            x = tg.relu(store["a"])
            z = tg.softplus(store["a"])
            return tg.sum_all(tg.add(x, tg.mul(z, z)))

        assert _fd_scalar(loss, store) < 1e-6

    def test_gather_concat_rowdot(self):
        rng = np.random.default_rng(3)
        store = _store_with(a=rng.normal(size=(6, 3)), b=rng.normal(size=(6, 3)))
        idx = np.array([0, 2, 2, 5, 1])  # repeated index exercises scatter-add

        def loss():
            ga = tg.index_rows(store["a"], idx)
            gb = tg.index_rows(store["b"], idx)
            cat = tg.concat_cols([ga, gb])
            stack = tg.concat_rows([cat, cat])
            return tg.sum_all(tg.rowwise_dot(stack, stack))

        assert _fd_scalar(loss, store) < 1e-6

    def test_l2_norm_sq(self):
        rng = np.random.default_rng(4)
        store = _store_with(a=rng.normal(size=(3, 3)))
        assert _fd_scalar(lambda: tg.l2_norm_sq(store["a"]), store) < 1e-6


def test_fanout_matches_scaling():
    """x + x and 2 * x must produce the same gradient (grad accumulation)."""
    x1 = tg.Tensor(np.array([[1.5, -2.0]]), requires_grad=True)
    tg.sum_all(tg.add(x1, x1)).backward()
    x2 = tg.Tensor(np.array([[1.5, -2.0]]), requires_grad=True)
    tg.sum_all(tg.mul(tg.Tensor(np.array(2.0)), x2)).backward()
    np.testing.assert_allclose(x1.grad, x2.grad, rtol=0, atol=0)


def test_spmm_matches_dense():
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(4, 6)) * (rng.random(size=(4, 6)) < 0.5)
    s = sp.csr_matrix(dense)
    d = tg.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    out = tg.spmm(s, d)
    np.testing.assert_allclose(out.data, dense @ d.data, atol=1e-12)
    tg.sum_all(out).backward()
    expected = dense.T @ np.ones((4, 3))
    np.testing.assert_allclose(d.grad, expected, atol=1e-12)


def test_spmm_rejects_dense_left():
    with pytest.raises(tg.ShapeError):
        tg.spmm(np.eye(3), tg.Tensor(np.eye(3)))


def test_backward_requires_scalar():
    t = tg.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(tg.ShapeError):
        t.backward()


def test_matmul_shape_error():
    with pytest.raises(tg.ShapeError):
        tg.matmul(tg.Tensor(np.ones((2, 3))), tg.Tensor(np.ones((2, 3))))


def test_non_finite_input_rejected():
    with pytest.raises(tg.NonFiniteError):
        tg.Tensor(np.array([np.nan]))
    with pytest.raises(tg.NonFiniteError, match="'div'"):
        tg.div(tg.Tensor(np.ones(2)), tg.Tensor(np.zeros(2)))


def test_sigmoid_softplus_stable_at_extremes():
    big = tg.Tensor(np.array([-1000.0, 1000.0]))
    np.testing.assert_allclose(tg._sigmoid(big.data), [0.0, 1.0], atol=1e-12)
    p = tg.softplus(big)
    assert np.all(np.isfinite(p.data))
    np.testing.assert_allclose(p.data[1], 1000.0, rtol=1e-12)


def _small_loss(store):
    """A scalar loss through all 15 ops."""
    a, b = store["a"], store["b"]
    x = tg.concat_cols([tg.index_rows(a, [0, 2, 2]), tg.relu(b)])
    y = tg.concat_rows([x, tg.softplus(x)])
    z = tg.div(tg.sub(tg.mul(y, y), tg.transpose(tg.transpose(y))), tg.add(y, 3.0))
    w = tg.spmm(sp.csr_matrix(np.eye(6)), tg.matmul(z, tg.transpose(z)))
    return tg.add(tg.sum_all(tg.rowwise_dot(w, w)), tg.l2_norm_sq(a))


@pytest.fixture
def gc_off():
    """Disable the cyclic collector so that only reference counting frees memory."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()
    gc.collect()


class TestTape:
    def _store(self):
        rng = np.random.default_rng(8)
        return _store_with(a=rng.normal(size=(3, 2)), b=rng.normal(size=(3, 2)))

    def test_dropped_loss_leaves_no_cyclic_garbage(self, gc_off):
        store = self._store()
        gc.collect()
        loss = _small_loss(store)   # never backpropagated
        del loss
        loss = _small_loss(store)
        loss.backward()
        del loss
        assert gc.collect() == 0

    def test_fit_epoch_leaves_no_tensor_garbage(self, gc_off):
        ds = make_planted_dataset(num_users=15, num_items=10, n_groups=3)
        split = dataio.leave_one_out_split(ds, 0)
        cfg = training.TrainConfig(embedding_dim=4, hyperedges=2, epochs=1, seed=0,
                                   batch_size=8, n_c=3)
        model = training.CnreModel(split.train, cfg)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            model.fit()
            gc.collect()
            tensors = [o for o in gc.garbage if isinstance(o, tg.Tensor)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert tensors == []

    def test_backward_frees_intermediates_and_keeps_leaf_grads(self):
        store = self._store()
        a = store["a"]
        h = tg.mul(a, a)
        loss = tg.sum_all(h)
        loss.backward()
        for t in (h, loss):
            assert t.grad is None and t._inputs is None
        np.testing.assert_array_equal(a.grad, 2.0 * a.data)
        assert a._inputs == ()
        assert store["b"].grad is None

    def test_second_backward_raises(self):
        store = self._store()
        loss = _small_loss(store)
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed tape") as info:
            loss.backward()
        assert not isinstance(info.value, ValueError)

    def test_backward_through_a_consumed_branch_raises(self):
        store = self._store()
        shared = tg.mul(store["a"], store["a"])
        tg.sum_all(shared).backward()
        with pytest.raises(RuntimeError, match="consumed tape"):
            tg.sum_all(tg.add(shared, store["b"])).backward()

    def test_inputs_without_grad_are_not_recorded(self):
        store = self._store()
        const = tg.Tensor(np.ones((3, 2)))
        out = tg.mul(const, store["a"])
        assert [t for t, _ in out._inputs] == [store["a"]]
        assert tg.mul(const, const)._inputs == ()
        assert not tg.mul(const, const).requires_grad

    def test_deep_chain_needs_no_recursion(self):
        x = tg.Tensor(np.array([[1.0]]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = tg.add(y, 0.0)
        tg.sum_all(y).backward()
        np.testing.assert_array_equal(x.grad, [[1.0]])


class TestAdam:
    def test_first_step_closed_form(self):
        """With bias correction, step 1 moves by lr * g / (|g| + eps)."""
        store = _store_with(w=np.array([[2.0, -3.0]]))
        g = np.array([[0.5, -0.25]])
        store["w"].accumulate_grad(g)
        store.adam_step(lr=0.1)
        expected = np.array([[2.0, -3.0]]) - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(store["w"].data, expected, rtol=1e-10)

    def test_grads_cleared_and_step_counted(self):
        store = _store_with(w=np.ones((2, 2)))
        store["w"].accumulate_grad(np.ones((2, 2)))
        store.adam_step(lr=0.01)
        assert store["w"].grad is None
        assert store.step_count == 1

    def test_no_grad_slot_stays_put(self):
        store = _store_with(w=np.ones((2, 2)))
        before = store["w"].data.copy()
        store.adam_step(lr=0.5)
        np.testing.assert_allclose(store["w"].data, before)


class TestParameterStore:
    def test_duplicate_slot_rejected(self):
        store = _store_with(w=np.ones(2))
        with pytest.raises(ValueError):
            store.add("w", np.ones(2))

    def test_state_roundtrip(self):
        rng = np.random.default_rng(6)
        store = _store_with(a=rng.normal(size=(2, 3)), b=rng.normal(size=(4,)))
        snap = store.state_arrays()
        store["a"].data += 1.0
        store.load_arrays(snap)
        np.testing.assert_allclose(store["a"].data, snap["a"])

    def test_load_shape_mismatch(self):
        store = _store_with(a=np.ones((2, 3)))
        with pytest.raises(tg.ShapeError):
            store.load_arrays({"a": np.ones((3, 2))})


def test_finite_difference_check_flags_wrong_gradient():
    """A deliberately broken backward must be caught by the FD harness."""
    store = _store_with(w=np.array([[1.0, 2.0]]))

    def loss():
        out = tg.mul(store["w"], store["w"])
        return tg.sum_all(out)

    ok = tg.finite_difference_check(loss, store)
    assert ok < 1e-6

    def bad_loss():
        w = store["w"]
        out = tg._make(w.data * w.data, "bad", (w, lambda g: g * 3.0 * w.data))  # wrong: 3x
        return tg.sum_all(out)

    assert tg.finite_difference_check(bad_loss, store) > 0.1


def test_finite_difference_rejects_nondeterministic_loss():
    store = _store_with(w=np.ones((1, 1)))
    state = {"n": 0.0}

    def loss():
        state["n"] += 1.0
        return tg.mul(store["w"], tg.Tensor(np.array(state["n"])))

    with pytest.raises(ValueError):
        tg.finite_difference_check(loss, store)


def test_xavier_uniform_bounds_and_determinism():
    a = tg.xavier_uniform(np.random.default_rng(7), 30, 50)
    b = tg.xavier_uniform(np.random.default_rng(7), 30, 50)
    np.testing.assert_array_equal(a, b)
    bound = np.sqrt(6.0 / 80.0)
    assert np.all(np.abs(a) <= bound)
    assert a.shape == (30, 50)
