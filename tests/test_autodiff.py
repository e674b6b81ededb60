"""Backward-pass contracts: graph traversal, gradient accumulation,
SGD updates, and finite-difference verification of every layer op."""

import tracemalloc

import numpy as np
import pytest

from chroma.tensor import (
    Tensor,
    ShapeError,
    OptimizerState,
    no_grad,
    conv2d,
    deconv2d,
    maxpool2d,
    global_avgpool,
    batchnorm,
    RunningStats,
    relu,
    channel_softmax,
    vector_softmax,
    concat_channels,
    crop_spatial,
    fully_connected,
    cross_entropy,
    tensor_sum,
    reshape,
    sgd_step,
    finite_diff_check,
    _deconv_planes,
)


class TestBackwardContract:
    def test_sum_gradient_is_all_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tensor_sum(w).backward()
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_leaf_off_the_path_has_no_gradient(self):
        w = Tensor(np.ones(3), requires_grad=True)
        other = Tensor(np.ones(3), requires_grad=True)
        tensor_sum(w).backward()
        assert other.grad is None
        # sgd_step reads a missing gradient as zero: after one step along
        # a gradient, the leaf moves by its momentum alone
        state = OptimizerState(learning_rate=0.5, momentum=0.5)
        tensor_sum(other).backward()
        sgd_step({"other": other}, state)  # v = 1, other = 1 - 0.5
        other.grad = None
        sgd_step({"other": other}, state)  # v = 0.5, other = 0.5 - 0.25
        assert np.array_equal(state.velocities["other"], np.full(3, 0.5))
        assert np.array_equal(other.data, np.full(3, 0.25))

    def test_repeated_backward_raises(self):
        w = Tensor(np.ones(3), requires_grad=True)
        loss = tensor_sum(w)
        loss.backward()
        with pytest.raises(RuntimeError, match="already run"):
            loss.backward()

    def test_non_scalar_backward_raises(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            relu(w).backward()

    def test_nan_in_graph_names_the_node(self):
        w = Tensor(np.array([1.0, np.nan]), requires_grad=True)
        loss = tensor_sum(relu(w))
        with pytest.raises(FloatingPointError, match="leaf"):
            loss.backward()

    def test_gradients_accumulate_across_graphs(self):
        w = Tensor(np.ones(2), requires_grad=True)
        tensor_sum(w).backward()
        tensor_sum(w).backward()
        assert np.array_equal(w.grad, np.full(2, 2.0))

    def test_seed_scales_the_gradient(self):
        w = Tensor(np.ones(4), requires_grad=True)
        tensor_sum(w).backward(seed=0.25)
        assert np.array_equal(w.grad, np.full(4, 0.25))

    def test_no_grad_detaches(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = relu(w)
        assert not out.requires_grad and out._parents == ()

    def test_shared_node_visited_once(self):
        # diamond: loss = sum(relu(x) concat relu(x)); d/dx = 2 per entry
        x = Tensor(np.ones((2, 2, 1)), requires_grad=True)
        h = relu(x)
        tensor_sum(concat_channels(h, h)).backward()
        assert np.array_equal(x.grad, np.full((2, 2, 1), 2.0))


    def test_node_gradients_are_contiguous_and_unshared(self):
        # cropped views (ceil-mode pooling, padded conv) and views of
        # another node's gradient (concat, reshape, fc bias) are copied
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(5, 5, 2)), requires_grad=True)
        a = relu(x)
        p = maxpool2d(a, 2, 2)
        c = conv2d(p, Tensor(rng.normal(size=(3, 3, 2, 2))), Tensor(np.zeros(2)),
                   padding=1)
        cc = concat_channels(c, c)
        r = reshape(cc, (cc.size,))
        bias = relu(Tensor(rng.normal(size=1), requires_grad=True))
        out = fully_connected(r, Tensor(rng.normal(size=(cc.size, 1))), bias)
        tensor_sum(out).backward()
        nodes = [x, a, p, c, cc, r, bias, out]
        for node in nodes:
            assert node.grad.flags.c_contiguous, node.op
        for i, m in enumerate(nodes):
            for n in nodes[i + 1:]:
                assert not np.shares_memory(m.grad, n.grad), (m.op, n.op)


class TestSgdStep:
    def test_plain_step(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        state = OptimizerState(learning_rate=0.1, momentum=0.0)
        w.grad = np.array([0.5])
        sgd_step({"w": w}, state)
        assert np.allclose(w.data, [0.95])
        assert state.velocities == {}

    def test_zero_gradient_leaves_parameters_unchanged(self):
        w = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        state = OptimizerState(learning_rate=0.1, momentum=0.9)
        sgd_step({"w": w}, state)  # a fresh leaf has no gradient
        assert np.array_equal(w.data, np.array([2.0, -1.0]))

    def test_two_momentum_steps_hand_applied(self):
        # v1 = 0.5, w = 1 - 0.05 = 0.95
        # v2 = 0.9*0.5 + 0.5 = 0.95, w = 0.95 - 0.095 = 0.855
        w = Tensor(np.array([1.0]), requires_grad=True)
        state = OptimizerState(learning_rate=0.1, momentum=0.9)
        w.grad = np.array([0.5])
        for _ in range(2):
            sgd_step({"w": w}, state)
        assert np.allclose(w.data, [0.855])

    def test_shape_mismatch_raises(self):
        w = Tensor(np.ones(3), requires_grad=True)
        state = OptimizerState(learning_rate=0.1)
        w.grad = np.ones(4)
        with pytest.raises(ShapeError):
            sgd_step({"w": w}, state)

    def test_velocity_exists_iff_momentum_positive(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with_mu = OptimizerState(learning_rate=0.1, momentum=0.5)
        w.grad = np.ones(2)
        sgd_step({"w": w}, with_mu)
        assert "w" in with_mu.velocities

    def test_non_finite_gradient_raises_before_any_update(self):
        # -inf -> conv -> relu -> sum: the loss is finite, the kernel's
        # gradient is not (-inf * 0)
        x = np.ones((3, 3, 1))
        x[1, 1, 0] = -np.inf
        k = Tensor(np.full((1, 1, 1, 2), 0.5), requires_grad=True)
        b = Tensor(np.array([0.1, -0.2]), requires_grad=True)
        loss = tensor_sum(relu(conv2d(Tensor(x), k, b)))
        assert np.isfinite(loss.data)
        with np.errstate(invalid="ignore"):
            loss.backward()
        assert not np.isfinite(k.grad).all() and np.isfinite(b.grad).all()
        params = {"b": b, "k": k}
        before = {name: p.data.copy() for name, p in params.items()}
        state = OptimizerState(learning_rate=0.1, momentum=0.9)
        with pytest.raises(FloatingPointError, match="'k'"):
            sgd_step(params, state)
        for name, p in params.items():
            assert p.data.tobytes() == before[name].tobytes(), name
        assert state.velocities == {}

    def test_step_allocates_no_parameter_sized_temporary(self):
        # fc1's shape: 8 MB of float32, where a whole-array lr * v alone
        # would allocate another 8 MB
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal((4096, 512)).astype(np.float32),
                   requires_grad=True)
        w.grad = rng.standard_normal(w.shape).astype(np.float32)
        state = OptimizerState(learning_rate=0.01, momentum=0.9)
        sgd_step({"w": w}, state)  # warm-up: the velocity now exists
        tracemalloc.start()
        try:
            sgd_step({"w": w}, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    # several blocks with a ragged last one (1-D, 2-D, 4-D), and a
    # parameter with fewer rows than one block
    @pytest.mark.parametrize("shape", [(150_001,), (1000, 300), (3, 3, 96, 96),
                                       (7, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_step_is_byte_identical_to_the_whole_array_update(self, shape, dtype,
                                                              momentum):
        rng = np.random.default_rng(6)
        data = rng.standard_normal(shape).astype(dtype)
        data.reshape(-1)[::7] = -0.0
        w = Tensor(data.copy(), requires_grad=True)
        state = OptimizerState(learning_rate=0.01, momentum=momentum)
        p, v = data.copy(), np.zeros_like(data)
        for _ in range(3):
            g = rng.standard_normal(shape).astype(dtype)
            g.reshape(-1)[::5] = -0.0
            w.grad = g.copy()
            sgd_step({"w": w}, state)
            if momentum > 0.0:
                v *= momentum
                v += g
                p -= 0.01 * v
            else:
                p -= 0.01 * g
        assert w.data.tobytes() == p.tobytes()
        if momentum > 0.0:
            assert state.velocities["w"].tobytes() == v.tobytes()

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            OptimizerState(learning_rate=-1.0)
        with pytest.raises(ValueError):
            OptimizerState(learning_rate=0.1, momentum=1.0)


class TestFiniteDiffCheck:
    def test_linear_op_is_nearly_exact(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 4, 2)), requires_grad=True)
        err = finite_diff_check(lambda: tensor_sum(global_avgpool(x)), x)
        assert err < 1e-10

    def test_relu_away_from_zero(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(3, 3, 2))
        vals[np.abs(vals) < 0.2] = 0.5
        x = Tensor(vals, requires_grad=True)
        err = finite_diff_check(lambda: tensor_sum(relu(x)), x)
        assert err < 1e-6

    def test_rejects_non_scalar_loss(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            finite_diff_check(lambda: relu(x), x)


def _check(fn, wrt, tol=1e-4, eps=1e-5):
    err = finite_diff_check(fn, wrt, eps=eps)
    assert err < tol, f"gradient error {err:.3g} >= {tol}"


def _off_kink(x, gamma, beta, stats, margin=0.2):
    """Move each input whose pre-activation under the rectified batchnorm
    lies within ``margin`` of zero to a pre-activation of +-0.5, so that
    finite differences never straddle the kink."""
    scale = gamma.data / np.sqrt(stats.var + 1e-5)
    pre = (x.data - stats.mean) * scale + beta.data
    pre = np.where(np.abs(pre) < margin, np.copysign(0.5, pre), pre)
    x.data[...] = (pre - beta.data) / scale + stats.mean
    assert 0.2 < (pre > 0).mean() < 0.8  # both sides of the kink


class TestLayerGradients:
    """Central finite differences for every differentiable op (64-bit)."""

    def test_conv2d_gradients(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(5, 5, 2)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)

        def loss():
            return tensor_sum(relu(conv2d(x, k, b, stride=2, padding=1)))

        for wrt in (x, k, b):
            _check(loss, wrt)

    def test_deconv2d_gradients(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 3, 2)), requires_grad=True)

        def loss():
            return tensor_sum(relu(deconv2d(x, k, stride=2)))

        for wrt in (x, k):
            _check(loss, wrt)

    def test_maxpool_gradient(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(7, 7, 2)), requires_grad=True)
        _check(lambda: tensor_sum(maxpool2d(x, 3, 2)), x)

    def test_maxpool_ceil_gradient(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(6, 6, 2)), requires_grad=True)
        _check(lambda: tensor_sum(maxpool2d(x, 3, 2)), x)

    def test_batchnorm_gradients_online_mode(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(4, 4, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(size=3) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        stats = RunningStats(np.array([0.2, -0.4, 0.1]), np.array([0.7, 1.8, 1.2]))

        _off_kink(x, gamma, beta, stats)

        def loss():
            # each pass folds x's statistics into a fresh copy
            return tensor_sum(batchnorm(x, gamma, beta, stats.copy(), mode="online"))

        for wrt in (x, gamma, beta):
            _check(loss, wrt)

    def test_batchnorm_gradients_eval_mode(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(4, 4, 2)), requires_grad=True)
        gamma = Tensor(np.array([1.3, 0.7]), requires_grad=True)
        beta = Tensor(np.array([0.1, -0.2]), requires_grad=True)
        stats = RunningStats(np.array([0.3, -0.1]), np.array([1.5, 0.8]))

        _off_kink(x, gamma, beta, stats)

        def loss():
            return tensor_sum(batchnorm(x, gamma, beta, stats, mode="eval"))

        for wrt in (x, gamma, beta):
            _check(loss, wrt)

    def test_softmax_gradients(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=5), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 1)))

        def map_loss():
            p = channel_softmax(x)
            # weight the probabilities so the gradient is not trivially zero
            return tensor_sum(conv2d(p, Tensor(weights.data.reshape(1, 1, 4, 1)),
                                     Tensor(np.zeros(1))))

        _check(map_loss, x)
        _check(lambda: cross_entropy(vector_softmax(v), 2), v)

    def test_concat_gradient_splits(self):
        rng = np.random.default_rng(27)
        a = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3, 1)), requires_grad=True)
        w = Tensor(rng.normal(size=(1, 1, 3, 2)))

        def loss():
            return tensor_sum(relu(conv2d(concat_channels(a, b), w,
                                          Tensor(np.zeros(2)))))

        for wrt in (a, b):
            _check(loss, wrt)

    def test_crop_gradient(self):
        rng = np.random.default_rng(28)
        x = Tensor(rng.normal(size=(5, 5, 2)), requires_grad=True)
        _check(lambda: tensor_sum(relu(crop_spatial(x, 4, 3))), x)

    def test_fully_connected_gradients(self):
        rng = np.random.default_rng(29)
        x = Tensor(rng.normal(size=4), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)

        def loss():
            return cross_entropy(vector_softmax(fully_connected(x, w, b)), 1)

        for wrt in (x, w, b):
            _check(loss, wrt)


class TestConvInputGradient:
    """conv2d's input gradient, one GEMM over the spread output gradient,
    against the transposed-convolution rule it replaced and against
    central differences (exact here: the loss is linear in x)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_matches_deconv_rule_and_finite_differences(self, k, stride, padding):
        rng = np.random.default_rng(100 * k + 10 * stride + padding)
        h, w = 7, 6
        for cin, cout in ((2, 3), (8, 1)):
            x = Tensor(rng.normal(size=(h, w, cin)), requires_grad=True)
            kernel = rng.normal(size=(k, k, cin, cout))
            bias = np.zeros(cout)
            out = conv2d(x, Tensor(kernel), Tensor(bias), stride=stride,
                         padding=padding)
            g = rng.normal(size=out.shape)
            out._backward_fn(g)
            old = _deconv_planes(g, kernel, stride, h + 2 * padding,
                                 w + 2 * padding)[padding:padding + h,
                                                  padding:padding + w]
            assert np.abs(x.grad - old).max() < 1e-12

            def loss(arr):
                out = conv2d(Tensor(arr), Tensor(kernel), Tensor(bias),
                             stride=stride, padding=padding)
                return float((out.data * g).sum())

            numeric = np.empty_like(x.data)
            for idx in np.ndindex(x.shape):
                step = np.zeros_like(x.data)
                step[idx] = 0.5
                numeric[idx] = loss(x.data + step) - loss(x.data - step)
            assert np.abs(x.grad - numeric).max() < 1e-9


class TestFullyConnectedWeightGradient:
    """The weight gradient is deferred: each backward pass records its
    rows, and the first read of ``grad`` folds them in as one product.
    Finite differences on the weights: ``test_fully_connected_gradients``."""

    @staticmethod
    def _batch(rng, w, images=6):
        n, m = w.shape
        b = Tensor(np.zeros(m))
        want = np.zeros((n, m))
        for _ in range(images):
            x = rng.normal(size=n)
            g = rng.normal(size=m)
            fully_connected(Tensor(x), w, b)._backward_fn(g)
            want += np.outer(x, g)
        return want

    def test_float64_gradient_within_1e12_of_summed_outer_products(self):
        rng = np.random.default_rng(41)
        w = Tensor(rng.normal(size=(600, 40)), requires_grad=True)
        want = self._batch(rng, w)
        assert np.abs(w.grad - want).max() < 1e-12

    def test_reading_grad_twice_returns_the_same_array(self):
        rng = np.random.default_rng(43)
        w = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        want = self._batch(rng, w)
        first = w.grad
        assert w.grad is first
        assert np.abs(first - want).max() < 1e-12

    def test_rows_recorded_after_a_read_are_added_to_it(self):
        rng = np.random.default_rng(44)
        w = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        want = self._batch(rng, w, images=2)
        assert np.abs(w.grad - want).max() < 1e-12
        want += self._batch(rng, w, images=3)
        assert np.abs(w.grad - want).max() < 1e-12

    def test_assigning_grad_discards_pending_rows(self):
        rng = np.random.default_rng(45)
        w = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        self._batch(rng, w)
        w.grad = None
        assert w.grad is None
        want = self._batch(rng, w, images=1)
        assert np.abs(w.grad - want).max() < 1e-12

    def test_non_finite_pending_row_raises_in_sgd_step_before_any_change(self):
        rng = np.random.default_rng(47)
        first = Tensor(rng.normal(size=3), requires_grad=True)
        first.grad = np.ones(3)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = rng.normal(size=4)
        x[2] = np.inf
        fully_connected(Tensor(x), w, Tensor(np.zeros(3)))._backward_fn(np.ones(3))
        before = (first.data.copy(), w.data.copy())
        state = OptimizerState(learning_rate=0.1, momentum=0.9)
        with pytest.raises(FloatingPointError, match="'w'"):
            sgd_step({"first": first, "w": w}, state)
        assert np.array_equal(first.data, before[0])
        assert np.array_equal(w.data, before[1])
        assert state.velocities == {}


class TestFullyConnectedRows:
    """Rows [R,N] through ``fully_connected``: one row gives the bytes of
    the [N] vector, and R rows are R vectors up to summation order."""

    @staticmethod
    def _pass(x, w, b, g):
        """The output and the input, weight and bias gradients of one
        backward pass from the output gradient ``g``."""
        x, w, b = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = fully_connected(x, w, b)
        out._backward_fn(g)
        return out.data, x.grad, w.grad, b.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, m", [(5, 3), (96, 24), (4096, 512)])
    def test_one_row_is_byte_identical_to_the_vector(self, dtype, n, m):
        rng = np.random.default_rng(51)
        for _ in range(5):
            x, b, g = (rng.normal(size=k).astype(dtype) for k in (n, m, m))
            g[::3] = -0.0  # as a ReLU's mask leaves it
            w = rng.normal(size=(n, m)).astype(dtype)
            vector = self._pass(x, w, b, g)
            assert vector[3].tobytes() == g.tobytes()  # signed zeros kept
            for got, want in zip(self._pass(x[None], w, b, g[None]), vector):
                assert got.dtype == dtype and got.size == want.size
                assert got.tobytes() == want.tobytes()

    def test_float64_rows_within_1e12_of_one_vector_each(self):
        rng = np.random.default_rng(52)
        x, g = rng.normal(size=(5, 60)), rng.normal(size=(5, 7))
        w, b = rng.normal(size=(60, 7)), rng.normal(size=7)
        rows = self._pass(x, w, b, g)
        each = [self._pass(xi, w, b, gi) for xi, gi in zip(x, g)]
        for k, got in enumerate(rows):
            want = [e[k] for e in each]
            want = np.stack(want) if k < 2 else sum(want)  # per row, summed
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12
