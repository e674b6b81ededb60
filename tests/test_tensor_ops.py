"""Forward-pass contracts for the layer primitives, checked against
hand values and the brute-force loop oracles."""

import numpy as np
import pytest

from chroma.tensor import (
    Tensor,
    ShapeError,
    conv2d,
    deconv2d,
    maxpool2d,
    global_avgpool,
    batchnorm,
    conv1x1_batchnorm,
    RunningStats,
    relu,
    channel_softmax,
    vector_softmax,
    concat_channels,
    conv1x1_concat,
    slice_channels,
    fully_connected,
    cross_entropy,
    tensor_sum,
    _deconv_planes,
    _softmax_node,
)

from oracles import (
    batchnorm_loops,
    conv2d_loops,
    deconv2d_loops,
    maxpool2d_loops,
    maxpool2d_grad_loops,
    avgpool_loops,
    fc_loops,
    inner,
    relu_loops,
    running_stats_loops,
)


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.full((1, 1, 1), 2.0))
        k = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = conv2d(x, k, b)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 2.0

    def test_all_ones_summation(self):
        x = Tensor(np.ones((3, 3, 1)))
        k = Tensor(np.ones((3, 3, 1, 1)))
        out = conv2d(x, k, Tensor(np.zeros(1)), stride=1, padding=0)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 9.0

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        got = conv2d(Tensor(x), Tensor(k), Tensor(b)).data
        want = conv2d_loops(x, k, b)
        assert np.abs(got - want).max() < 1e-6

    def test_stride_and_padding_match_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 7, 3))
        k = rng.normal(size=(3, 3, 3, 2))
        b = rng.normal(size=2)
        got = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=2, padding=1).data
        want = conv2d_loops(x, k, b, stride=2, padding=1)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-6

    def test_channel_mismatch_names_dimension(self):
        x = Tensor(np.zeros((4, 4, 3)))
        k = Tensor(np.zeros((3, 3, 4, 2)))
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, k, Tensor(np.zeros(2)))

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((3, 3, 1, 1))),
                   Tensor(np.zeros(1)))


class TestDeconv2d:
    def test_unit_impulse_reproduces_kernel(self):
        rng = np.random.default_rng(1)
        k = rng.normal(size=(8, 8, 1, 1))
        x = Tensor(np.ones((1, 1, 1)))
        out = deconv2d(x, Tensor(k), stride=4)
        assert out.shape == (8, 8, 1)
        assert np.array_equal(out.data, k[:, :, :, 0])

    def test_disjoint_scatter(self):
        x = Tensor(np.ones((2, 2, 1)))
        k = Tensor(np.ones((2, 2, 1, 1)))
        out = deconv2d(x, k, stride=2)
        assert out.shape == (4, 4, 1)
        assert np.array_equal(out.data, np.ones((4, 4, 1)))

    @pytest.mark.parametrize("k, stride", [(3, 2), (2, 2), (1, 2), (3, 1),
                                           (4, 3)])
    @pytest.mark.parametrize("crop", [-1, 0, 1, 2])
    def test_parity_planes_match_adding_taps_onto_zeros(self, k, stride, crop):
        # each output pixel sums its taps in row-major tap order, starting
        # from +0 (so a -0 comes out as +0, also where stride == k tiles
        # the grid); the map is cropped to its top-left corner, or padded
        # with zeros
        rng = np.random.default_rng(10 * k + stride + 100 * (crop + 1))
        h, w, cin, cout = 4, 3, 2, 3
        x = rng.normal(size=(h, w, cin))
        x[rng.random(x.shape) < 0.3] = -0.0
        kernel = rng.normal(size=(k, k, cout, cin))
        taps = (x.reshape(h * w, cin) @ kernel.reshape(k * k * cout, cin).T
                ).reshape(h, w, k, k, cout)
        oh, ow = (h - 1) * stride + k, (w - 1) * stride + k
        want = np.zeros((oh + 1, ow + 2, cout))
        for dy in range(k):
            for dx in range(k):
                for i in range(h):
                    for j in range(w):
                        want[i * stride + dy, j * stride + dx] += taps[i, j, dy, dx]
        oh, ow = max(1, oh - crop), max(1, ow - 2 * crop)
        got = _deconv_planes(x, kernel, stride, oh, ow)
        assert got.tobytes() == want[:oh, :ow].copy().tobytes()

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 3))
        k = rng.normal(size=(3, 3, 2, 3))
        got = deconv2d(Tensor(x), Tensor(k), stride=2).data
        want = deconv2d_loops(x, k, stride=2)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-6

    def test_forward_equals_conv_input_adjoint(self):
        # deconv2d(g, K, s) must equal the autodiff gradient of
        # conv2d(x, K, s) with respect to x, for conv-layout K.
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(7, 7, 2)), requires_grad=True)
        k = rng.normal(size=(3, 3, 2, 4))
        out = conv2d(x, Tensor(k), Tensor(np.zeros(4)), stride=2)
        g = rng.normal(size=out.shape)
        # drive backward manually with an arbitrary upstream gradient
        out._backward_fn(g)
        via_autodiff = x.grad.copy()
        via_deconv = deconv2d(Tensor(g), Tensor(k), stride=2).data
        assert np.abs(via_autodiff - via_deconv).max() < 1e-6


class TestMaxpool2d:
    def test_small_window(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
        out = maxpool2d(x, k=2, stride=2)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 4.0

    def test_constant_input_preserves_gradient_mass(self):
        x = Tensor(np.full((4, 4, 1), 3.0), requires_grad=True)
        out = maxpool2d(x, k=2, stride=2)
        assert np.array_equal(out.data, np.full((2, 2, 1), 3.0))
        tensor_sum(out).backward()
        # one winner per window -> total mass equals the window count
        assert x.grad.sum() == 4.0
        assert ((x.grad == 0) | (x.grad == 1)).all()

    def test_matches_scanning_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 7, 3))
        got = maxpool2d(Tensor(x), k=3, stride=2).data
        want = maxpool2d_loops(x, 3, 2)
        assert np.array_equal(got, want)

    def test_ceil_mode_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 8, 2))
        got = maxpool2d(Tensor(x), k=3, stride=2).data
        want = maxpool2d_loops(x, 3, 2)
        assert got.shape == want.shape == (3, 4, 2)
        assert np.array_equal(got, want)

    def test_ceil_mode_never_emits_an_all_padding_window(self):
        # stride > k: a third window per axis would start at 6, past the
        # 5-pixel edge, and cover only -inf padding
        x = np.arange(25.0).reshape(5, 5, 1)
        got = maxpool2d(Tensor(x), k=1, stride=3).data
        assert np.array_equal(got, [[[0.0], [3.0]], [[15.0], [18.0]]])
        assert np.array_equal(maxpool2d_loops(x, 1, 3), got)

    def test_tie_routes_to_first_row_major_index(self):
        x = Tensor(np.full((2, 2, 1), 5.0), requires_grad=True)
        out = maxpool2d(x, k=2, stride=2)
        tensor_sum(out).backward()
        want = np.zeros((2, 2, 1))
        want[0, 0, 0] = 1.0
        assert np.array_equal(x.grad, want)

    def test_window_larger_than_input(self):
        with pytest.raises(ShapeError, match="larger"):
            maxpool2d(Tensor(np.zeros((2, 2, 1))), k=3, stride=1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # the two shapes need edge padding on different axes for k3 s2 and k2 s2
    @pytest.mark.parametrize("variant, shape", [(1, (8, 7, 3)), (2, (9, 6, 3))])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bytes_match_oracle_with_ties_and_signed_zeros(self, k, stride,
                                                           variant, shape,
                                                           dtype):
        rng = np.random.default_rng(100 * k + 10 * stride + variant)
        # few distinct values: most windows tie, many between +0 and -0
        x = rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape).astype(dtype)
        t = Tensor(x, requires_grad=True)
        out = maxpool2d(t, k=k, stride=stride)
        want = maxpool2d_loops(x, k, stride)
        assert out.data.dtype == want.dtype and out.data.shape == want.shape
        assert out.data.tobytes() == want.tobytes()
        # inexact sums, so the order of additions into a pixel shows
        g = rng.normal(size=out.shape)
        g[rng.random(out.shape) < 0.2] = -0.0
        g = g.astype(dtype)
        out._backward_fn(g)
        want_grad = maxpool2d_grad_loops(x, k, stride, g)
        assert t.grad.tobytes() == want_grad.tobytes()


class TestGlobalAvgpool:
    def test_single_channel_mean(self):
        x = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(2, 2, 1))
        out = global_avgpool(x)
        assert out.shape == (1,)
        assert out.data[0] == 4.0

    def test_constant_map(self):
        x = Tensor(np.full((5, 3, 2), 2.5))
        assert np.array_equal(global_avgpool(x).data, np.array([2.5, 2.5]))

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 4, 3))
        got = global_avgpool(Tensor(x)).data
        assert np.abs(got - avgpool_loops(x)).max() < 1e-9


class TestBatchnorm:
    @pytest.mark.parametrize("mode", ["online", "eval"])
    def test_input_matching_the_statistics_comes_out_standardized(self, mode):
        rng = np.random.default_rng(7)
        x = rng.normal(loc=2.0, scale=3.0, size=(6, 6, 3))
        stats = RunningStats(x.mean(axis=(0, 1)), x.var(axis=(0, 1)))
        out = batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                        stats, mode=mode)
        want = (x - x.mean(axis=(0, 1))) / x.std(axis=(0, 1))
        assert np.abs(out.data - np.maximum(want, 0.0)).max() < 1e-5

    @pytest.mark.parametrize("mode", ["online", "eval"])
    def test_zero_gamma_gives_rectified_beta(self, mode):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 4, 2))
        beta = np.array([1.5, -2.0])
        out = batchnorm(Tensor(x), Tensor(np.zeros(2)), Tensor(beta),
                        RunningStats(np.array([0.5, -1.0]), np.array([2.0, 0.3])),
                        mode=mode)
        assert np.array_equal(out.data, np.broadcast_to([1.5, 0.0], (4, 4, 2)))

    @pytest.mark.parametrize("mode", ["online", "eval"])
    def test_zero_variance_channel_is_safe(self, mode):
        # a constant input normalized by statistics of zero variance
        x = Tensor(np.full((3, 3, 1), 4.0), requires_grad=True)
        stats = RunningStats(np.array([4.0]), np.array([0.0]))
        out = batchnorm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), stats,
                        mode=mode)
        tensor_sum(out).backward()
        assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()
        assert np.array_equal(stats.var, [0.0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            batchnorm(Tensor(np.ones((2, 2, 1))), Tensor(np.ones(1)),
                      Tensor(np.zeros(1)), RunningStats(np.zeros(1), np.ones(1)),
                      mode="train")

    def test_online_mode_normalizes_by_pre_update_running_stats(self):
        rng = np.random.default_rng(21)
        x = rng.normal(loc=1.0, scale=2.0, size=(5, 5, 2))
        stats = RunningStats(np.array([0.5, -0.5]), np.array([2.0, 0.5]))
        frozen = stats.copy()
        out = batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        stats, mode="online")
        want = np.maximum((x - frozen.mean) / np.sqrt(frozen.var + 1e-5), 0.0)
        assert np.abs(out.data - want).max() < 1e-12
        # statistics were folded in after normalization
        assert np.allclose(stats.mean, 0.9 * frozen.mean + 0.1 * x.mean(axis=(0, 1)))
        assert np.allclose(stats.var, 0.9 * frozen.var + 0.1 * x.var(axis=(0, 1)))

    def test_running_stats_update_and_eval(self):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=2.0, scale=3.0, size=(8, 8, 2))
        stats = RunningStats(np.zeros(2), np.ones(2))
        batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), stats,
                  mode="online")
        assert np.allclose(stats.mean, 0.1 * x.mean(axis=(0, 1)))
        assert np.allclose(stats.var, 0.9 + 0.1 * x.var(axis=(0, 1)))
        frozen = stats.copy()
        batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), frozen,
                  mode="eval")
        assert np.array_equal(frozen.mean, stats.mean)
        assert np.array_equal(frozen.var, stats.var)


def _batchnorm_oracle(x, gamma, beta, mean, var, g):
    """The rectified layer from the loop oracles, in float64: its output
    and the gradients of x, gamma and beta for an output gradient g."""
    out = relu_loops(batchnorm_loops(x, gamma, beta, mean, var))
    gm = g * (out > 0.0)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    dgamma = ((x - mean) * gm).sum(axis=(0, 1)) * inv_std
    return out, gm * gamma * inv_std, dgamma, gm.sum(axis=(0, 1))


def _batchnorm_case(dtype, seed=31, shape=(9, 7, 5)):
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=shape) * 3.0 + 1.5).astype(dtype)
    c = shape[-1]
    gamma = rng.normal(size=c).astype(dtype)
    beta = rng.normal(size=c).astype(dtype)
    mean = rng.normal(size=c).astype(dtype)
    var = (rng.random(c) + 0.5).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    # keep every pre-activation off the ReLU's kink
    scale = gamma / np.sqrt(var + 1e-5)
    pre = (x - mean) * scale + beta
    pre = np.where(np.abs(pre) < 0.1, np.copysign(0.5, pre), pre)
    x = ((pre - beta) / scale + mean).astype(dtype)
    return x, gamma, beta, mean, var, g


def _batchnorm_run(x, gamma, beta, stats, mode, g):
    xt = Tensor(x, requires_grad=True)
    gt = Tensor(gamma, requires_grad=True)
    bt = Tensor(beta, requires_grad=True)
    out = batchnorm(xt, gt, bt, stats, mode=mode)
    out._backward_fn(g)
    return out.data, xt.grad, gt.grad, bt.grad


class TestRectifiedBatchnorm:
    @pytest.mark.parametrize("mode", ["online", "eval"])
    def test_matches_rectified_loop_oracle(self, mode):
        x, gamma, beta, mean, var, g = _batchnorm_case(np.float64)
        stats = RunningStats(mean.copy(), var.copy())
        got = _batchnorm_run(x, gamma, beta, stats, mode, g)
        want = _batchnorm_oracle(x, gamma, beta, mean, var, g)
        assert 0.2 < (got[0] > 0).mean() < 0.8  # both sides of the kink
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta"), got, want):
            assert np.abs(a - b).max() < 1e-10, name
        want_stats = (running_stats_loops(x, mean, var) if mode == "online"
                      else (mean, var))
        for a, b in zip((stats.mean, stats.var), want_stats):
            assert np.abs(a - b).max() < 1e-10

    @pytest.mark.parametrize("mode", ["online", "eval"])
    def test_output_and_input_gradient_bit_equal_to_a_separate_relu(self, mode):
        # the mask is formed once from the rectified output, exactly as
        # relu's backward forms it from its input
        x, gamma, beta, mean, var, g = _batchnorm_case(np.float32)
        out, dx, _, _ = _batchnorm_run(x, gamma, beta,
                                       RunningStats(mean.copy(), var.copy()),
                                       mode, g)
        scale = gamma * (1.0 / np.sqrt(var + 1e-5))
        pre = x * scale + (beta - mean * scale)
        assert out.tobytes() == np.maximum(pre, 0.0).tobytes()
        assert dx.tobytes() == ((g * (pre > 0.0)) * scale).tobytes()

    def test_float32_running_statistics_within_relative_1e5(self):
        # a color-branch-sized map: 4096 pixels summed per channel
        x, gamma, beta, mean, var, g = _batchnorm_case(np.float32, seed=33,
                                                       shape=(64, 64, 6))
        stats = RunningStats(mean.copy(), var.copy())
        batchnorm(Tensor(x), Tensor(gamma), Tensor(beta), stats, mode="online")
        want = running_stats_loops(x.astype(np.float64), mean.astype(np.float64),
                                   var.astype(np.float64))
        for a, b in zip((stats.mean, stats.var), want):
            assert a.dtype == np.float32
            assert np.abs(a - b).max() / np.abs(b).max() < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_online_gradients_use_the_pre_update_statistics(self, dtype):
        # the backward pass runs after online mode has folded x's
        # statistics into ``stats``; it must still see the old ones, as
        # eval mode on an untouched copy does
        x, gamma, beta, mean, var, g = _batchnorm_case(dtype, seed=32)
        online = RunningStats(mean.copy(), var.copy())
        got = _batchnorm_run(x, gamma, beta, online, "online", g)
        assert not np.array_equal(online.mean, mean)
        assert not np.array_equal(online.var, var)
        want = _batchnorm_run(x, gamma, beta, RunningStats(mean, var), "eval", g)
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta"), got, want):
            assert a.tobytes() == b.tobytes(), name


def _conv_bn_case(dtype, seed=51, shape=(9, 7, 3), cout=5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=shape).astype(dtype)
    k = rng.normal(size=(1, 1, shape[-1], cout)).astype(dtype)
    bias = rng.normal(size=cout).astype(dtype)
    gamma = (rng.normal(size=cout) + 1.0).astype(dtype)
    beta = rng.normal(size=cout).astype(dtype)
    mean = rng.normal(size=cout).astype(dtype)
    var = (rng.random(cout) + 0.5).astype(dtype)
    g = rng.normal(size=shape[:2] + (cout,)).astype(dtype)
    return x, k, bias, gamma, beta, mean, var, g


def _conv_bn_run(case, mode):
    """The node's output, running statistics after the pass, and the
    gradients of x, kernel, bias, gamma and beta for the case's g."""
    x, k, bias, gamma, beta, mean, var, g = case
    stats = RunningStats(mean.copy(), var.copy())
    ts = [Tensor(v, requires_grad=True) for v in (x, k, bias, gamma, beta)]
    out = conv1x1_batchnorm(*ts, stats, mode=mode)
    out._backward_fn(g)
    return out.data, stats, [t.grad for t in ts]


class TestConv1x1Batchnorm:
    """relu(bn(conv1x1(x))) as one node, against the loop oracles."""

    @pytest.mark.parametrize("mode", ["online", "eval"])
    def test_matches_loop_oracles_within_1e10(self, mode):
        case = _conv_bn_case(np.float64)
        x, k, bias, gamma, beta, mean, var, g = case
        out, stats, grads = _conv_bn_run(case, mode)

        y = conv2d_loops(x, k, bias)
        want = relu_loops(batchnorm_loops(y, gamma, beta, mean, var))
        assert 0.2 < (want > 0).mean() < 0.8  # both sides of the kink
        gm = g * (want > 0.0)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        dy = gm * gamma * inv_std
        want_grads = [dy @ k[0, 0].T,
                      np.einsum("hwi,hwc->ic", x, dy)[None, None],
                      dy.sum(axis=(0, 1)),
                      ((y - mean) * gm).sum(axis=(0, 1)) * inv_std,
                      gm.sum(axis=(0, 1))]
        assert np.abs(out - want).max() < 1e-10
        for name, a, b in zip(("dx", "dkernel", "dbias", "dgamma", "dbeta"),
                              grads, want_grads):
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() < 1e-10, name
        want_stats = (running_stats_loops(y, mean, var) if mode == "online"
                      else (mean, var))
        for a, b in zip((stats.mean, stats.var), want_stats):
            assert np.abs(a - b).max() < 1e-10

    def test_float32_running_statistics_within_relative_1e5(self):
        # a color-branch-sized image: 4096 pixels, the variance from the
        # input's moments rather than a sum over the conv's output
        case = _conv_bn_case(np.float32, seed=52, shape=(64, 64, 3), cout=8)
        x, k, bias, gamma, beta, mean, var, _ = case
        stats = RunningStats(mean.copy(), var.copy())
        conv1x1_batchnorm(Tensor(x), Tensor(k), Tensor(bias), Tensor(gamma),
                          Tensor(beta), stats, mode="online")
        f64 = lambda a: a.astype(np.float64)
        y = f64(x).reshape(-1, 3) @ f64(k[0, 0]) + f64(bias)
        want = running_stats_loops(y.reshape(64, 64, 8), f64(mean), f64(var))
        for a, b in zip((stats.mean, stats.var), want):
            assert a.dtype == np.float32
            assert np.abs(a - b).max() / np.abs(b).max() < 1e-5

    @pytest.mark.parametrize("mode", ["online", "eval"])
    def test_zero_gamma_gives_rectified_beta(self, mode):
        x, k, bias, _, _, mean, var, _ = _conv_bn_case(np.float64, seed=53,
                                                       cout=2)
        out = conv1x1_batchnorm(Tensor(x), Tensor(k), Tensor(bias),
                                Tensor(np.zeros(2)), Tensor(np.array([1.5, -2.0])),
                                RunningStats(mean, var), mode=mode)
        assert np.array_equal(out.data, np.broadcast_to([1.5, 0.0], (9, 7, 2)))

    def test_grayscale_image_gives_non_negative_running_variance(self):
        # equal channels make the covariance singular: a kernel column
        # summing to zero has an output of zero variance, which wᵀΣw
        # can round to a tiny negative value (here in float64)
        rng = np.random.default_rng(54)
        gray = np.repeat(rng.uniform(size=(64, 64, 1)), 3, axis=2)
        cols = np.random.default_rng(0).normal(size=(2, 8))
        k = np.vstack([cols, -cols.sum(axis=0)])[None, None]
        for dtype in (np.float32, np.float64):
            zero = np.zeros(8, dtype)
            stats = RunningStats(zero.copy(), zero.copy())
            conv1x1_batchnorm(Tensor(gray.astype(dtype)), Tensor(k.astype(dtype)),
                              Tensor(zero), Tensor(np.ones(8, dtype)), Tensor(zero),
                              stats, mode="online")
            assert (stats.var >= 0.0).all()
            assert stats.var.max() < 1e-12

    def test_shape_and_mode_errors(self):
        x = Tensor(np.zeros((2, 2, 3)))
        one = Tensor(np.ones(2))
        stats = RunningStats(np.zeros(2), np.ones(2))
        with pytest.raises(ShapeError, match="kernel"):
            conv1x1_batchnorm(x, Tensor(np.zeros((1, 1, 2, 2))), one, one, one,
                              stats, mode="eval")
        with pytest.raises(ShapeError, match="gamma"):
            conv1x1_batchnorm(x, Tensor(np.zeros((1, 1, 3, 2))), one,
                              Tensor(np.ones(3)), one, stats, mode="eval")
        with pytest.raises(ValueError, match="mode"):
            conv1x1_batchnorm(x, Tensor(np.zeros((1, 1, 3, 2))), one, one, one,
                              stats, mode="train")


class TestActivations:
    def test_relu_clamps_negative(self):
        out = relu(Tensor(np.array([-1.0])))
        assert out.data[0] == 0.0

    def test_vector_softmax_uniform(self):
        out = vector_softmax(Tensor(np.zeros(2)))
        assert np.array_equal(out.data, np.array([0.5, 0.5]))

    def test_channel_softmax_fibers_sum_to_one(self):
        rng = np.random.default_rng(10)
        x = rng.normal(scale=5.0, size=(9, 7, 11))
        p = channel_softmax(Tensor(x)).data
        assert np.abs(p.sum(axis=2) - 1.0).max() < 1e-6
        assert (p > 0).all() and (p < 1).all()

    def test_softmax_is_stable_for_large_inputs(self):
        p = vector_softmax(Tensor(np.array([1000.0, 1000.0, 0.0]))).data
        assert np.isfinite(p).all()
        assert abs(p.sum() - 1.0) < 1e-12


def _softmax_pair(x, g):
    """channel_softmax and the last-axis reduction form, each with the
    input gradient for an output gradient g."""
    runs = []
    for op in (channel_softmax, lambda t: _softmax_node(t, 2, "reference")):
        xt = Tensor(x, requires_grad=True)
        out = op(xt)
        out._backward_fn(g)
        runs.append((out.data, xt.grad))
    return runs


class TestChannelSoftmaxPlanes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("classes", [2, 6, 7])
    def test_bit_equal_to_last_axis_reduction_below_eight_classes(
            self, classes, dtype):
        rng = np.random.default_rng(classes)
        x = (rng.normal(size=(13, 11, classes)) * 4.0).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        (p, dx), (want_p, want_dx) = _softmax_pair(x, g)
        assert p.tobytes() == want_p.tobytes()
        assert dx.tobytes() == want_dx.tobytes()

    def test_eleven_classes_within_a_few_ulps(self):
        # basic11: from 8 classes on numpy sums the last axis in blocks
        rng = np.random.default_rng(11)
        x = (rng.normal(size=(64, 64, 11)) * 4.0).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        (p, dx), (want_p, want_dx) = _softmax_pair(x, g)
        assert p.dtype == np.float32
        assert np.abs(p - want_p).max() < 1e-6
        assert np.abs(dx - want_dx).max() < 1e-5


class TestConv1x1Concat:
    def test_matches_conv_of_concatenation_with_all_gradients(self):
        rng = np.random.default_rng(41)
        a, b = rng.normal(size=(6, 5, 4)), rng.normal(size=(6, 5, 3))
        k, bias = rng.normal(size=(1, 1, 7, 2)), rng.normal(size=2)
        g = rng.normal(size=(6, 5, 2))
        runs = []
        for split in (True, False):
            ts = [Tensor(v, requires_grad=True) for v in (a, b, k, bias)]
            if split:
                out = conv1x1_concat(*ts)
                out._backward_fn(g)
            else:
                cat = concat_channels(ts[0], ts[1])
                out = conv2d(cat, ts[2], ts[3])
                out._backward_fn(g)
                cat._backward_fn(cat.grad)
            runs.append([out.data] + [t.grad for t in ts])
        for name, got, want in zip(("out", "da", "db", "dkernel", "dbias"),
                                   *runs):
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() < 1e-12, name

    def test_shape_errors(self):
        a, b = Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((2, 2, 2)))
        with pytest.raises(ShapeError, match="spatial"):
            conv1x1_concat(a, Tensor(np.zeros((3, 2, 2))),
                           Tensor(np.zeros((1, 1, 3, 1))), Tensor(np.zeros(1)))
        with pytest.raises(ShapeError, match="kernel"):
            conv1x1_concat(a, b, Tensor(np.zeros((1, 1, 2, 1))),
                           Tensor(np.zeros(1)))
        with pytest.raises(ShapeError, match="bias"):
            conv1x1_concat(a, b, Tensor(np.zeros((1, 1, 3, 1))),
                           Tensor(np.zeros(2)))


class TestConcatChannels:
    def test_stacks_in_order(self):
        a = Tensor(np.full((1, 1, 1), 1.0))
        b = Tensor(np.full((1, 1, 1), 2.0))
        out = concat_channels(a, b)
        assert np.array_equal(out.data, np.array([[[1.0, 2.0]]]))

    def test_concat_then_slice_recovers_inputs(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 4, 2))
        b = rng.normal(size=(3, 4, 5))
        cat = concat_channels(Tensor(a), Tensor(b))
        assert np.array_equal(slice_channels(cat, 0, 2).data, a)
        assert np.array_equal(slice_channels(cat, 2, 7).data, b)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="spatial"):
            concat_channels(Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((3, 2, 1))))


class TestFullyConnected:
    def test_identity_weights(self):
        x = np.array([1.0, -2.0, 3.0])
        out = fully_connected(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, x)

    def test_zero_weights_give_bias(self):
        b = np.array([0.5, -0.5])
        out = fully_connected(Tensor(np.ones(4)), Tensor(np.zeros((4, 2))), Tensor(b))
        assert np.array_equal(out.data, b)

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=6)
        w = rng.normal(size=(6, 4))
        b = rng.normal(size=4)
        got = fully_connected(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.abs(got - fc_loops(x, w, b)).max() < 1e-9

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 4)])
    def test_dimension_mismatch(self, shape):
        with pytest.raises(ShapeError):
            fully_connected(Tensor(np.ones(shape)), Tensor(np.ones((4, 2))),
                            Tensor(np.zeros(2)))


class TestCrossEntropy:
    def test_one_hot_correct_prediction(self):
        p = np.zeros(4)
        p[2] = 1.0
        assert cross_entropy(Tensor(p), 2).item() == 0.0

    def test_uniform_over_eleven(self):
        p = np.full(11, 1.0 / 11.0)
        assert abs(cross_entropy(Tensor(p), 3).item() - np.log(11.0)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.full(4, 0.25)), 4)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError, match="probability"):
            cross_entropy(Tensor(np.array([0.9, 0.9])), 0)

    def test_softmax_cross_entropy_gradient_is_p_minus_onehot(self):
        rng = np.random.default_rng(13)
        z = Tensor(rng.normal(size=7), requires_grad=True)
        p = vector_softmax(z)
        cross_entropy(p, 4).backward()
        want = p.data.copy()
        want[4] -= 1.0
        assert np.abs(z.grad - want).max() < 1e-9


class TestAdjointProperty:
    """<L(x), y> == <x, L^T(y)> for the linear layers."""

    def test_conv_deconv_pair(self):
        # exact geometry ((H - k) % stride == 0) so both maps share support
        rng = np.random.default_rng(14)
        k = rng.normal(size=(3, 3, 2, 4))
        x = rng.normal(size=(7, 9, 2))
        fwd = conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(4)), stride=2).data
        y = rng.normal(size=fwd.shape)
        back = deconv2d(Tensor(y), Tensor(k), stride=2).data
        assert back.shape == x.shape
        assert abs(inner(fwd, y) - inner(x, back)) < 1e-6

    def test_deconv_conv_pair(self):
        rng = np.random.default_rng(15)
        k = rng.normal(size=(3, 3, 4, 2))  # deconv layout [k,k,Cout,Cin]
        x = rng.normal(size=(4, 5, 2))
        fwd = deconv2d(Tensor(x), Tensor(k), stride=2).data
        y = rng.normal(size=fwd.shape)
        # the same array read in conv layout [k,k,Cin,Cout] is the adjoint
        back = conv2d(Tensor(y), Tensor(k), Tensor(np.zeros(2)), stride=2).data
        assert back.shape == x.shape
        assert abs(inner(fwd, y) - inner(x, back)) < 1e-6

    def test_avgpool_adjoint(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(5, 4, 3)), requires_grad=True)
        out = global_avgpool(x)
        y = rng.normal(size=3)
        out._backward_fn(y)
        assert abs(inner(out.data, y) - inner(x.data, x.grad)) < 1e-9


class TestDeterminism:
    def test_identical_seeds_bit_identical_forward(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(9, 9, 3)))
            k1 = Tensor(rng.normal(size=(3, 3, 3, 4)))
            h = relu(conv2d(x, k1, Tensor(np.zeros(4)), padding=1))
            h = maxpool2d(h, 3, 2)
            k2 = Tensor(rng.normal(size=(3, 3, 4, 4)))
            h = deconv2d(h, k2, stride=2)
            return channel_softmax(h).data

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()
