"""Network assembly contracts: shapes, simplex outputs, loss gating,
composition, and the end-to-end gradient check on a micro network."""

import math

import numpy as np
import pytest

from chroma.modulation import aggregate_scores, modulate
from chroma.networks import CnNet, VaNet, full_forward, masked_nll_loss
from chroma.tensor import (
    ShapeError,
    Tensor,
    _bn_affine,
    conv1x1_batchnorm,
    conv2d,
    cross_entropy,
    finite_diff_check,
    no_grad,
    tensor_sum,
)


def _image(rng, h, w):
    return rng.uniform(size=(h, w, 3))


class TestCnForward:
    def test_output_is_per_pixel_simplex(self):
        rng = np.random.default_rng(0)
        net = CnNet(num_classes=5, width=8, seed=1)
        y = net.forward(_image(rng, 11, 13))
        assert y.shape == (11, 13, 5)
        sums = y.data.sum(axis=2)
        assert np.abs(sums - 1.0).max() < 1e-6

    def test_constant_image_gives_spatially_constant_output_at_init(self):
        net = CnNet(num_classes=4, width=8, seed=2)
        y = net.forward(np.full((9, 9, 3), 0.6))
        dev = np.abs(y.data - y.data[0, 0]).max()
        assert dev < 1e-3

    def test_table_geometry_is_exact_at_227(self):
        # 227 -> 113 -> 227 and 9 -> 4 -> 9: the upsample needs no crop;
        # the 64x64 default (64 -> 32 -> 65) needs a single-pixel crop
        net = CnNet(num_classes=3, width=6, seed=3)
        for size, cropped in ((9, False), (64, True), (227, False)):
            y = net.forward(np.full((size, size, 3), 0.5))
            assert y.shape == (size, size, 3)
            ops = {node.op for node in y._toposort()}
            assert "deconv2d" in ops and ("crop_spatial" in ops) == cropped

    def test_even_sizes_work_via_crop(self):
        rng = np.random.default_rng(3)
        net = CnNet(num_classes=3, width=6, seed=3)
        y = net.forward(_image(rng, 16, 16))
        assert y.shape == (16, 16, 3)

    @pytest.mark.parametrize("layer", ["trunk", "skip"])
    def test_no_grad_eval_layer_is_byte_identical_to_the_folded_conv(self, layer):
        rng = np.random.default_rng(5)
        net = CnNet(num_classes=4, width=6, dtype=np.float32, seed=2)
        for arr in net.state().values():
            arr[...] += rng.uniform(0.1, 0.5, size=arr.shape)
        x = _image(rng, 9, 10).astype(np.float32)
        p, stats = net.parameters(), net.stats()[f"{layer}.bn"]
        gamma, beta = p[f"{layer}.bn.gamma"], p[f"{layer}.bn.beta"]
        _, scale, shift = _bn_affine(gamma.data, beta.data, stats.mean, stats.var)
        w, b = p[f"{layer}.conv.w"].data, p[f"{layer}.conv.b"].data
        with no_grad():
            out = conv1x1_batchnorm(x, p[f"{layer}.conv.w"], p[f"{layer}.conv.b"],
                                    gamma, beta, stats, mode="eval")
            folded = conv2d(x, w * scale, b * scale + shift)
        assert out.data.tobytes() == np.maximum(folded.data, 0.0).tobytes()

    def test_too_small_input_lists_valid_sizes(self):
        net = CnNet(num_classes=3, width=6, seed=4)
        with pytest.raises(ShapeError, match="valid sizes"):
            net.forward(np.zeros((2, 2, 3)))

    def test_out_of_range_values_rejected(self):
        net = CnNet(num_classes=3, width=6, seed=5)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            net.forward(np.full((5, 5, 3), 1.5))


@pytest.mark.parametrize("net", [
    CnNet(num_classes=3, width=6, seed=22),
    VaNet(resolution=8, stages=1, channels=(4,), fc_width=16,
          bottleneck_channels=2, dec_channels=(3,), seed=23),
], ids=["CnNet", "VaNet"])
def test_non_rgb_image_rejected(net):
    with pytest.raises(ShapeError, match=f"{type(net).__name__} expects "
                       "an \\[H,W,3\\] image"):
        net.forward(np.zeros((8, 8, 1)))


class TestMaskedNllLoss:
    def _uniform_map(self, h, w, c, requires_grad=False):
        return Tensor(np.full((h, w, c), 1.0 / c), requires_grad=requires_grad)

    def test_empty_mask_gives_zero(self):
        loss = masked_nll_loss(self._uniform_map(4, 4, 11),
                               np.zeros((4, 4), dtype=np.uint8), 0)
        assert loss.item() == 0.0

    def test_uniform_map_full_mask_gives_log_c(self):
        loss = masked_nll_loss(self._uniform_map(2, 2, 11),
                               np.ones((2, 2), dtype=np.uint8), 3)
        assert abs(loss.item() - np.log(11.0)) < 1e-12

    def test_masked_out_pixels_do_not_touch_the_loss(self):
        rng = np.random.default_rng(6)
        probs = rng.dirichlet(np.ones(5), size=(6, 6))
        mask = np.zeros((6, 6), dtype=np.uint8)
        mask[1:3, 1:4] = 1
        base = masked_nll_loss(Tensor(probs), mask, 2).item()
        perturbed = probs.copy()
        perturbed[4, 4] = rng.dirichlet(np.ones(5))
        perturbed[0, 5] = rng.dirichlet(np.ones(5))
        after = masked_nll_loss(Tensor(perturbed), mask, 2).item()
        assert base == after  # bit-identical

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(4), size=(5, 5))
        y = Tensor(probs, requires_grad=True)
        mask = (rng.uniform(size=(5, 5)) > 0.5).astype(np.uint8)

        def loss():
            return masked_nll_loss(y, mask, 1)

        assert finite_diff_check(loss, y) < 1e-4

    def test_gradient_is_zero_outside_mask(self):
        rng = np.random.default_rng(8)
        y = Tensor(rng.dirichlet(np.ones(3), size=(4, 4)), requires_grad=True)
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[0, 0] = 1
        masked_nll_loss(y, mask, 0).backward()
        grads_elsewhere = y.grad.copy()
        grads_elsewhere[0, 0, :] = 0.0
        assert not grads_elsewhere.any()

    def test_mask_shape_mismatch(self):
        with pytest.raises(ShapeError):
            masked_nll_loss(self._uniform_map(4, 4, 3),
                            np.ones((3, 4), dtype=np.uint8), 0)


class TestVaForward:
    def test_output_is_non_negative(self):
        rng = np.random.default_rng(9)
        net = VaNet(resolution=16, stages=2, channels=(4, 6), fc_width=32,
                    bottleneck_channels=2, dec_channels=(4, 3), seed=6)
        a = net.forward(_image(rng, 16, 16))
        assert a.shape == (16, 16)
        assert (a.data >= 0).all()

    def test_zero_head_gives_zero_attention_and_uniform_score(self):
        rng = np.random.default_rng(10)
        va = VaNet(resolution=16, stages=2, channels=(4, 6), fc_width=32,
                   bottleneck_channels=2, dec_channels=(4, 3), seed=7)
        va.parameters()["head.conv.w"].data[...] = 0.0
        va.parameters()["head.conv.b"].data[...] = 0.0
        cn = CnNet(num_classes=4, width=6, seed=8)
        _, attention, score = full_forward(cn, va, _image(rng, 16, 16))
        assert not attention.data.any()
        assert np.abs(score.y_hat.data - 0.25).max() < 1e-12

    def test_gradient_reaches_every_parameter_including_prior(self):
        rng = np.random.default_rng(11)
        net = VaNet(resolution=8, stages=1, channels=(4,), fc_width=16,
                    bottleneck_channels=2, dec_channels=(3,), seed=9)
        a = net.forward(_image(rng, 8, 8), train=True)
        tensor_sum(a).backward()
        for name, p in net.parameters().items():
            assert p.grad is not None, name

    def test_prior_kernel_gradient_matches_finite_differences(self):
        # the prior modulates the bottleneck directly: its kernel is a
        # parameter with a gradient of its own
        rng = np.random.default_rng(12)
        net = VaNet(resolution=8, stages=1, channels=(4,), fc_width=16,
                    bottleneck_channels=2, dec_channels=(3,), seed=9)
        net.parameters()["head.conv.b"].data[...] = 0.3
        image = _image(rng, 8, 8)
        weights = Tensor(rng.uniform(size=(8, 8, 1)))
        kernel = net.parameters()["prior.kernel"]

        def loss():
            return tensor_sum(modulate(weights, net.forward(image)))

        loss().backward()
        assert kernel.grad.shape == (4, 4) and kernel.grad.any()
        assert finite_diff_check(loss, kernel) < 1e-4

    def test_zero_prior_kernel_makes_the_map_ignore_the_image(self):
        rng = np.random.default_rng(13)
        net = VaNet(resolution=8, stages=1, channels=(4,), fc_width=16,
                    bottleneck_channels=2, dec_channels=(3,), seed=9)
        net.parameters()["head.conv.b"].data[...] = 0.3
        a = net.forward(_image(rng, 8, 8)).data
        b = net.forward(_image(rng, 8, 8)).data
        assert not np.array_equal(a, b)
        net.parameters()["prior.kernel"].data[...] = 0.0
        a = net.forward(_image(rng, 8, 8)).data
        b = net.forward(_image(rng, 8, 8)).data
        assert np.array_equal(a, b)

    def test_wrong_resolution_rejected(self):
        net = VaNet(resolution=16, stages=2, channels=(4, 6), fc_width=32,
                    bottleneck_channels=2, dec_channels=(4, 3), seed=10)
        with pytest.raises(ShapeError, match="16x16"):
            net.forward(np.zeros((8, 8, 3)))

    def test_out_of_range_values_rejected(self):
        net = VaNet(resolution=8, stages=1, channels=(4,), fc_width=16,
                    bottleneck_channels=2, dec_channels=(3,), seed=10)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            net.forward(np.full((8, 8, 3), -0.5))

    def test_no_prior_variant_has_no_prior_parameter(self):
        net = VaNet(resolution=8, stages=1, channels=(4,), fc_width=16,
                    bottleneck_channels=2, dec_channels=(3,), use_prior=False,
                    seed=11)
        assert "prior.kernel" not in net.parameters()


class TestFullForward:
    def _nets(self, c=4):
        cn = CnNet(num_classes=c, width=6, seed=12)
        va = VaNet(resolution=16, stages=2, channels=(4, 6), fc_width=32,
                   bottleneck_channels=2, dec_channels=(4, 3), seed=13)
        return cn, va

    def test_unit_attention_reduces_to_cn_aggregate(self):
        rng = np.random.default_rng(14)
        cn, va = self._nets()
        image = _image(rng, 16, 16)
        y = cn.forward(image)
        unit = Tensor(np.ones((16, 16)))
        via_modulation = aggregate_scores(modulate(y, unit))
        direct = aggregate_scores(y)
        assert np.array_equal(via_modulation.y_hat.data, direct.y_hat.data)

    def test_without_attention_branch_pools_the_unmodulated_map(self):
        rng = np.random.default_rng(14)
        cn, _ = self._nets()
        image = _image(rng, 16, 16).astype(np.float32)
        y_map, attention, score = full_forward(cn, None, image)
        assert attention is None
        assert score.y_hat.data.tobytes() == \
            aggregate_scores(cn.forward(image)).y_hat.data.tobytes()
        assert y_map.data.tobytes() == \
            cn.forward(image).data.tobytes()

    def test_one_hot_map_with_positive_attention_wins(self):
        rng = np.random.default_rng(15)
        onehot = np.zeros((8, 8, 5))
        onehot[:, :, 3] = 1.0
        a = Tensor(rng.uniform(0.1, 1.0, size=(8, 8)))
        score = aggregate_scores(modulate(Tensor(onehot), a))
        assert score.argmax() == 3

    def test_matches_by_hand_composition(self):
        rng = np.random.default_rng(16)
        cn, va = self._nets()
        image = _image(rng, 16, 16)
        y_map, attention, score = full_forward(cn, va, image)
        modulated = y_map.data * attention.data[:, :, None]
        means = modulated.mean(axis=(0, 1))
        e = np.exp(means - means.max())
        want = e / e.sum()
        assert np.abs(score.y_hat.data - want).max() < 1e-9

    def test_returns_plain_tensors(self):
        rng = np.random.default_rng(21)
        cn, va = self._nets(c=5)
        image = _image(rng, 16, 16)
        y, attention, _ = full_forward(cn, va, image)
        assert type(y) is Tensor and y.shape == (16, 16, 5)
        assert type(attention) is Tensor and attention.shape == (16, 16)
        y, attention, _ = full_forward(cn, None, image)
        assert type(y) is Tensor and y.shape == (16, 16, 5)
        assert attention is None

    @pytest.mark.parametrize("stack", [False, True])
    def test_no_grad_eval_pass_keeps_statistics_and_builds_nothing(self,
                                                                   stack):
        rng = np.random.default_rng(21)
        cn, va = self._nets()
        for net in (cn, va):  # stand-ins for trained statistics
            for s in net.stats().values():
                s.mean[...] = rng.normal(size=s.mean.shape)
                s.var[...] = rng.uniform(0.5, 2.0, size=s.var.shape)
        before = [a.tobytes() for net in (cn, va)
                  for a in net.state().values()]
        images = rng.uniform(size=(3, 16, 16, 3))
        with no_grad():
            outputs = [va.forward(images)] if stack else [
                out for image in images
                for out in full_forward(cn, va, image)[:2]]
        assert [a.tobytes() for net in (cn, va)
                for a in net.state().values()] == before
        for out in outputs:
            assert out._parents == () and not out.requires_grad
        assert all(p.grad is None for net in (cn, va)
                   for p in net.parameters().values())

    def test_stack_is_no_grad_eval_only(self):
        _, va = self._nets()
        images = np.full((2, 16, 16, 3), 0.5)
        with pytest.raises(ShapeError, match=r"\[H,W,3\] image,"):
            va.forward(images)
        with no_grad(), pytest.raises(ShapeError, match=r"\[H,W,3\] image,"):
            va.forward(images, train=True)
        with no_grad():
            assert va.forward(images).shape == (2, 16, 16)

    @staticmethod
    def _va(dtype):
        return VaNet(resolution=16, stages=2, channels=(4, 6), fc_width=32,
                     bottleneck_channels=2, dec_channels=(4, 3), dtype=dtype,
                     seed=13)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stack_of_one_is_byte_identical_to_its_image(self, dtype):
        image = _image(np.random.default_rng(23), 16, 16).astype(dtype)
        va = self._va(dtype)
        with no_grad():
            stacked = va.forward(image[None]).data
            single = va.forward(image).data
        assert stacked.shape == (1, 16, 16) and single.any()
        assert stacked[0].tobytes() == single.tobytes()

    def test_float32_stack_within_1e6_of_each_image_at_its_peak(self):
        # not byte-identical: the stacked fc1/fc2 products round
        # differently, by a few float32 ulps of the map's peak
        images = np.random.default_rng(24).uniform(size=(5, 16, 16, 3))
        images = images.astype(np.float32)
        va = self._va(np.float32)
        with no_grad():
            maps = va.forward(images).data
            each = np.stack([va.forward(image).data for image in images])
        assert maps.shape == (5, 16, 16) and maps.dtype == np.float32
        peak = np.abs(each).max()
        assert peak > 0 and np.abs(maps - each).max() < 1e-6 * peak

    def test_deterministic_under_no_grad(self):
        rng = np.random.default_rng(17)
        cn, va = self._nets()
        image = _image(rng, 16, 16)
        with no_grad():
            a = full_forward(cn, va, image)[2].y_hat.data
            b = full_forward(cn, va, image)[2].y_hat.data
        assert a.tobytes() == b.tobytes()



@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4096, 512), (3, 3, 72, 72), (65537,)])
def test_xavier_equals_one_uniform_draw_cast_to_its_dtype(shape, dtype):
    # the blocked draws give the bytes of one full-size float64 draw and
    # leave the generator where that draw leaves it
    from chroma.networks import _xavier
    got_rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
    got = _xavier(got_rng, shape, 100, 200, dtype)
    limit = math.sqrt(6.0 / 300)
    want = want_rng.uniform(-limit, limit, shape).astype(dtype)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.uniform() == want_rng.uniform()


class TestEndToEndGradients:
    def test_every_parameter_matches_finite_differences(self):
        # micro network: 9x9 input, three classes, 64-bit mode
        rng = np.random.default_rng(18)
        cn = CnNet(num_classes=3, width=4, seed=19)
        cn.parameters()["head.conv.w"].data[...] = rng.normal(
            scale=0.3, size=cn.parameters()["head.conv.w"].shape)
        va = VaNet(resolution=9, stages=2, channels=(3, 4), fc_width=12,
                   bottleneck_channels=2, dec_channels=(3, 2), seed=20)
        # shift every ReLU pre-activation away from its kink (offset the
        # batchnorm betas and the head bias); finite differences are
        # only valid at generic points
        for net in (cn, va):
            for name, p in net.parameters().items():
                if name.endswith(".beta"):
                    p.data[...] = 0.25
        va.parameters()["head.conv.b"].data[...] = 0.3
        image = _image(rng, 9, 9)

        def loss():
            _, _, score = full_forward(cn, va, image, train=False)
            return cross_entropy(score.y_hat, 1)

        failures = {}
        for name, p in {**{f"cn.{k}": v for k, v in cn.parameters().items()},
                        **{f"va.{k}": v for k, v in va.parameters().items()}}.items():
            err = finite_diff_check(loss, p)
            if err >= 1e-3:
                failures[name] = err
        assert not failures, f"gradient mismatches: {failures}"
