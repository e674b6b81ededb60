"""Modulation layer, the spatial prior's initial kernel, and score
aggregation contracts, including the literal backward-rule identities."""

import numpy as np
import pytest

from chroma.modulation import (
    AttentionMap,
    aggregate_scores,
    gaussian_kernel,
    modulate,
)
from chroma.tensor import (
    Tensor,
    ShapeError,
    cross_entropy,
    finite_diff_check,
    tensor_sum,
    global_avgpool,
)


def _attention(arr, requires_grad=False):
    return AttentionMap(Tensor(np.asarray(arr, dtype=np.float64),
                               requires_grad=requires_grad))


class TestModulate:
    def test_scalar_multiply(self):
        y = Tensor(np.array([[[0.2, 0.8]]]))
        out = modulate(y, _attention([[0.5]]))
        assert np.allclose(out.data, [[[0.1, 0.4]]])

    def test_unit_attention_is_identity(self):
        rng = np.random.default_rng(0)
        y = Tensor(rng.uniform(size=(4, 5, 3)))
        out = modulate(y, _attention(np.ones((4, 5))))
        assert np.array_equal(out.data, y.data)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="spatial"):
            modulate(Tensor(np.ones((3, 3, 2))), _attention(np.ones((4, 3))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        y = Tensor(rng.uniform(0.1, 1.0, size=(4, 4, 3)), requires_grad=True)
        a = _attention(rng.uniform(0.1, 1.0, size=(4, 4)), requires_grad=True)

        def loss():
            return cross_entropy(aggregate_scores(modulate(y, a)).y_hat, 1)

        assert finite_diff_check(loss, y) < 1e-4
        assert finite_diff_check(loss, a.values) < 1e-4

    def test_backward_rule_literal_identity_for_channels(self):
        # with all-ones upstream, the gradient on channel k is exactly A
        rng = np.random.default_rng(2)
        y = Tensor(rng.uniform(size=(5, 6, 4)), requires_grad=True)
        a = _attention(rng.uniform(size=(5, 6)))
        tensor_sum(modulate(y, a)).backward()
        for k in range(4):
            assert np.array_equal(y.grad[:, :, k], a.values.data)

    def test_backward_rule_literal_identity_for_attention(self):
        # with all-ones upstream, the gradient on A is exactly sum_k Y_k
        rng = np.random.default_rng(3)
        y = Tensor(rng.uniform(size=(5, 6, 4)))
        a = _attention(rng.uniform(size=(5, 6)), requires_grad=True)
        tensor_sum(modulate(y, a)).backward()
        assert np.array_equal(a.values.grad, y.data.sum(axis=2))

    def test_backward_accumulates_upstream_weighting(self):
        # general upstream: grad(A) == sum_k upstream_k * Y_k
        rng = np.random.default_rng(4)
        y = Tensor(rng.uniform(size=(3, 3, 2)))
        a = _attention(rng.uniform(size=(3, 3)), requires_grad=True)
        out = modulate(y, a)
        g = rng.normal(size=out.shape)
        out._backward_fn(g)
        assert np.allclose(a.values.grad, (g * y.data).sum(axis=2))

    def test_zero_attention_zeroes_every_channel(self):
        feats = Tensor(np.random.default_rng(6).normal(size=(4, 4, 5)))
        out = modulate(feats, _attention(np.zeros((4, 4))))
        assert np.array_equal(out.data, np.zeros((4, 4, 5)))


class TestSpatialPrior:
    def test_gaussian_init_peaks_at_center(self):
        kern = gaussian_kernel(9, 9 / 4.0)
        assert kern[4, 4] == 1.0
        assert kern[0, 0] < kern[4, 4]
        assert np.array_equal(kern, kern.T)


class TestAggregateScores:
    def test_equal_means_give_uniform(self):
        y = np.zeros((3, 3, 2))
        score = aggregate_scores(Tensor(y))
        assert np.array_equal(score.y_hat.data, np.array([0.5, 0.5]))

    def test_larger_channel_wins(self):
        rng = np.random.default_rng(7)
        y = rng.uniform(size=(4, 4, 5))
        y[:, :, 3] += 0.5
        score = aggregate_scores(Tensor(y))
        assert score.argmax() == 3

    def test_matches_mean_plus_softmax_oracle(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(4, 4, 3))
        got = aggregate_scores(Tensor(y)).y_hat.data
        means = y.mean(axis=(0, 1))
        e = np.exp(means - means.max())
        want = e / e.sum()
        assert np.abs(got - want).max() < 1e-9

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            y = rng.normal(scale=3.0, size=(5, 5, 7))
            p = aggregate_scores(Tensor(y)).y_hat.data
            assert abs(p.sum() - 1.0) < 1e-6
            assert (p > 0).all()


class TestAggregationInvariances:
    def test_argmax_invariant_to_per_channel_shift(self):
        rng = np.random.default_rng(10)
        y = rng.normal(size=(4, 4, 5))
        base = aggregate_scores(Tensor(y))
        shifted = aggregate_scores(Tensor(y + 0.7))
        assert base.argmax() == shifted.argmax()
        assert np.abs(base.y_hat.data - shifted.y_hat.data).max() < 1e-12

    def test_constant_attention_scales_aggregates_preserving_argmax(self):
        rng = np.random.default_rng(11)
        y = Tensor(rng.uniform(size=(4, 4, 5)))
        for c in (0.5, 2.0):
            scaled = modulate(y, _attention(np.full((4, 4), c)))
            pre = global_avgpool(scaled).data
            base_pre = global_avgpool(y).data
            assert np.allclose(pre, c * base_pre)
            assert np.argmax(pre) == np.argmax(base_pre)
