"""Saliency field and binarization contracts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chroma.saliency import BORDER_FRACTION, _box3, _gaussian, binarize, \
    compute_saliency
from oracles import box3_nearest_loops, gaussian_nearest_loops


def _scene(size=48, square=(12, 36), bright=0.9, dark=0.1):
    image = np.full((size, size, 3), dark)
    lo, hi = square
    image[lo:hi, lo:hi] = bright
    gt = np.zeros((size, size), dtype=bool)
    gt[lo:hi, lo:hi] = True
    return image, gt


class TestComputeSaliency:
    def test_constant_image_gives_zero_field(self):
        field = compute_saliency(np.full((32, 32, 3), 0.4))
        assert np.array_equal(field, np.zeros((32, 32)))

    def test_bright_square_on_dark_background(self):
        image, gt = _scene()
        field = compute_saliency(image)
        assert field[gt].mean() > field[~gt].mean()

    def test_output_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            image = rng.uniform(size=(24, 30, 3))
            field = compute_saliency(image)
            assert field.min() >= 0.0 and field.max() <= 1.0
            assert field.min() == 0.0 and field.max() == 1.0

    def test_invariant_to_global_brightness_offset(self):
        image, _ = _scene(bright=0.7, dark=0.2)
        shifted = np.clip(image + 0.15, 0.0, 1.0)  # stays inside [0,1]
        a = compute_saliency(image)
        b = compute_saliency(shifted)
        assert np.abs(a - b).max() < 1e-9


def _small_images(channels):
    """Float64 arrays of 1-12 rows by 1-12 columns, then ``channels``,
    holding finite values in [-1e3, 1e3]."""
    shapes = st.tuples(st.integers(1, 12), st.integers(1, 12),
                       *[st.just(c) for c in channels])
    return shapes.flatmap(lambda shape: arrays(
        np.float64, shape, elements=st.floats(-1e3, 1e3)))


def _scipy_saliency(image):
    """``compute_saliency`` with the scipy.ndimage filters it reproduces."""
    ndimage = pytest.importorskip("scipy.ndimage")
    h, w = image.shape[:2]
    blurred = ndimage.uniform_filter(image, size=(3, 3, 1), mode="nearest")
    band = max(1, round(min(h, w) * BORDER_FRACTION))
    border = np.ones((h, w), dtype=bool)
    border[band:h - band, band:w - band] = False
    surround = image[border].mean(axis=0)
    contrast = np.sqrt(((blurred - surround) ** 2).sum(axis=2))
    contrast = ndimage.gaussian_filter(contrast, sigma=min(h, w) / 16.0,
                                       mode="nearest")
    lo, hi = float(contrast.min()), float(contrast.max())
    if hi - lo <= 1e-12:
        return np.zeros((h, w))
    return (contrast - lo) / (hi - lo)


class TestFilters:
    """The numpy filters repeat scipy.ndimage's arithmetic bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(x=_small_images([3]), axis=st.integers(0, 1))
    @example(x=np.arange(7.0).reshape(1, 7, 1) / 3, axis=1)
    @example(x=np.arange(14.0).reshape(2, 7, 1) / 7, axis=0)
    @example(x=np.arange(9.0).reshape(3, 3, 1) / 9, axis=1)
    def test_box3_matches_loop_oracle(self, x, axis):
        assert np.array_equal(_box3(x, axis), box3_nearest_loops(x, axis))

    @settings(max_examples=150, deadline=None)
    @given(x=_small_images([]), sigma=st.floats(0.05, 4.0),
           axis=st.integers(0, 1))
    @example(x=np.arange(7.0).reshape(1, 7) / 3, sigma=1 / 16, axis=1)
    @example(x=np.arange(14.0).reshape(2, 7) / 7, sigma=2 / 16, axis=0)
    @example(x=np.arange(9.0).reshape(3, 3) / 9, sigma=3.0, axis=1)
    def test_gaussian_matches_loop_oracle(self, x, sigma, axis):
        assert np.array_equal(_gaussian(x, sigma, axis),
                              gaussian_nearest_loops(x, sigma, axis))

    def test_saliency_matches_scipy_at_64(self):
        image = np.random.default_rng(3).uniform(size=(64, 64, 3))
        assert np.array_equal(compute_saliency(image), _scipy_saliency(image))

    def test_saliency_matches_scipy_at_random_sizes(self):
        rng = np.random.default_rng(4)
        for k in range(60):
            h, w = rng.integers(1, 101, size=2)
            image = rng.uniform(size=(h, w, 3))
            if k % 3 == 1:
                image = image.astype(np.float32)
            elif k % 3 == 2:
                image = np.round(image * 255) / 255
            assert np.array_equal(compute_saliency(image),
                                  _scipy_saliency(image.astype(np.float64)))


class TestBinarize:
    def test_zero_field_gives_empty_mask(self):
        mask = binarize(np.zeros((8, 8)))
        assert mask.dtype == np.uint8
        assert not mask.any()

    def test_two_level_field_mean_threshold(self):
        field = np.full((10, 10), 0.1)
        field[2:5, 2:5] = 0.9
        mask = binarize(field)
        assert np.array_equal(mask.astype(bool), field == 0.9)

    def test_mean_split_invariant_under_affine_rescale(self):
        rng = np.random.default_rng(1)
        field = rng.uniform(size=(12, 12))
        base = binarize(field)
        rescaled = binarize(0.37 * field + 0.2)
        assert np.array_equal(base, rescaled)

    def test_synthetic_masks_overlap_ground_truth(self):
        # mask-vs-object IoU >= 0.3 on at least 80% of generated scenes
        from chroma.config import RunConfig
        from chroma.data import synth_generate

        _, test = synth_generate(RunConfig(seed=11, clutter_patches=6,
                                           n_per_class=10))
        good = 0
        for sample in test:
            mask = binarize(compute_saliency(sample.image)).astype(bool)
            gt = sample.mask.astype(bool)
            union = (mask | gt).sum()
            iou = (mask & gt).sum() / union if union else 0.0
            good += iou >= 0.3
        assert good >= 0.8 * len(test)
