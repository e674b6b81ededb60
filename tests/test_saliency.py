"""Saliency field and binarization contracts."""

import numpy as np

from chroma.saliency import binarize, compute_saliency


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
