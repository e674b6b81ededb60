"""Bootstrap saliency: a center-surround color-contrast field.

The mask produced here only seeds the color-naming branch's pretraining,
so a rough estimate suffices. Each pixel's saliency is the distance of
its locally averaged color from the mean color of the image border
region, smoothed and normalized to [0, 1]. This deliberately simple
substitute stands in for heavier graph-based saliency methods.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

__all__ = ["compute_saliency", "binarize"]

BORDER_FRACTION = 0.1


def compute_saliency(image: np.ndarray) -> np.ndarray:
    """Center-surround contrast field in [0, 1] for an [H,W,3] image.

    Pipeline: 3x3 box blur, per-pixel Euclidean distance from the mean
    color of the border band (width 10% of the short side), Gaussian
    smoothing with sigma = min(H, W)/16, then min-max normalization.
    A constant image yields an all-zero field.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"compute_saliency expects [H,W,3], got {image.shape}")
    h, w = image.shape[:2]
    blurred = ndimage.uniform_filter(image, size=(3, 3, 1), mode="nearest")

    band = max(1, round(min(h, w) * BORDER_FRACTION))
    border = np.ones((h, w), dtype=bool)
    border[band:h - band, band:w - band] = False
    surround = image[border].mean(axis=0)

    contrast = np.sqrt(((blurred - surround) ** 2).sum(axis=2))
    sigma = min(h, w) / 16.0
    if sigma > 0:
        contrast = ndimage.gaussian_filter(contrast, sigma=sigma, mode="nearest")

    lo, hi = float(contrast.min()), float(contrast.max())
    if hi - lo <= 1e-12:
        return np.zeros((h, w), dtype=np.float64)
    return (contrast - lo) / (hi - lo)


def binarize(field: np.ndarray) -> np.ndarray:
    """Threshold a [0, 1] field at its mean value into a {0, 1} uint8 mask.

    A constant field binarizes to all zeros (a normalized constant field
    carries no contrast information).
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 2:
        raise ValueError(f"binarize expects [H,W], got {field.shape}")
    if field.max() - field.min() <= 1e-12:
        return np.zeros(field.shape, dtype=np.uint8)
    return (field >= float(field.mean())).astype(np.uint8)
