"""Bootstrap saliency: a center-surround color-contrast field.

The mask produced here only seeds the color-naming branch's pretraining,
so a rough estimate suffices. Each pixel's saliency is the distance of
its locally averaged color from the mean color of the image border
region, smoothed and normalized to [0, 1]. This deliberately simple
substitute stands in for heavier graph-based saliency methods.

Both filters run in float64 along axis 0, then axis 1, on lines ``e``
extended by their edge values, and repeat the arithmetic of
SciPy's ndimage filters (``mode="nearest"``) to equal them bit for bit. The
3-tap box blur keeps a running sum of raw values, ``s[0] = ((0.0 + e[0])
+ e[1]) + e[2]`` and ``s[k] = s[k-1] + (e[k+2] - e[k-1])``, and outputs
``s[k] / 3``. The Gaussian has radius ``r = int(4 * sigma + 0.5)`` and
weights ``w = phi / phi.sum()``, ``phi = exp(-0.5 / sigma**2 * x**2)``
for x in -r..r; at pixel i it starts from ``e[i] * w[r]`` and adds
``(e[i-j] + e[i+j]) * w[r-j]`` for j from r down to 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["compute_saliency", "binarize"]

BORDER_FRACTION = 0.1


def _extend(x: np.ndarray, axis: int, r: int) -> np.ndarray:
    """``x`` with ``axis`` moved first and extended by ``r`` edge copies."""
    n = x.shape[axis]
    edge = np.clip(np.arange(-r, n + r), 0, n - 1)
    return np.moveaxis(x.take(edge, axis), axis, 0)


def _box3(x: np.ndarray, axis: int) -> np.ndarray:
    e = _extend(x, axis, 1)
    sums = np.empty_like(e[2:])
    sums[0] = ((0.0 + e[0]) + e[1]) + e[2]
    sums[1:] = e[3:] - e[:-3]
    return np.moveaxis(np.add.accumulate(sums) / 3.0, 0, axis)


def _gaussian(x: np.ndarray, sigma: float, axis: int) -> np.ndarray:
    r = int(4.0 * sigma + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = phi / phi.sum()
    n = x.shape[axis]
    e = _extend(x, axis, r)
    out = e[r:r + n] * w[r]
    for j in range(r, 0, -1):
        out += (e[r - j:r - j + n] + e[r + j:r + j + n]) * w[r - j]
    return np.moveaxis(out, 0, axis)


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
    blurred = _box3(_box3(image, 0), 1)

    band = max(1, round(min(h, w) * BORDER_FRACTION))
    border = np.ones((h, w), dtype=bool)
    border[band:h - band, band:w - band] = False
    surround = image[border].mean(axis=0)

    contrast = np.sqrt(((blurred - surround) ** 2).sum(axis=2))
    sigma = min(h, w) / 16.0
    contrast = _gaussian(_gaussian(contrast, sigma, 0), sigma, 1)

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
