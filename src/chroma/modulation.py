"""Attention modulation, the spatial prior's initial kernel, and score
aggregation.

The modulation layer multiplies every channel of a per-pixel score map
by a single attention map. Its backward rule is written out explicitly:
the gradient reaching each channel is the attention map times the
upstream gradient, and the gradient reaching the attention map is the
channel sum of upstream-times-channel. With an all-ones upstream this
reduces to exactly A per channel and sum_k Y_k on the attention side,
which the tests assert bitwise.

Scale convention: attention maps have unit root mean square. The
score is softmax(GAP(A * Y)) with every pixel of Y on the simplex, so
the pooled logits sum to mean(A) and spread by at most mean(A). Left
free, the map's overall gain would be the softmax temperature and would
multiply every gradient reaching Y. The attention branch therefore ends
in :func:`rms_normalize`, and the score depends on where the attention
sits, not on how large it is. Unit RMS, rather than a unit mean or a
unit peak, because of what each lets the attention branch learn:

- a unit mean makes the pooled logits a weighted average of pixel
  distributions, linear in the weights, so the best map is a spike on
  the single most telling pixel;
- a unit peak lets pixels with a uniform distribution raise every logit
  equally, so background costs nothing and the map stays flat;
- under a unit RMS the map that best raises one class's pooled logit is
  proportional to each pixel's evidence for that class, and pixels
  without evidence get none.

A constant map normalizes to exactly the all-ones map of the
``no-attention`` ablation, and the logit spread stays below
mean(A) <= rms(A) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chroma.tensor import (
    Tensor,
    ShapeError,
    _make_node,
    _accum,
    global_avgpool,
    vector_softmax,
)

__all__ = [
    "ImageScore",
    "modulate",
    "rms_normalize",
    "aggregate_scores",
    "gaussian_kernel",
]


@dataclass
class ImageScore:
    """Image-level class distribution on the probability simplex."""

    y_hat: Tensor  # [C]

    def argmax(self) -> int:
        return int(np.argmax(self.y_hat.data))

    def probabilities(self) -> np.ndarray:
        return self.y_hat.data.copy()


def gaussian_kernel(size: int, sigma: float, dtype=np.float64) -> np.ndarray:
    """Discrete Gaussian bump with peak value 1, centered on the grid: the
    initial value of the attention branch's learned spatial prior."""
    c = (size - 1) / 2.0
    idx = np.arange(size, dtype=dtype)
    d2 = (idx - c) ** 2
    if sigma <= 0:
        out = np.zeros((size, size), dtype=dtype)
        out[int(round(c)), int(round(c))] = 1.0
        return out
    return np.exp(-(d2[:, None] + d2[None, :]) / (2.0 * sigma * sigma)).astype(dtype)


def modulate(y: Tensor, a: Tensor) -> Tensor:
    """Multiply every channel of ``y`` [H,W,C] by the map ``a`` [H,W].

    Maps from the attention branch have unit root mean square (see the
    module docstring); the spatial prior kernel that modulates the
    attention branch's bottleneck keeps its learned scale.
    """
    if y.data.ndim != 3:
        raise ShapeError(f"modulate: score map must be [H,W,C], got {y.shape}")
    if a.shape != y.shape[:2]:
        raise ShapeError(f"modulate: spatial dims differ, map {y.shape[:2]} vs "
                         f"attention {a.shape}")
    out = y.data * a.data[:, :, None]
    result = _make_node(out, "modulate", (y, a))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            if y.requires_grad:
                _accum(y, a.data[:, :, None] * g)
            if a.requires_grad:
                _accum(a, (g * y.data).sum(axis=2))
        result._backward_fn = _backward
    return result


def rms_normalize(a: Tensor) -> Tensor:
    """Scale an [H,W] map to unit root mean square.

    The output does not depend on the input's scale, so the gradient
    reaching ``a`` is orthogonal to ``a``. An all-zero map has no scale
    to divide out and stays all zero.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"rms_normalize: map must be [H,W], got {a.shape}")
    m = float(np.sqrt(np.mean(np.square(a.data, dtype=np.float64))))
    out = a.data / m if m > 0.0 else np.zeros_like(a.data)
    result = _make_node(out, "rms_normalize", (a,))
    if result.requires_grad and m > 0.0:
        def _backward(g: np.ndarray) -> None:
            inner = float(np.mean(g * out, dtype=np.float64))
            _accum(a, (g - out * inner) / m)
        result._backward_fn = _backward
    return result


def aggregate_scores(y_hat: Tensor) -> ImageScore:
    """Global average pool per channel, then softmax, as an ImageScore."""
    pooled = global_avgpool(y_hat)
    return ImageScore(vector_softmax(pooled))
