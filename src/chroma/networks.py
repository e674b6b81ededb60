"""The two network branches and their joint forward pass.

The color-naming branch (CnNet) is a shallow fully convolutional
network: a 1x1 conv trunk, 3x3/2 max pool, 3x3/2 transposed conv back to
input size, a 1x1 skip branch on the raw input, a 1x1 classifier over
the trunk and skip maps together, and a per-pixel softmax. The
classifier's kernel has one row per channel of the two maps stacked
(trunk first), as a conv over their channel concatenation would; it is
applied as two products summed (:func:`~chroma.tensor.conv1x1_concat`),
so the concatenated map is never built. At 227x227 the pool/upsample
arithmetic is exact (227 -> 113 -> 227); for other sizes the ceil-mode
pool covers the edge and the upsampled map is cropped back to the input
size, so any input of at least 3x3 works.

The attention branch (VaNet) is a desk-scale encoder/decoder standing in
for a pretrained segmentation backbone, with the same structural slots:
conv/pool encoder stages, two fully connected bottleneck layers reshaped
onto the bottleneck grid, multiplicative modulation by the learned
spatial prior, transposed-conv upsampling, and a rectified one-channel
head whose map is rescaled to unit root mean square. The spatial prior
is a learned center-bias map over the bottleneck grid, one parameter
(``prior.kernel``) initialized to a Gaussian bump, that multiplies every
bottleneck channel. At the default 64x64 resolution with three stages
the bottleneck grid is 8x8 and the bottleneck widths are 512.

:func:`full_forward` is the one path from an image to the color map
(a [H,W,C] tensor, every pixel on the simplex), the attention map (a
[H,W] tensor) and an image score; without an attention branch it pools
the unmodulated color map (:func:`image_score` is that last step).
Both forwards take an [H,W,3] image with values in [0, 1], each with
its own size rule, and have one body for every mode: each conv or deconv
with its batchnorm and ReLU is one ``_ParamStore._layer`` call, which in
eval mode under :class:`~chroma.tensor.no_grad` folds the batchnorm into
the layer (float32 outputs move in the last bits). The attention branch
runs fc1 and fc2 once over [N, F] rows, one per image; without a graph
it also maps an [N,H,W,3] stack to [N,H,W].

A network instance is single-writer during training; once loaded from a
checkpoint, read-only inference may be shared freely.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from chroma.config import ConfigError
from chroma.modulation import (
    ImageScore,
    aggregate_scores,
    gaussian_kernel,
    modulate,
    rms_normalize,
)
from chroma.tensor import (
    LOG_CLAMP,
    RunningStats,
    ShapeError,
    Tensor,
    _accum,
    _bn_affine,
    _deconv_planes,
    _make_node,
    batchnorm,
    channel_softmax,
    conv1x1_batchnorm,
    conv1x1_concat,
    conv2d,
    crop_spatial,
    deconv2d,
    fully_connected,
    grad_enabled,
    maxpool2d,
    relu,
    reshape,
)

__all__ = [
    "CnNet",
    "VaNet",
    "full_forward",
    "image_score",
    "masked_nll_loss",
]

logger = logging.getLogger(__name__)


# the most uniform draws _xavier holds at once
_DRAW_BLOCK = 65536


def _xavier(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
            dtype) -> np.ndarray:
    """Xavier-uniform draws of ``dtype``, equal to (and leaving ``rng`` as)
    ``rng.uniform(-limit, limit, shape).astype(dtype)``, made in blocks:
    no float64 array of the parameter's size exists."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _DRAW_BLOCK):
        block = flat[start:start + _DRAW_BLOCK]
        block[...] = rng.uniform(-limit, limit, size=block.size)
    return out


class _ParamStore:
    """Shared bookkeeping: named parameters and batchnorm statistics.

    Every array a network holds has a checkpoint record name:
    ``<prefix>.<parameter>`` for a parameter and
    ``<prefix>.stat.<layer>.{mean,var}`` for a batchnorm layer's running
    statistics, where ``prefix`` is the branch (``cn`` or ``va``).
    :meth:`state` maps those names to the live arrays. A network is
    either initialized fresh or built from ``weights``, a mapping of the
    same names to saved arrays (such as a checkpoint's records); other
    keys are ignored. A network built from weights draws nothing, takes
    over a read-only saved array that owns its memory and has its dtype
    (as checkpoints are read), and copies any other: two networks built
    from one mapping never share an array. Every parameter requires
    gradients, but a gradient is allocated only when a backward pass
    reaches it, so a network that is only run forward never holds any.
    """

    prefix: str  # the branch, "cn" or "va"

    def __init__(self, dtype, seed: int, weights):
        self.dtype = np.dtype(dtype).type
        self._rng = np.random.default_rng(seed)
        self._weights = weights
        self._params: dict[str, Tensor] = {}
        self._stats: dict[str, RunningStats] = {}

    def _array(self, key: str, shape: tuple[int, ...], init) -> np.ndarray:
        """The array of record ``key``: ``init(shape)`` when fresh, else the
        saved one, taken over or copied. A missing or wrong-shape record
        raises :class:`ConfigError` naming it."""
        if self._weights is None:
            return np.asarray(init(shape), dtype=self.dtype)
        saved = self._weights.get(key)
        if saved is None:
            raise ConfigError(f"checkpoint is missing record {key}")
        if saved.shape != shape:
            raise ConfigError(f"checkpoint record {key} has shape {saved.shape}, "
                              f"expected {shape}")
        if (saved.dtype == self.dtype and saved.flags.owndata
                and not saved.flags.writeable):
            saved.flags.writeable = True
            return saved
        return np.array(saved, dtype=self.dtype)

    def _param(self, name: str, shape: tuple[int, ...], init) -> Tensor:
        """Register a parameter; ``init(shape)`` draws a fresh one."""
        t = Tensor(self._array(f"{self.prefix}.{name}", shape, init),
                   requires_grad=True, op=name)
        self._params[name] = t
        return t

    def _xavier_init(self, fan_in: int, fan_out: int):
        """A ``_param`` initializer: Xavier-uniform draws from the seed."""
        return lambda shape: _xavier(self._rng, shape, fan_in, fan_out,
                                     self.dtype)

    def _built(self) -> None:
        """Drop what only construction needs: the mapping of saved
        weights, which a loaded network must not keep alive."""
        self._rng = self._weights = None

    def _bn(self, name: str, channels: int) -> None:
        self._param(f"{name}.gamma", (channels,), np.ones)
        self._param(f"{name}.beta", (channels,), np.zeros)
        key = f"{self.prefix}.stat.{name}"
        self._stats[name] = RunningStats(
            self._array(f"{key}.mean", (channels,), np.zeros),
            self._array(f"{key}.var", (channels,), np.ones))

    def state(self) -> dict[str, np.ndarray]:
        """Every parameter, then every batchnorm statistic, each in
        registration order, as the live array under its record name."""
        state = {f"{self.prefix}.{k}": p.data for k, p in self._params.items()}
        for k, s in self._stats.items():
            state[f"{self.prefix}.stat.{k}.mean"] = s.mean
            state[f"{self.prefix}.stat.{k}.var"] = s.var
        return state

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def stats(self) -> dict[str, RunningStats]:
        return dict(self._stats)

    def _layer(self, name: str, x: Tensor, mode: str, size=None) -> Tensor:
        """Layer ``name`` on ``x``: the conv ``<name>.conv`` (stride 1,
        padding ``k // 2``) or the stride-2 deconv ``<name>.deconv``
        cropped to ``size`` (h, w), then the rectified batchnorm
        ``<name>.bn``. A 1x1 conv is one ``conv1x1_batchnorm`` node. In
        eval mode without a graph any other layer folds the batchnorm
        into its kernel and bias from the live parameters (Jacob et al.,
        CVPR 2018), a deconv writing its parity planes into the cropped
        map; otherwise it is the ``conv2d``/``deconv2d``, ``batchnorm``
        and ``crop_spatial`` nodes in that order."""
        p, stats = self._params, self._stats[f"{name}.bn"]
        gamma, beta = p[f"{name}.bn.gamma"], p[f"{name}.bn.beta"]
        kernel, bias = p.get(f"{name}.deconv.w"), None
        if kernel is None:
            kernel, bias = p[f"{name}.conv.w"], p[f"{name}.conv.b"]
            if kernel.shape[0] == 1:
                return conv1x1_batchnorm(x, kernel, bias, gamma, beta, stats,
                                         mode=mode)
        k = kernel.shape[0]
        if mode == "eval" and not grad_enabled():
            _, scale, shift = _bn_affine(gamma.data, beta.data, stats.mean,
                                         stats.var)
            if bias is None:  # [k,k,Cout,Cin]
                h, w = size or ((x.shape[0] - 1) * 2 + k, (x.shape[1] - 1) * 2 + k)
                out = _deconv_planes(x.data, kernel.data * scale[:, None], 2, h, w)
                out += shift
            else:
                out = conv2d(x, kernel.data * scale, bias.data * scale + shift,
                             padding=k // 2).data
            return Tensor(np.maximum(out, 0.0, out=out))
        t = (deconv2d(x, kernel, stride=2) if bias is None
             else conv2d(x, kernel, bias, padding=k // 2))
        t = batchnorm(t, gamma, beta, stats, mode=mode)
        if size is not None and t.shape[:2] != size:
            t = crop_spatial(t, *size)
        return t

    def _wrap_image(self, image, stack: bool = False) -> Tensor:
        """The image (or, given ``stack``, an [N,H,W,3] stack) as a tensor,
        checked to be [H,W,3] with values in [0, 1]; each network then
        checks its own size rule."""
        x = image if isinstance(image, Tensor) else Tensor(
            np.asarray(image, dtype=self.dtype))
        if x.data.ndim not in ((3, 4) if stack else (3,)) or x.shape[-1] != 3:
            raise ShapeError(f"{type(self).__name__} expects an [H,W,3] "
                             f"image{' or [N,H,W,3] stack' * stack}, "
                             f"got {x.shape}")
        if float(x.data.min()) < 0.0 or float(x.data.max()) > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        return x


class CnNet(_ParamStore):
    """Color-naming branch: image -> per-pixel class distribution.

    The final classifier conv starts at zero (all other weights are
    Xavier-initialized), so an untrained network outputs the uniform
    distribution at every pixel regardless of input.
    """

    prefix = "cn"

    def __init__(self, num_classes: int, width: int = 72, dtype=np.float64,
                 seed: int = 0, weights=None):
        super().__init__(dtype, seed, weights)
        if num_classes < 2:
            raise ValueError("need at least two color classes")
        xavier = self._xavier_init
        w = width
        self._param("trunk.conv.w", (1, 1, 3, w), xavier(3, w))
        self._param("trunk.conv.b", (w,), np.zeros)
        self._bn("trunk.bn", w)
        self._param("up.deconv.w", (3, 3, w, w), xavier(9 * w, 9 * w))
        self._bn("up.bn", w)
        self._param("skip.conv.w", (1, 1, 3, w), xavier(3, w))
        self._param("skip.conv.b", (w,), np.zeros)
        self._bn("skip.bn", w)
        self._param("head.conv.w", (1, 1, 2 * w, num_classes), np.zeros)
        self._param("head.conv.b", (num_classes,), np.zeros)
        self._built()

    def forward(self, image, train: bool = False) -> Tensor:
        """Per-pixel color-name distribution [H,W,C] of an image."""
        x = self._wrap_image(image)
        h, w = x.shape[:2]
        if h < 3 or w < 3:
            raise ShapeError(f"CnNet input {h}x{w} too small; valid sizes are "
                             f"any H, W >= 3")
        mode = "online" if train else "eval"
        p = self._params
        t = self._layer("trunk", x, mode)
        t = self._layer("up", maxpool2d(t, 3, 2), mode, (h, w))
        s = self._layer("skip", x, mode)
        logits = conv1x1_concat(t, s, p["head.conv.w"], p["head.conv.b"])
        return channel_softmax(logits)


class VaNet(_ParamStore):
    """Attention branch: image -> non-negative relevance map.

    Built for one square input resolution (the bottleneck FC widths
    depend on it); ``resolution`` must be divisible by 2**stages down to
    a grid of at least 2.

    The rectified head's map is divided by its root mean square, so
    every map this branch emits has unit RMS (a dead head, zero
    everywhere, stays zero). The head's overall gain is therefore not a
    parameter of the image score: it cannot act as the score's softmax
    temperature or scale the color branch's gradients, and training can
    only move where the attention sits. A constant map comes out as the
    all-ones map of the ``no-attention`` ablation. See
    :mod:`chroma.modulation` for why the RMS, not the mean or the peak.
    """

    prefix = "va"

    def __init__(self, resolution: int = 64, stages: int = 3,
                 channels: tuple[int, ...] = (16, 32, 64),
                 fc_width: int = 512, bottleneck_channels: int = 8,
                 dec_channels: tuple[int, ...] = (32, 16, 8),
                 use_prior: bool = True, dtype=np.float64, seed: int = 0,
                 weights=None):
        super().__init__(dtype, seed, weights)
        if stages < 1 or len(channels) != stages or len(dec_channels) != stages:
            raise ValueError("need one encoder and one decoder width per stage")
        grid = resolution
        for _ in range(stages):
            grid = -(-grid // 2)  # ceil-mode k2/s2 pooling halves, rounding up
        if grid < 2:
            raise ShapeError(f"resolution {resolution} collapses below a 2x2 "
                             f"grid after {stages} stages")
        self.resolution = resolution
        self.stages = stages
        self.bottleneck_channels = bottleneck_channels
        self.use_prior = use_prior
        self.grid = grid

        xavier = self._xavier_init
        prev = 3
        for i, ch in enumerate(channels):
            self._param(f"enc{i}.conv.w", (3, 3, prev, ch),
                        xavier(9 * prev, 9 * ch))
            self._param(f"enc{i}.conv.b", (ch,), np.zeros)
            self._bn(f"enc{i}.bn", ch)
            prev = ch
        flat = grid * grid * prev
        bottleneck = grid * grid * bottleneck_channels
        self._param("fc1.w", (flat, fc_width), xavier(flat, fc_width))
        self._param("fc1.b", (fc_width,), np.zeros)
        self._param("fc2.w", (fc_width, bottleneck), xavier(fc_width, bottleneck))
        self._param("fc2.b", (bottleneck,), np.zeros)
        if use_prior:
            self._param("prior.kernel", (grid, grid),
                        lambda shape: gaussian_kernel(grid, grid / 4.0,
                                                      self.dtype))
        prev = bottleneck_channels
        for i, ch in enumerate(dec_channels):
            self._param(f"dec{i}.deconv.w", (2, 2, ch, prev),
                        xavier(4 * prev, 4 * ch))
            self._bn(f"dec{i}.bn", ch)
            prev = ch
        self._param("head.conv.w", (3, 3, prev, 1), xavier(9 * prev, 9))
        self._param("head.conv.b", (1,), np.zeros)
        self._built()

    def forward(self, image, train: bool = False) -> Tensor:
        """Unit-RMS attention map [H,W] of an image (no-grad eval: or the
        maps [N,H,W] of a stack); fc1 and fc2 run once over all rows."""
        mode = "online" if train else "eval"
        x = self._wrap_image(image, stack=mode == "eval" and not grad_enabled())
        r, g = self.resolution, self.grid
        if x.shape[-3:-1] != (r, r):
            raise ShapeError(f"VaNet was built for {r}x{r} inputs, got "
                             f"{x.shape[-3]}x{x.shape[-2]}")
        p = self._params
        rows = []
        for h in [x] if x.data.ndim == 3 else map(Tensor, x.data):
            for i in range(self.stages):
                h = maxpool2d(self._layer(f"enc{i}", h, mode), 2, 2)
            rows.append(reshape(h, (1, h.size)))
        # a graph has one row; only a stack, never a graph, is joined
        one = len(rows) == 1
        z = rows[0] if one else Tensor(np.concatenate([t.data for t in rows]))
        z = relu(fully_connected(z, p["fc1.w"], p["fc1.b"]))
        z = relu(fully_connected(z, p["fc2.w"], p["fc2.b"]))
        maps = []
        for h in [z] if one else map(Tensor, z.data):
            h = reshape(h, (g, g, self.bottleneck_channels))
            if self.use_prior:
                h = modulate(h, p["prior.kernel"])
            for i in range(self.stages):
                h = self._layer(f"dec{i}", h, mode,
                                (r, r) if i == self.stages - 1 else None)
            a = relu(conv2d(h, p["head.conv.w"], p["head.conv.b"], padding=1))
            maps.append(rms_normalize(reshape(a, (r, r))))
        return maps[0] if x.data.ndim == 3 else Tensor(
            np.stack([m.data for m in maps]))


def full_forward(cn: CnNet, va: VaNet | None, image, train: bool = False
                 ) -> tuple[Tensor, Tensor | None, ImageScore]:
    """Run both branches and aggregate the modulated map into a score.

    Returns the color map [H,W,C], the attention map [H,W] and the
    score. ``va=None`` means there is no attention branch: the score
    pools the unmodulated color map and the attention is None.
    (Modulating by an all-ones map would give bit-identical scores.)
    """
    y = cn.forward(image, train=train)
    attention = None if va is None else va.forward(image, train=train)
    return y, attention, image_score(y, attention)


def image_score(y: Tensor, attention: Tensor | None) -> ImageScore:
    """The score of a color map [H,W,C], modulated by the map [H,W]
    unless ``attention`` is None."""
    return aggregate_scores(y if attention is None else modulate(y, attention))


def masked_nll_loss(y: Tensor, mask: np.ndarray, label: int) -> Tensor:
    """Mean negative log-likelihood of ``label`` over the salient pixels
    of a color map ``y`` [H,W,C].

    Pixels where the mask is zero contribute nothing (they are excluded
    from the computation entirely, so perturbing them leaves the loss
    bit-identical). An empty mask yields a constant zero loss with a
    logged warning.
    """
    if y.data.ndim != 3:
        raise ShapeError(f"masked_nll_loss: map must be [H,W,C], got {y.shape}")
    if mask.shape != y.shape[:2]:
        raise ShapeError(f"masked_nll_loss: mask {mask.shape} does not match "
                         f"map {y.shape[:2]}")
    if not 0 <= label < y.shape[2]:
        raise IndexError(f"label {label} out of range for {y.shape[2]} classes")
    salient = np.asarray(mask) > 0
    n = int(salient.sum())
    if n == 0:
        logger.warning("masked_nll_loss: empty saliency mask, loss is 0")
        return Tensor(np.asarray(0.0, dtype=y.dtype), op="masked_nll_loss")
    clamped = np.maximum(y.data[:, :, label][salient], LOG_CLAMP)
    loss = -float(np.log(clamped).sum()) / n
    result = _make_node(np.asarray(loss, dtype=y.dtype), "masked_nll_loss", (y,))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            dy = np.zeros_like(y.data)
            channel = dy[:, :, label]
            channel[salient] = -float(g) / (clamped * n)
            _accum(y, dy)
        result._backward_fn = _backward
    return result
