"""Dense tensors with reverse-mode differentiation.

A :class:`Tensor` wraps a numpy array and, when gradients are enabled,
remembers the operation and the input tensors that produced it. The
computation graph is therefore implicit: it is the DAG of ``_parents``
links reachable from an output tensor. ``Tensor.backward`` performs a
topological traversal of that DAG and runs each node's backward rule
exactly once, accumulating gradients into every leaf created with
``requires_grad=True``. :class:`no_grad` is the one switch that stops a
graph from being built; a tensor's ``grad`` stays None until a backward
pass reaches it.

Two float widths are supported. Tests and gradient checks run in 64-bit
(the module default); training code constructs its parameters in 32-bit
for speed and so that checkpoints (which store 32-bit floats) round-trip
bit-exactly. Scalar constants in the op implementations are Python
floats, which never upcast 32-bit arrays.

All layer primitives treat the last axis as the channel axis and carry
no batch dimension; mini-batching is done by accumulating gradients over
per-image graphs (see ``Tensor.backward``'s ``seed`` argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "OptimizerState",
    "no_grad",
    "conv2d",
    "deconv2d",
    "maxpool2d",
    "global_avgpool",
    "batchnorm",
    "RunningStats",
    "relu",
    "channel_softmax",
    "vector_softmax",
    "concat_channels",
    "conv1x1_concat",
    "slice_channels",
    "crop_spatial",
    "reshape",
    "tensor_sum",
    "fully_connected",
    "cross_entropy",
    "sgd_step",
    "finite_diff_check",
]

BN_EPSILON = 1e-5
BN_STAT_DECAY = 0.9
LOG_CLAMP = 1e-12

_DEFAULT_DTYPE = np.float64
_grad_enabled = True


class ShapeError(ValueError):
    """Raised when tensor shapes are incompatible with an operation."""


class no_grad:
    """Context manager that disables graph construction.

    Ops executed inside the context produce constant tensors with no
    parents, so frozen-branch forward passes cost no graph memory and
    stop gradient flow.
    """

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """N-dimensional float array, optionally part of a differentiable graph.

    Values are immutable by convention once a tensor has been used in a
    forward computation; the optimizer mutates parameter ``data`` in
    place only between graph constructions.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward_fn",
                 "_backward_run")

    def __init__(self, data, requires_grad: bool = False, dtype=None, op: str = "leaf",
                 parents: tuple = ()):
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        else:
            arr = np.asarray(data)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._backward_run = False
        self.grad: np.ndarray | None = None  # until a backward pass reaches it

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def backward(self, seed: float = 1.0) -> None:
        """Populate gradients of every tensor this scalar depends on.

        ``seed`` scales the root gradient; accumulating per-image losses
        with ``seed=1/batch`` realizes a mean batch loss without keeping
        all the per-image graphs alive at once.

        Raises if called twice on the same output or if the output is not
        scalar. A non-finite loss raises ``FloatingPointError`` naming the
        first node, in topological order, that holds a non-finite value;
        only then is the graph scanned. A finite loss is differentiated
        even if some node it no longer depends on is non-finite; a
        non-finite gradient that results is caught by :func:`sgd_step`.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._backward_run:
            raise RuntimeError("backward already run for this graph; build a fresh "
                               "forward pass before calling backward again")
        order = self._toposort()
        if not np.isfinite(self.data).all():
            for t in order:
                if not np.isfinite(t.data).all():
                    raise FloatingPointError(
                        f"non-finite values encountered in node '{t.op}' "
                        "during backward")
        self.grad = np.full_like(self.data, seed)
        for t in reversed(order):
            if t._backward_fn is not None and t.grad is not None:
                t._backward_fn(t.grad)
        self._backward_run = True

    def _toposort(self) -> list["Tensor"]:
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return order

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _make_node(data: np.ndarray, op: str, parents: Sequence[Tensor]) -> Tensor:
    """Wrap an op result; detaches automatically when grads are disabled."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op, parents=tuple(parents))
    return Tensor(data, op=op)


def _accum(t: Tensor, g: np.ndarray, shared: bool = False) -> None:
    """Add ``g`` into ``t.grad``.

    A node's first gradient is always a C-contiguous array of its own: a
    matmul's rounding can depend on the memory layout of its operands.
    A rule passes an array it has just built, which is kept as is when
    already contiguous; a ``shared`` one (a view of another node's
    gradient) is always copied.
    """
    if t.grad is None:
        t.grad = g if (g.flags.c_contiguous and not shared) else g.copy()
    else:
        t.grad += g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# convolution machinery


def _window_view(arr: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Strided view [oh, ow, k, k, C] of sliding kxk windows."""
    h, w, c = arr.shape
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    s0, s1, s2 = arr.strides
    return np.lib.stride_tricks.as_strided(
        arr,
        shape=(oh, ow, k, k, c),
        strides=(s0 * stride, s1 * stride, s0, s1, s2),
        writeable=False,
    )


def _im2col(arr: np.ndarray, k: int, stride: int) -> np.ndarray:
    """[oh*ow, k*k*C] patch matrix (materialized copy)."""
    win = _window_view(arr, k, stride)
    oh, ow = win.shape[:2]
    return win.reshape(oh * ow, k * k * arr.shape[2])


def _col2im(cols: np.ndarray, h: int, w: int, c: int, k: int, stride: int,
            oh: int, ow: int) -> np.ndarray:
    """Adjoint of ``_im2col``: scatter-add patches back onto an h x w grid."""
    patches = cols.reshape(oh, ow, k, k, c)
    if stride == k and (oh * k, ow * k) == (h, w):
        # The windows tile the grid, so each pixel gets one patch value.
        # Adding +0 maps -0 to +0, as adding onto a zero grid does.
        out = np.empty((oh, k, ow, k, c), dtype=cols.dtype)
        np.add(patches.transpose(0, 2, 1, 3, 4), 0.0, out=out)
        return out.reshape(h, w, c)
    out = np.zeros((h, w, c), dtype=cols.dtype)
    for dy in range(k):
        for dx in range(k):
            out[dy:dy + oh * stride:stride, dx:dx + ow * stride:stride] += \
                patches[:, :, dy, dx]
    return out


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1,
           padding: int = 0) -> Tensor:
    """2-D cross-correlation of [H,W,Cin] with a [k,k,Cin,Cout] kernel."""
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.data.ndim != 3:
        raise ShapeError(f"conv2d: input must be [H,W,C], got {x.shape}")
    if kernel.data.ndim != 4 or kernel.shape[0] != kernel.shape[1]:
        raise ShapeError(f"conv2d: kernel must be [k,k,Cin,Cout], got {kernel.shape}")
    k = kernel.shape[0]
    cin, cout = kernel.shape[2], kernel.shape[3]
    if x.shape[2] != cin:
        raise ShapeError(f"conv2d: input channel dim {x.shape[2]} != kernel "
                         f"input channels {cin} (kernel dim 2)")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({cout},) "
                         f"(kernel dim 3)")
    if k < 1 or stride < 1 or padding < 0:
        raise ValueError("conv2d: need k >= 1, stride >= 1, padding >= 0")
    h, w = x.shape[0], x.shape[1]
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d: kernel {k} with padding {padding} does not fit "
                         f"input {h}x{w}")
    padded = (np.pad(x.data, ((padding, padding), (padding, padding), (0, 0)))
              if padding else x.data)
    cols = _im2col(padded, k, stride)
    kmat = kernel.data.reshape(k * k * cin, cout)
    out2d = cols @ kmat
    out2d += bias.data
    result = _make_node(out2d.reshape(oh, ow, cout), "conv2d", (x, kernel, bias))

    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            g2 = g.reshape(oh * ow, cout)
            if kernel.requires_grad:
                _accum(kernel, (cols.T @ g2).reshape(kernel.shape))
            if bias.requires_grad:
                _accum(bias, g2.sum(axis=0))
            if x.requires_grad:
                dcols = g2 @ kmat.T
                dpad = _col2im(dcols, padded.shape[0], padded.shape[1], cin,
                               k, stride, oh, ow)
                if padding:
                    dpad = dpad[padding:padding + h, padding:padding + w]
                _accum(x, dpad)
        result._backward_fn = _backward
    return result


def deconv2d(x: Tensor, kernel: Tensor, stride: int = 1) -> Tensor:
    """Transposed convolution: [H,W,Cin] -> [(H-1)*stride+k, ..., Cout].

    The kernel layout is [k,k,Cout,Cin], chosen so that
    ``deconv2d(g, K, s)`` computes exactly the input-gradient of
    ``conv2d(x, K, s)`` when ``K`` has conv layout [k,k,Cin,Cout].
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim != 3:
        raise ShapeError(f"deconv2d: input must be [H,W,C], got {x.shape}")
    if kernel.data.ndim != 4 or kernel.shape[0] != kernel.shape[1]:
        raise ShapeError(f"deconv2d: kernel must be [k,k,Cout,Cin], got {kernel.shape}")
    k = kernel.shape[0]
    cout, cin = kernel.shape[2], kernel.shape[3]
    if x.shape[2] != cin:
        raise ShapeError(f"deconv2d: input channel dim {x.shape[2]} != kernel "
                         f"input channels {cin} (kernel dim 3)")
    if stride < 1:
        raise ValueError("deconv2d: stride must be >= 1")
    h, w = x.shape[0], x.shape[1]
    oh = (h - 1) * stride + k
    ow = (w - 1) * stride + k
    kmat = kernel.data.reshape(k * k * cout, cin)
    contrib = x.data.reshape(h * w, cin) @ kmat.T
    out = _col2im(contrib, oh, ow, cout, k, stride, h, w)
    result = _make_node(out, "deconv2d", (x, kernel))

    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            gcols = _im2col(g, k, stride)
            if x.requires_grad:
                _accum(x, (gcols @ kmat).reshape(h, w, cin))
            if kernel.requires_grad:
                dk = gcols.T @ x.data.reshape(h * w, cin)
                _accum(kernel, dk.reshape(kernel.shape))
        result._backward_fn = _backward
    return result


def _ceil_windows(n: int, k: int, stride: int) -> int:
    """Ceil-mode window count along one axis of length ``n``; the last
    window must start inside the input, so none is all padding."""
    count = -(-(n - k) // stride) + 1
    return count - 1 if (count - 1) * stride >= n else count


def maxpool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Channel-wise max over kxk windows; ties go to the first row-major index.

    Windows are counted in ceil mode: the bottom/right edge is padded
    (with -inf, never winning) so that partially covered windows produce
    an output row/column; a window that would start in the padding
    (possible when stride > k) is dropped.

    The forward pass keeps a running ``np.maximum`` over the k*k strided
    offset views, in row-major offset order. On a tie ``np.maximum``
    returns its second operand, the running maximum, so the earlier
    offset wins: between +0 and -0 the output keeps the sign of the
    first in row-major order, exactly as a windowed ``argmax`` would.
    The backward pass routes each output gradient to that first maximum;
    a window whose maximum is NaN routes its gradient nowhere.
    """
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool2d: input must be [H,W,C], got {x.shape}")
    if k < 1 or stride < 1:
        raise ValueError("maxpool2d: need k >= 1 and stride >= 1")
    h, w, c = x.shape
    if k > h or k > w:
        raise ShapeError(f"maxpool2d: window {k} larger than padded input {h}x{w}")
    oh = _ceil_windows(h, k, stride)
    ow = _ceil_windows(w, k, stride)
    ph = max(0, (oh - 1) * stride + k - h)
    pw = max(0, (ow - 1) * stride + k - w)
    if ph or pw:
        padded = np.pad(x.data, ((0, ph), (0, pw), (0, 0)), constant_values=-np.inf)
    else:
        padded = x.data
    # (row, column) slices of the padded input seen by each window offset
    offsets = [(slice(dy, dy + (oh - 1) * stride + 1, stride),
                slice(dx, dx + (ow - 1) * stride + 1, stride))
               for dy in range(k) for dx in range(k)]
    out = padded[offsets[0]].copy()
    for sl in offsets[1:]:
        np.maximum(padded[sl], out, out=out)
    result = _make_node(out, "maxpool2d", (x,))

    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            taken = np.zeros(out.shape, dtype=bool)
            masks = []
            for sl in offsets:
                first = padded[sl] == out
                first &= ~taken
                taken |= first
                masks.append(first)
            # Reverse offset order adds into each input pixel in the
            # row-major order of the windows that chose it. Where a window
            # did not choose the pixel, a finite g * first is a signed
            # zero; adding it leaves the sum, which starts at +0 and so is
            # never -0, bit-identical.
            dpad = np.zeros_like(padded)
            for sl, first in zip(reversed(offsets), reversed(masks)):
                dpad[sl] += g * first
            _accum(x, dpad[:h, :w] if (ph or pw) else dpad)
        result._backward_fn = _backward
    return result


def global_avgpool(x: Tensor) -> Tensor:
    """Per-channel spatial mean: [H,W,C] -> [C]."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"global_avgpool: input must be [H,W,C], got {x.shape}")
    h, w, _ = x.shape
    out = x.data.mean(axis=(0, 1))
    result = _make_node(out, "global_avgpool", (x,))

    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            _accum(x, np.broadcast_to(g / (h * w), x.shape).copy())
        result._backward_fn = _backward
    return result


@dataclass
class RunningStats:
    """Exponential running mean/variance for one batchnorm layer."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def create(cls, channels: int, dtype=np.float64) -> "RunningStats":
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))

    def copy(self) -> "RunningStats":
        return RunningStats(self.mean.copy(), self.var.copy())


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, stats: RunningStats,
              mode: str) -> Tensor:
    """Per-channel affine normalization by running statistics.

    Both modes normalize with ``stats`` (constants to the backward
    pass). ``eval`` leaves them unchanged; ``online`` then folds the
    statistics of ``x`` over all non-channel axes (biased variance) into
    ``stats`` with decay 0.9, one update per forward pass. The networks
    train in ``online`` mode: normalizing each per-image forward pass by
    its own statistics would both discard absolute color information and
    leave the running averages unrepresentative of what training
    actually computed.

    With the statistics fixed, the layer is the per-channel affine map
    ``x * scale + shift``, where ``scale = gamma / sqrt(var + eps)`` and
    ``shift = beta - mean * scale`` (Ioffe & Szegedy, 2015), computed as
    one multiply and one in-place add over ``x``. The backward pass
    forms ``x - mean`` only when ``gamma`` needs a gradient, from a copy
    of the mean taken before ``online`` mode updates ``stats``.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm: gamma/beta must be ({c},), got "
                         f"{gamma.shape}/{beta.shape}")
    if mode not in ("eval", "online"):
        raise ValueError(f"batchnorm: mode must be 'eval' or 'online', "
                         f"got {mode!r}")
    axes = tuple(range(x.data.ndim - 1))

    # the running statistics, before this pass updates them in place
    mu = stats.mean.astype(x.dtype, copy=True)
    inv_std = 1.0 / np.sqrt(stats.var.astype(x.dtype, copy=False) + BN_EPSILON)
    scale = gamma.data * inv_std
    shift = beta.data - mu * scale
    out = x.data * scale
    out += shift
    if mode == "online":
        # folded in only now: the pass has normalized by the old values
        cur_mu = x.data.mean(axis=axes, keepdims=True)
        cur_var = x.data.var(axis=axes, mean=cur_mu)
        cur_mu = cur_mu.reshape(c)
        stats.mean[...] = BN_STAT_DECAY * stats.mean + (1.0 - BN_STAT_DECAY) * cur_mu
        stats.var[...] = BN_STAT_DECAY * stats.var + (1.0 - BN_STAT_DECAY) * cur_var
    result = _make_node(out, "batchnorm", (x, gamma, beta))

    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            if gamma.requires_grad:
                centered = x.data - mu
                centered *= g
                _accum(gamma, centered.sum(axis=axes) * inv_std)
            if beta.requires_grad:
                _accum(beta, g.sum(axis=axes))
            if x.requires_grad:
                _accum(x, g * scale)
        result._backward_fn = _backward
    return result


# ---------------------------------------------------------------------------
# activations and shape ops


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)
    result = _make_node(out, "relu", (x,))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            _accum(x, g * (x.data > 0.0))
        result._backward_fn = _backward
    return result


def _softmax_node(x: Tensor, axis: int, op: str) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)
    result = _make_node(p, op, (x,))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            inner = (g * p).sum(axis=axis, keepdims=True)
            _accum(x, p * (g - inner))
        result._backward_fn = _backward
    return result


def _plane_sum(planes: np.ndarray) -> np.ndarray:
    """Sum of an [H,W,C] map over its channel planes, added in channel
    order: below 8 channels this is the order of numpy's own reduction
    over the last axis, which switches to blocked sums from 8 on."""
    total = planes[:, :, 0].copy()
    for ch in range(1, planes.shape[2]):
        total += planes[:, :, ch]
    return total


def channel_softmax(x: Tensor) -> Tensor:
    """Softmax along the channel axis of an [H,W,C] map.

    The max and the sums over channels are taken plane by plane, one
    vectorized pass over [H,W] per channel, instead of as reductions
    over the short, contiguous last axis. Below 8 channels the output
    is bit-identical to a last-axis reduction; from 8 on the sums are
    added in a different order (a few float32 ulps).
    """
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"channel_softmax: input must be [H,W,C], got {x.shape}")
    peak = x.data[:, :, 0].copy()
    for ch in range(1, x.shape[2]):
        np.maximum(peak, x.data[:, :, ch], out=peak)
    p = x.data - peak[:, :, None]
    np.exp(p, out=p)
    p /= _plane_sum(p)[:, :, None]
    result = _make_node(p, "channel_softmax", (x,))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            dx = g - _plane_sum(g * p)[:, :, None]
            dx *= p
            _accum(x, dx)
        result._backward_fn = _backward
    return result


def vector_softmax(x: Tensor) -> Tensor:
    """Softmax of a [C] vector."""
    x = _as_tensor(x)
    if x.data.ndim != 1:
        raise ShapeError(f"vector_softmax: input must be [C], got {x.shape}")
    return _softmax_node(x, axis=0, op="vector_softmax")


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack two [H,W,*] maps along the channel axis."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ShapeError("concat_channels: inputs must be [H,W,C]")
    if a.shape[:2] != b.shape[:2]:
        raise ShapeError(f"concat_channels: spatial dims differ, {a.shape[:2]} vs "
                         f"{b.shape[:2]}")
    ca = a.shape[2]
    out = np.concatenate([a.data, b.data], axis=2)
    result = _make_node(out, "concat_channels", (a, b))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a, g[:, :, :ca], shared=True)
            if b.requires_grad:
                _accum(b, g[:, :, ca:], shared=True)
        result._backward_fn = _backward
    return result


def conv1x1_concat(a: Tensor, b: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """1x1 convolution of the channel concatenation of ``a`` and ``b``.

    Computes ``conv2d(concat_channels(a, b), kernel, bias)`` for a
    [1,1,Ca+Cb,Cout] kernel as ``a @ kernel[:Ca] + b @ kernel[Ca:] +
    bias``, never building the [H,W,Ca+Cb] map. The sum over input
    channels is split in two, so results differ from the concatenated
    form in the last bits.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    kernel, bias = _as_tensor(kernel), _as_tensor(bias)
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ShapeError("conv1x1_concat: inputs must be [H,W,C]")
    if a.shape[:2] != b.shape[:2]:
        raise ShapeError(f"conv1x1_concat: spatial dims differ, {a.shape[:2]} vs "
                         f"{b.shape[:2]}")
    h, w, ca = a.shape
    cb = b.shape[2]
    if kernel.data.ndim != 4 or kernel.shape[:3] != (1, 1, ca + cb):
        raise ShapeError(f"conv1x1_concat: kernel must be [1,1,{ca + cb},Cout], "
                         f"got {kernel.shape}")
    cout = kernel.shape[3]
    if bias.shape != (cout,):
        raise ShapeError(f"conv1x1_concat: bias shape {bias.shape} != ({cout},) "
                         f"(kernel dim 3)")
    a2d = a.data.reshape(h * w, ca)
    b2d = b.data.reshape(h * w, cb)
    kmat = kernel.data.reshape(ca + cb, cout)
    ka, kb = kmat[:ca], kmat[ca:]
    out2d = a2d @ ka
    out2d += b2d @ kb
    out2d += bias.data
    result = _make_node(out2d.reshape(h, w, cout), "conv1x1_concat",
                        (a, b, kernel, bias))

    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            g2 = g.reshape(h * w, cout)
            if kernel.requires_grad:
                dk = np.concatenate([a2d.T @ g2, b2d.T @ g2])
                _accum(kernel, dk.reshape(kernel.shape))
            if bias.requires_grad:
                _accum(bias, g2.sum(axis=0))
            if a.requires_grad:
                _accum(a, (g2 @ ka.T).reshape(h, w, ca))
            if b.requires_grad:
                _accum(b, (g2 @ kb.T).reshape(h, w, cb))
        result._backward_fn = _backward
    return result


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Take channels [start, stop) of an [H,W,C] map."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError("slice_channels: input must be [H,W,C]")
    if not (0 <= start < stop <= x.shape[2]):
        raise ShapeError(f"slice_channels: range [{start},{stop}) out of bounds "
                         f"for {x.shape[2]} channels")
    out = x.data[:, :, start:stop].copy()
    result = _make_node(out, "slice_channels", (x,))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            dx = np.zeros_like(x.data)
            dx[:, :, start:stop] = g
            _accum(x, dx)
        result._backward_fn = _backward
    return result


def crop_spatial(x: Tensor, h: int, w: int) -> Tensor:
    """Keep the top-left [h, w] region; backward zero-pads."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError("crop_spatial: input must be [H,W,C]")
    if h > x.shape[0] or w > x.shape[1] or h < 1 or w < 1:
        raise ShapeError(f"crop_spatial: target {h}x{w} exceeds input "
                         f"{x.shape[0]}x{x.shape[1]}")
    out = x.data[:h, :w].copy()
    result = _make_node(out, "crop_spatial", (x,))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            dx = np.zeros_like(x.data)
            dx[:h, :w] = g
            _accum(x, dx)
        result._backward_fn = _backward
    return result


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    out = x.data.reshape(shape).copy()
    result = _make_node(out, "reshape", (x,))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            _accum(x, g.reshape(x.shape), shared=True)
        result._backward_fn = _backward
    return result


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    x = _as_tensor(x)
    result = _make_node(np.asarray(x.data.sum(), dtype=x.dtype), "sum", (x,))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            _accum(x, np.full_like(x.data, float(g)))
        result._backward_fn = _backward
    return result


def fully_connected(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map [N] @ [N,M] + [M]."""
    x, weights, bias = _as_tensor(x), _as_tensor(weights), _as_tensor(bias)
    if x.data.ndim != 1 or weights.data.ndim != 2:
        raise ShapeError("fully_connected: expects x [N] and weights [N,M]")
    n, m = weights.shape
    if x.shape != (n,):
        raise ShapeError(f"fully_connected: input length {x.shape[0]} != weight "
                         f"rows {n} (dim 0)")
    if bias.shape != (m,):
        raise ShapeError(f"fully_connected: bias length {bias.shape} != ({m},)")
    out = x.data @ weights.data + bias.data
    result = _make_node(out, "fully_connected", (x, weights, bias))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            if x.requires_grad:
                _accum(x, weights.data @ g)
            if weights.requires_grad:
                _accum(weights, np.outer(x.data, g))
            if bias.requires_grad:
                _accum(bias, g, shared=True)
        result._backward_fn = _backward
    return result


def cross_entropy(p: Tensor, label: int) -> Tensor:
    """Negative log-likelihood -log p[label] for a probability vector."""
    p = _as_tensor(p)
    if p.data.ndim != 1:
        raise ShapeError(f"cross_entropy: probabilities must be [C], got {p.shape}")
    c = p.shape[0]
    if not 0 <= label < c:
        raise IndexError(f"cross_entropy: label {label} out of range for {c} classes")
    total = float(p.data.sum())
    if abs(total - 1.0) > 1e-5 or (p.data < 0).any():
        raise ValueError(f"cross_entropy: input is not a probability vector "
                         f"(sum={total:.6g})")
    clamped = max(float(p.data[label]), LOG_CLAMP)
    result = _make_node(np.asarray(-np.log(clamped), dtype=p.dtype),
                        "cross_entropy", (p,))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            dp = np.zeros_like(p.data)
            dp[label] = -float(g) / clamped
            _accum(p, dp)
        result._backward_fn = _backward
    return result


# ---------------------------------------------------------------------------
# optimization and gradient checking


@dataclass
class OptimizerState:
    """SGD-with-momentum state: v <- mu*v + g, w <- w - lr*v.

    Velocity buffers are created lazily, and only when momentum > 0.
    """

    learning_rate: float
    momentum: float = 0.0
    velocities: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


def sgd_step(params: Mapping[str, Tensor], state: OptimizerState) -> None:
    """Apply one SGD update in place to every named parameter, stepping
    along its accumulated ``grad`` (a parameter without one steps along
    zero).

    Every gradient is checked first: a shape mismatch raises
    ``ShapeError`` and a non-finite gradient raises ``FloatingPointError``
    naming the parameter, in both cases before any parameter or velocity
    has changed.
    """
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(f"sgd_step: gradient shape {g.shape} != parameter "
                             f"shape {p.data.shape} for '{name}'")
        if not np.isfinite(g).all():
            raise FloatingPointError(f"sgd_step: non-finite gradient for "
                                     f"parameter '{name}'")
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if state.momentum > 0.0:
            v = state.velocities.get(name)
            if v is None:
                v = np.zeros_like(p.data)
                state.velocities[name] = v
            v *= state.momentum
            v += g
            p.data -= state.learning_rate * v
        else:
            p.data -= state.learning_rate * g


def finite_diff_check(fn: Callable[[], Tensor], wrt: Tensor,
                      eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` must rebuild the scalar loss from scratch on every call,
    closing over ``wrt``; the numeric probe perturbs ``wrt.data`` in
    place one coordinate at a time. Relative error per coordinate is
    |analytic - numeric| / max(1, |numeric|). Meaningful in 64-bit mode.
    """
    out = fn()
    if out.size != 1:
        raise ValueError(f"finite_diff_check: loss must be scalar, got {out.shape}")
    wrt.grad = None
    out.backward()
    analytic = (np.zeros_like(wrt.data) if wrt.grad is None
                else wrt.grad.copy())
    flat = wrt.data.reshape(-1)
    numeric = np.zeros_like(analytic).reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn().item()
        flat[i] = orig - eps
        lo = fn().item()
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * eps)
    numeric = numeric.reshape(analytic.shape)
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
