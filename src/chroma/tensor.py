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
per-image graphs (see ``Tensor.backward``'s ``seed`` argument), except
that a fully connected layer's weight gradient is formed once per batch,
as one product over the rows its per-image backward passes recorded
(see ``Tensor.grad``). Each conv layer's ``relu(bn(x))`` tail is one
node, :func:`batchnorm`; a 1x1 conv with that tail is one node too,
:func:`conv1x1_batchnorm`.
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
    "grad_enabled",
    "conv2d",
    "deconv2d",
    "maxpool2d",
    "global_avgpool",
    "batchnorm",
    "conv1x1_batchnorm",
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
_STEP_BLOCK = 1 << 16  # at most this many elements (or one row) per sgd_step block
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


def grad_enabled() -> bool:
    return _grad_enabled  # False inside no_grad


class Tensor:
    """N-dimensional float array, optionally part of a differentiable graph.

    Values are immutable by convention once a tensor has been used in a
    forward computation; the optimizer mutates parameter ``data`` in
    place only between graph constructions.
    """

    __slots__ = ("data", "_grad", "_pending", "requires_grad", "op", "_parents",
                 "_backward_fn", "_backward_run")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = ()):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._backward_run = False
        self._grad: np.ndarray | None = None  # until a backward pass reaches it
        self._pending: list | None = None  # (x, g) rows of deferred outer products

    @property
    def grad(self) -> np.ndarray | None:
        """The accumulated gradient, None until a backward pass reaches it.

        A fully connected layer's backward pass does not form its weight
        gradient: it records the rows ``(x, g)`` of the product ``x.T @
        g`` (:func:`_accum_outer`). The first read folds every recorded
        row in at once, as ``X.T @ G`` over the stacked rows, so a batch
        of per-image graphs writes an [N,M] weight gradient once.
        Assigning ``grad`` (``None`` before a batch) drops any recorded
        rows.
        """
        if self._pending:
            xs, gs = zip(*self._pending)
            self._pending = None
            _accum(self, np.concatenate(xs).T @ np.concatenate(gs))
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value
        self._pending = None

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
        t._grad = g if (g.flags.c_contiguous and not shared) else g.copy()
    else:
        t._grad += g


def _accum_outer(t: Tensor, x: np.ndarray, g: np.ndarray) -> None:
    """Add ``x.T @ g`` (rows [R,N] and [R,M]) into ``t.grad`` when it is
    next read: the rows are recorded, not multiplied (see ``Tensor.grad``)."""
    if t._pending is None:
        t._pending = []
    t._pending.append((x, g))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# convolution machinery


def _im2col(arr: np.ndarray, k: int, stride: int) -> np.ndarray:
    """[oh*ow, k*k*C] patch matrix of the sliding kxk windows (a copy of
    their strided view [oh, ow, k, k, C])."""
    h, w, c = arr.shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    s0, s1, s2 = arr.strides
    win = np.lib.stride_tricks.as_strided(
        arr, shape=(oh, ow, k, k, c),
        strides=(s0 * stride, s1 * stride, s0, s1, s2), writeable=False)
    return win.reshape(oh * ow, k * k * c)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1,
           padding: int = 0) -> Tensor:
    """2-D cross-correlation of [H,W,Cin] with a [k,k,Cin,Cout] kernel.

    The forward pass and the kernel gradient are GEMMs over the im2col
    patch matrix; the input gradient is one more, over the patches of
    the zero-spread output gradient (:func:`_conv_input_grad`).
    """
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
                _accum(bias, _channel_sum(g2))
            if x.requires_grad:
                _accum(x, _conv_input_grad(g, kernel.data, stride, padding, h, w))
        result._backward_fn = _backward
    return result


def _conv_input_grad(g: np.ndarray, kernel: np.ndarray, stride: int,
                     padding: int, h: int, w: int) -> np.ndarray:
    """The [h,w,Cin] input gradient of :func:`conv2d` for an output
    gradient ``g`` [oh,ow,Cout], as one GEMM.

    Padded input row ``p`` collects ``g[i] @ kernel[dy].T`` over ``i *
    stride + dy = p``: a stride-1 cross-correlation of ``g``, zero-dilated
    by the stride and zero-padded by ``k - 1``, with the kernel flipped
    in space. Of that map only the windows of the unpadded input are
    formed, and their im2col times the flipped kernel ``[k*k*Cout, Cin]``
    is the gradient.
    """
    k, cin, cout = kernel.shape[0], kernel.shape[2], kernel.shape[3]
    oh, ow = g.shape[:2]
    full = np.zeros((h + 2 * padding + k - 1, w + 2 * padding + k - 1, cout),
                    g.dtype)
    full[k - 1:k + (oh - 1) * stride:stride, k - 1:k + (ow - 1) * stride:stride] = g
    spread = full[padding:padding + h + k - 1, padding:padding + w + k - 1]
    flipped = kernel[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k * k * cout, cin)
    return (_im2col(spread, k, 1) @ flipped).reshape(h, w, cin)


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
    out = _deconv_planes(x.data, kernel.data, stride, oh, ow)
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


def _deconv_planes(x: np.ndarray, kernel: np.ndarray, stride: int, oh: int,
                   ow: int) -> np.ndarray:
    """The forward pass of :func:`deconv2d` on a plain [H,W,Cin] array,
    cropped to its top-left [oh, ow] (or zero-padded to it).

    Output row ``stride * m + py`` takes kernel row ``py + stride * j``
    from input row ``m - j``, so each tap adds into one parity plane (a
    strided view of the output). Each pixel adds its taps in row-major
    order onto +0, as a scatter onto zeros would: the first tap of each
    plane (``j = 0``) is written as ``tap + 0``, and only the rows and
    columns past ``stride * H`` and ``stride * W``, which it misses, are
    zeroed.
    """
    h, w, cin = x.shape
    k, cout = kernel.shape[0], kernel.shape[2]
    taps = (x.reshape(h * w, cin) @ kernel.reshape(k * k * cout, cin).T
            ).reshape(h, w, k, k, cout)
    # with stride > k some planes take no tap at all
    out = (np.zeros if stride > k else np.empty)((oh, ow, cout), taps.dtype)
    out[stride * h:] = 0.0
    out[:, stride * w:] = 0.0
    for dy in range(k):
        for dx in range(k):
            plane = out[dy % stride::stride, dx % stride::stride]
            jy, jx = dy // stride, dx // stride
            ny = max(0, min(plane.shape[0] - jy, h))
            nx = max(0, min(plane.shape[1] - jx, w))
            tap, part = taps[:ny, :nx, dy, dx], plane[jy:jy + ny, jx:jx + nx]
            if jy or jx:
                part += tap
            else:
                np.add(tap, 0.0, out=part)
    return out


def maxpool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Channel-wise max over kxk windows; ties go to the first row-major index.

    Windows are counted in ceil mode: the bottom/right edge is padded
    (with -inf, never winning) so that partially covered windows produce
    an output row/column; a window that would start in the padding
    (possible when stride > k) is dropped.

    The forward pass keeps a running ``np.maximum`` over the k*k
    strided offset views, in row-major offset order, unpadded. On a
    tie ``np.maximum`` returns its second operand, the running maximum,
    so the earlier offset wins: between +0 and -0 the output keeps the
    sign of the first in row-major order, as a windowed ``argmax`` would.
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
    offsets = _pool_offsets(h, w, k, stride)
    out = x.data[offsets[0][0]].copy()
    for src, dst in offsets[1:]:
        np.maximum(x.data[src], out[dst], out=out[dst])
    result = _make_node(out, "maxpool2d", (x,))

    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            taken = np.zeros(out.shape, dtype=bool)
            masks = []
            for src, dst in offsets:
                first = x.data[src] == out[dst]
                first &= ~taken[dst]
                taken[dst] |= first
                masks.append(first)
            # Reverse offset order adds into each input pixel in the
            # row-major order of the windows that chose it. Where a window
            # did not choose the pixel, a finite g * first is a signed
            # zero; adding it leaves the sum, which starts at +0 and so is
            # never -0, bit-identical.
            dx = np.zeros_like(x.data)
            for (src, dst), first in zip(reversed(offsets), reversed(masks)):
                dx[src] += g[dst] * first
            _accum(x, dx)
        result._backward_fn = _backward
    return result


def _pool_offsets(h: int, w: int, k: int, stride: int) -> list:
    """Per kxk window offset, in row-major order: the (rows, columns) of
    the input it reads and of the ceil-mode windows it reaches, those
    whose pixel at that offset is inside the input (elsewhere it would
    be -inf padding, which never wins). No window starts in padding."""
    def reach(n: int, d: int) -> tuple[slice, slice]:
        windows = -(-(n - k) // stride) + 1
        if (windows - 1) * stride >= n:
            windows -= 1
        m = min(windows, -(-(n - d) // stride))
        return slice(d, d + (m - 1) * stride + 1, stride), slice(0, m)

    return [tuple(zip(reach(h, dy), reach(w, dx)))
            for dy in range(k) for dx in range(k)]


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

    def copy(self) -> "RunningStats":
        return RunningStats(self.mean.copy(), self.var.copy())


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, stats: RunningStats,
              mode: str) -> Tensor:
    """Per-channel affine normalization by running statistics, rectified:
    the conv layer tail ``relu(bn(x))`` as one node.

    Both modes normalize with ``stats`` (constants to the backward
    pass). ``eval`` leaves them unchanged; ``online`` then folds the
    statistics of ``x`` over all non-channel axes (biased variance) into
    ``stats`` with decay 0.9, one update per forward pass. The networks
    train in ``online`` mode: normalizing each per-image forward pass by
    its own statistics would both discard absolute color information and
    leave the running averages unrepresentative of what training
    actually computed. The statistics are taken in two passes, the mean
    and then the sum of squares about it (stable where ``E[x^2] - m^2``
    cancels; Chan, Golub & LeVeque, 1983), each sum as a BLAS product
    with a vector of ones.

    With the statistics fixed, the layer is ``max(x * scale + shift, 0)``,
    where ``scale = gamma / sqrt(var + eps)`` and ``shift = beta - mean *
    scale`` (Ioffe & Szegedy, 2015), computed as one multiply into a
    fresh array, then an add and the rectification in place. The
    backward pass masks the output gradient once by ``out > 0``, exactly
    as a separate ReLU would, and derives the three gradients from that
    mask, scaling it in place into the input's. It forms ``x - mean``
    only when ``gamma`` needs a gradient, from a copy of the mean taken
    before ``online`` mode updates ``stats``.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm: gamma/beta must be ({c},), got "
                         f"{gamma.shape}/{beta.shape}")
    if mode not in ("eval", "online"):
        raise ValueError(f"batchnorm: mode must be 'eval' or 'online', "
                         f"got {mode!r}")

    # the running statistics, before this pass updates them in place
    mu = stats.mean.astype(x.dtype, copy=True)
    inv_std, scale, shift = _bn_affine(gamma.data, beta.data, mu,
                                       stats.var.astype(x.dtype, copy=False))
    out = x.data * scale
    out += shift
    np.maximum(out, 0.0, out=out)
    if mode == "online":
        # folded in only now: the pass has normalized by the old values
        x2d = x.data.reshape(-1, c)
        cur_mu = _channel_sum(x2d)
        cur_mu /= len(x2d)
        sq = x2d - cur_mu
        sq *= sq
        cur_var = _channel_sum(sq)
        cur_var /= len(x2d)
        _fold_stats(stats, cur_mu, cur_var)
    result = _make_node(out, "batchnorm", (x, gamma, beta))

    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            gm = g * (out > 0.0)
            if gamma.requires_grad:
                centered = x.data - mu
                centered *= gm
                _accum(gamma, _channel_sum(centered.reshape(-1, c)) * inv_std)
            if beta.requires_grad:
                _accum(beta, _channel_sum(gm.reshape(-1, c)))
            if x.requires_grad:
                gm *= scale
                _accum(x, gm)
        result._backward_fn = _backward
    return result


def conv1x1_batchnorm(x: Tensor, kernel: Tensor, bias: Tensor, gamma: Tensor,
                      beta: Tensor, stats: RunningStats, mode: str) -> Tensor:
    """A 1x1 convolution with the rectified :func:`batchnorm` tail as one
    node: ``batchnorm(conv2d(x, kernel, bias), gamma, beta, stats, mode)``
    for a [1,1,Cin,Cout] kernel, without building the conv's output.

    The normalization by ``stats`` is folded into the kernel and bias
    (Jacob et al., CVPR 2018) as a folded eval layer is: ``x @ (w *
    scale)`` into a fresh buffer, ``+= b * scale + shift``, then
    rectified in place. ``online`` mode then folds the statistics of the
    conv's output into ``stats``, taken in float64 from the moments of
    the input: the mean is ``x̄ @ w + b`` and the biased variance ``wᵀ Σ
    w`` for the centred [Cin,Cin] covariance Σ of the input's pixels,
    clipped at 0. For an image (Cin = 3) that is one pass over the
    input instead of two over the [H,W,Cout] map.

    The backward pass masks the output gradient once, ``gm = g * (out >
    0)``, and takes every gradient from one product ``G = xᵀ @ gm``
    [Cin,Cout] and the channel sums ``s`` of ``gm``: the kernel's ``G *
    scale``, the bias's ``s * scale``, beta's ``s``, gamma's ``inv_std *
    (Σ_i w_ic (G_ic - x̄_i s_c) + (ȳ_c - μ_c) s_c)`` in float64 (``ȳ =
    x̄ @ w + b``, ``μ`` the running mean), and the input's ``(gm * scale)
    @ wᵀ``, formed only when ``x`` requires a gradient. As in
    :func:`batchnorm`, the gradients use the statistics from before an
    ``online`` update.
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    gamma, beta = _as_tensor(gamma), _as_tensor(beta)
    if x.data.ndim != 3:
        raise ShapeError(f"conv1x1_batchnorm: input must be [H,W,C], got {x.shape}")
    h, w, cin = x.shape
    if kernel.data.ndim != 4 or kernel.shape[:3] != (1, 1, cin):
        raise ShapeError(f"conv1x1_batchnorm: kernel must be [1,1,{cin},Cout], "
                         f"got {kernel.shape}")
    cout = kernel.shape[3]
    if bias.shape != (cout,) or gamma.shape != (cout,) or beta.shape != (cout,):
        raise ShapeError(f"conv1x1_batchnorm: bias/gamma/beta must be ({cout},), "
                         f"got {bias.shape}/{gamma.shape}/{beta.shape}")
    if mode not in ("eval", "online"):
        raise ValueError(f"conv1x1_batchnorm: mode must be 'eval' or 'online', "
                         f"got {mode!r}")

    x2d = x.data.reshape(h * w, cin)
    kmat = kernel.data.reshape(cin, cout)
    # the running statistics, before this pass updates them in place
    mu, var = stats.mean.astype(np.float64), stats.var.astype(np.float64)
    _, scale, shift = _bn_affine(gamma.data, beta.data,
                                 stats.mean.astype(x.dtype, copy=False),
                                 stats.var.astype(x.dtype, copy=False))
    out2d = x2d @ (kmat * scale)
    out2d += bias.data * scale + shift
    np.maximum(out2d, 0.0, out=out2d)
    if mode == "online":
        xbar = x2d.mean(axis=0, dtype=np.float64)
        k64 = kmat.astype(np.float64)
        centred = x2d - xbar
        cov = centred.T @ centred / len(x2d)
        _fold_stats(stats, xbar @ k64 + bias.data,
                    np.maximum((cov @ k64 * k64).sum(axis=0), 0.0))
    result = _make_node(out2d.reshape(h, w, cout), "conv1x1_batchnorm",
                        (x, kernel, bias, gamma, beta))

    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            gm = g.reshape(h * w, cout) * (out2d > 0.0)
            big_g = x2d.T @ gm
            s = _channel_sum(gm)
            if kernel.requires_grad:
                _accum(kernel, (big_g * scale).reshape(kernel.shape))
            if bias.requires_grad:
                _accum(bias, s * scale)
            if gamma.requires_grad:
                xbar = x2d.mean(axis=0, dtype=np.float64)
                k64, s64 = kmat.astype(np.float64), s.astype(np.float64)
                dgamma = (k64 * (big_g - np.outer(xbar, s64))).sum(axis=0)
                dgamma += (xbar @ k64 + bias.data - mu) * s64
                dgamma /= np.sqrt(var + BN_EPSILON)
                _accum(gamma, dgamma.astype(x.dtype))
            if beta.requires_grad:
                _accum(beta, s)
            if x.requires_grad:
                gm *= scale
                _accum(x, (gm @ kmat.T).reshape(h, w, cin))
        result._backward_fn = _backward
    return result


def _fold_stats(stats: RunningStats, cur_mu: np.ndarray, cur_var: np.ndarray) -> None:
    """Fold one pass's statistics into the running ones, decay 0.9."""
    stats.mean[...] = BN_STAT_DECAY * stats.mean + (1.0 - BN_STAT_DECAY) * cur_mu
    stats.var[...] = BN_STAT_DECAY * stats.var + (1.0 - BN_STAT_DECAY) * cur_var


def _channel_sum(a2d: np.ndarray) -> np.ndarray:
    """Column sums of an [N, C] array, as one BLAS product."""
    return np.ones(len(a2d), a2d.dtype) @ a2d


def _bn_affine(gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray,
               var: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(inv_std, scale, shift)`` of batchnorm by fixed statistics, which
    maps ``x`` to ``x * scale + shift``."""
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    scale = gamma * inv_std
    return inv_std, scale, beta - mean * scale


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
                _accum(bias, _channel_sum(g2))
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
            dx = np.empty_like(x.data)
            dx[h:] = 0.0
            dx[:h, w:] = 0.0
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
    """Affine map [N] @ [N,M] + [M], or of rows [R,N] @ [N,M] + [M].

    The weight gradient is the outer product of ``x`` and the output
    gradient, summed over rows. The backward pass only records the rows
    on ``weights``; the first read of ``weights.grad`` adds every
    recorded row in as one ``X.T @ G`` (see ``Tensor.grad``). Within a
    batch of per-image graphs the sum is therefore taken in the order of
    one GEMM rather than image by image, which moves float32 results in
    the last bits (float64 within 1e-12 of summed ``np.outer`` products).
    With OpenBLAS a [1,N] row gives the [N] vector's bytes.
    """
    x, weights, bias = _as_tensor(x), _as_tensor(weights), _as_tensor(bias)
    if x.data.ndim not in (1, 2) or weights.data.ndim != 2:
        raise ShapeError("fully_connected: expects x [N] or [R,N] and weights [N,M]")
    n, m = weights.shape
    if x.shape[-1] != n:
        raise ShapeError(f"fully_connected: input length {x.shape[-1]} != weight "
                         f"rows {n} (dim 0)")
    if bias.shape != (m,):
        raise ShapeError(f"fully_connected: bias length {bias.shape} != ({m},)")
    out = x.data @ weights.data + bias.data
    result = _make_node(out, "fully_connected", (x, weights, bias))
    if result.requires_grad:
        def _backward(g: np.ndarray) -> None:
            if x.requires_grad:
                _accum(x, (weights.data @ g.T).T)
            if weights.requires_grad:
                _accum_outer(weights, x.data.reshape(-1, n), g.reshape(-1, m))
            if bias.requires_grad:
                # summed onto -0, so that a lone row keeps its signed zeros
                _accum(bias, g.reshape(-1, m).sum(axis=0, initial=-0.0))
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
    has changed. The check and the update ``p -= lr * v`` run over blocks
    of rows, so no temporary is the size of a parameter; each element is
    updated exactly as by the whole-array expression.
    """
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(f"sgd_step: gradient shape {g.shape} != parameter "
                             f"shape {p.data.shape} for '{name}'")
        if not all(np.isfinite(b).all() for b in _row_blocks(g)):
            raise FloatingPointError(f"sgd_step: non-finite gradient for "
                                     f"parameter '{name}'")
    for name, p in params.items():
        g = p.grad
        if state.momentum > 0.0:
            v = state.velocities.get(name)
            if v is None:
                v = np.zeros_like(p.data)
                state.velocities[name] = v
            v *= state.momentum
            v += 0.0 if g is None else g
            g = v
        elif g is None:
            continue  # p - lr * 0 is p, bit for bit
        for pb, gb in zip(_row_blocks(p.data), _row_blocks(g)):
            pb -= state.learning_rate * gb


def _row_blocks(a: np.ndarray):
    rows = max(1, _STEP_BLOCK * len(a) // max(a.size, 1))
    return (a[i:i + rows] for i in range(0, len(a), rows))


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
