"""Brute-force reference implementations used as independent test oracles.

Everything here is written with plain nested loops over scalars, on
purpose: these functions must stay independent of the vectorized code
paths they are used to verify.
"""

import itertools

import numpy as np


def conv2d_loops(x, kernel, bias, stride=1, padding=0):
    """Direct cross-correlation. x: [H,W,Cin], kernel: [k,k,Cin,Cout]."""
    h, w, cin = x.shape
    k = kernel.shape[0]
    cout = kernel.shape[3]
    if padding:
        padded = np.zeros((h + 2 * padding, w + 2 * padding, cin), dtype=x.dtype)
        padded[padding:padding + h, padding:padding + w] = x
    else:
        padded = x
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((oh, ow, cout), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            for co in range(cout):
                acc = float(bias[co])
                for dy in range(k):
                    for dx in range(k):
                        for ci in range(cin):
                            acc += padded[i * stride + dy, j * stride + dx, ci] * \
                                kernel[dy, dx, ci, co]
                out[i, j, co] = acc
    return out


def deconv2d_loops(x, kernel, stride):
    """Direct transposed convolution. x: [H,W,Cin], kernel: [k,k,Cout,Cin]."""
    h, w, cin = x.shape
    k = kernel.shape[0]
    cout = kernel.shape[2]
    oh = (h - 1) * stride + k
    ow = (w - 1) * stride + k
    out = np.zeros((oh, ow, cout), dtype=x.dtype)
    for i in range(h):
        for j in range(w):
            for dy in range(k):
                for dx in range(k):
                    for co in range(cout):
                        for ci in range(cin):
                            out[i * stride + dy, j * stride + dx, co] += \
                                x[i, j, ci] * kernel[dy, dx, co, ci]
    return out


def maxpool2d_loops(x, k, stride):
    """Direct scanning max pool, windows counted in ceil mode. x: [H,W,C]."""
    h, w, c = x.shape
    oh = -(-(h - k) // stride) + 1
    ow = -(-(w - k) // stride) + 1
    # the last window must start inside the input
    if (oh - 1) * stride >= h:
        oh -= 1
    if (ow - 1) * stride >= w:
        ow -= 1
    out = np.zeros((oh, ow, c), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            for ch in range(c):
                best = -np.inf
                for dy in range(k):
                    for dx in range(k):
                        yy, xx = i * stride + dy, j * stride + dx
                        if yy < h and xx < w and x[yy, xx, ch] > best:
                            best = x[yy, xx, ch]
                out[i, j, ch] = best
    return out


def maxpool2d_grad_loops(x, k, stride, g):
    """Input gradient of the scanning max pool: each output gradient goes
    to its window's first maximum in row-major order, added in the
    row-major order of the outputs."""
    h, w, c = x.shape
    oh, ow = g.shape[:2]
    dx = np.zeros_like(x)
    for i in range(oh):
        for j in range(ow):
            for ch in range(c):
                best, where = -np.inf, None
                for dy in range(k):
                    for dx_ in range(k):
                        yy, xx = i * stride + dy, j * stride + dx_
                        if yy < h and xx < w and x[yy, xx, ch] > best:
                            best, where = x[yy, xx, ch], (yy, xx, ch)
                if where is not None:
                    dx[where] += g[i, j, ch]
    return dx


def avgpool_loops(x):
    h, w, c = x.shape
    out = np.zeros(c, dtype=x.dtype)
    for ch in range(c):
        acc = 0.0
        for i in range(h):
            for j in range(w):
                acc += x[i, j, ch]
        out[ch] = acc / (h * w)
    return out


def fc_loops(x, weights, bias):
    n, m = weights.shape
    out = np.zeros(m, dtype=x.dtype)
    for j in range(m):
        acc = float(bias[j])
        for i in range(n):
            acc += x[i] * weights[i, j]
        out[j] = acc
    return out


def inner(a, b):
    """Flat inner product, used for adjoint checks."""
    return float((np.asarray(a) * np.asarray(b)).sum())


def batchnorm_loops(x, gamma, beta, mean, var, eps=1e-5):
    """Normalize each channel by the given statistics. x: [H,W,C]."""
    h, w, c = x.shape
    out = np.zeros_like(x)
    for ch in range(c):
        inv_std = 1.0 / np.sqrt(var[ch] + eps)
        for i in range(h):
            for j in range(w):
                out[i, j, ch] = (x[i, j, ch] - mean[ch]) * inv_std * gamma[ch] \
                    + beta[ch]
    return out


def running_stats_loops(x, mean, var, decay=0.9):
    """Fold the biased per-channel statistics of x into (mean, var)."""
    h, w, c = x.shape
    new_mean, new_var = np.zeros(c), np.zeros(c)
    for ch in range(c):
        acc = 0.0
        for i in range(h):
            for j in range(w):
                acc += x[i, j, ch]
        mu = acc / (h * w)
        acc = 0.0
        for i in range(h):
            for j in range(w):
                acc += (x[i, j, ch] - mu) ** 2
        new_mean[ch] = decay * mean[ch] + (1.0 - decay) * mu
        new_var[ch] = decay * var[ch] + (1.0 - decay) * acc / (h * w)
    return new_mean, new_var


def relu_loops(x):
    out = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        out[idx] = x[idx] if x[idx] > 0.0 else 0.0
    return out


def channel_softmax_loops(x):
    """Softmax over the channel axis of each pixel. x: [H,W,C]."""
    h, w, c = x.shape
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            peak = max(x[i, j, ch] for ch in range(c))
            exps = [np.exp(x[i, j, ch] - peak) for ch in range(c)]
            total = sum(exps)
            for ch in range(c):
                out[i, j, ch] = exps[ch] / total
    return out


def rms_normalize_loops(a):
    """Scale an [H,W] map to unit root mean square (zero stays zero)."""
    h, w = a.shape
    acc = 0.0
    for i in range(h):
        for j in range(w):
            acc += a[i, j] * a[i, j]
    rms = np.sqrt(acc / (h * w))
    out = np.zeros_like(a)
    if rms > 0.0:
        for i in range(h):
            for j in range(w):
                out[i, j] = a[i, j] / rms
    return out


def _edge_lines(x, axis):
    """Yield (index, at) for each 1-D line of float64 ``x`` along ``axis``:
    ``index`` places an element of the line in ``x``, ``at(k)`` reads the
    line extended by repeating its edge values."""
    n = x.shape[axis]
    others = [range(d) for a, d in enumerate(x.shape) if a != axis]
    for rest in itertools.product(*others):
        def index(k, rest=rest):
            return rest[:axis] + (k,) + rest[axis:]

        def at(k, index=index):
            return float(x[index(min(max(k, 0), n - 1))])
        yield index, at


def box3_nearest_loops(x, axis):
    """3-tap box blur along ``axis``, edges repeated, in scipy.ndimage's
    ``uniform_filter1d`` order: a running sum of raw values, started at
    0.0, each output that sum divided by 3."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for index, at in _edge_lines(x, axis):
        acc = 0.0
        for k in range(-1, 2):
            acc += at(k)
        out[index(0)] = acc / 3.0
        for i in range(1, x.shape[axis]):
            acc += at(i + 1) - at(i - 2)
            out[index(i)] = acc / 3.0
    return out


def gaussian_nearest_loops(x, sigma, axis):
    """Gaussian blur along ``axis``, edges repeated, in the order of
    scipy.ndimage's symmetric ``correlate1d``: the center tap, then each
    pair of taps ``j`` apart, summed first, for ``j`` from the radius down
    to 1. The weights are scipy's ``_gaussian_kernel1d`` (numpy ``exp``
    and ``sum``), so they are built here with numpy as well."""
    x = np.asarray(x, dtype=np.float64)
    r = int(4.0 * sigma + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = [float(v) for v in phi / phi.sum()]
    out = np.zeros_like(x)
    for index, at in _edge_lines(x, axis):
        for i in range(x.shape[axis]):
            acc = at(i) * w[r]
            for j in range(r, 0, -1):
                acc += (at(i - j) + at(i + j)) * w[r - j]
            out[index(i)] = acc
    return out
