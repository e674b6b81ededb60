"""Brute-force reference implementations used as independent test oracles.

Everything here is written with plain nested loops over scalars, on
purpose: these functions must stay independent of the vectorized code
paths they are used to verify.
"""

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
