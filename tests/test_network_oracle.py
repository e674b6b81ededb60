"""Network-level oracle: the loop oracles composed into float64 forward
passes of both branches, on a fixed tiny weight set.

This is the check that every kernel change which reorders floating-point
arithmetic must pass. The float64 networks must match the composition to
rounding (``FLOAT64_TOL``); the float32 networks, which training runs,
must match it within ``FLOAT32_TOL``, stated as an absolute error on the
color branch's probabilities and the attention map (unit RMS, so its
entries are of order one), and as a relative error on the batchnorm
running statistics that ``online`` mode folds in. The float32 gradients
must match the float64 ones, whose backward rules ``chroma gradcheck``
checks against finite differences, within ``FLOAT32_GRAD_TOL`` relative
to each gradient's largest entry.
"""

import zlib

import numpy as np
import pytest

from chroma.networks import CnNet, VaNet, full_forward
from chroma.tensor import cross_entropy

from oracles import (
    batchnorm_loops,
    channel_softmax_loops,
    conv2d_loops,
    deconv2d_loops,
    fc_loops,
    maxpool2d_loops,
    relu_loops,
    rms_normalize_loops,
    running_stats_loops,
)

FLOAT64_TOL = 1e-10
FLOAT32_TOL = 1e-5
FLOAT32_GRAD_TOL = 1e-4

CLASSES = 11  # basic11: the channel softmax sums in blocks from 8 classes on
CN_WIDTH = 4
CN_IMAGE = (10, 11)  # the upsampled 11x11 map is cropped to 10 rows
VA_KWARGS = dict(resolution=10, stages=2, channels=(3, 4), fc_width=10,
                 bottleneck_channels=2, dec_channels=(3, 2))  # 12x12 -> 10x10


class FixedWeights:
    """One branch's part of the tiny weight set: each parameter and
    statistic is drawn from a generator seeded by the branch and its
    name, rounded to float32 so that the float32 and float64 networks
    and the oracle all start from the same values."""

    def __init__(self, branch: str):
        self.branch = branch
        self.values: dict[str, np.ndarray] = {}

    def _draw(self, key: str, shape, kind: str) -> np.ndarray:
        if key not in self.values:
            seed = zlib.crc32(f"{self.branch}.{key}".encode())
            rng = np.random.default_rng(seed)
            if kind == "gamma":
                v = 1.0 + 0.3 * rng.normal(size=shape)
            elif kind in ("beta", "b"):  # mostly positive: ReLUs stay alive
                v = 0.5 + 0.3 * rng.normal(size=shape)
            elif kind == "mean":
                v = 0.3 * rng.normal(size=shape)
            elif kind in ("var", "prior"):
                v = rng.uniform(0.5, 2.0, size=shape)
            else:
                v = rng.normal(size=shape) / np.sqrt(np.prod(shape[:-1]))
            self.values[key] = v.astype(np.float32).astype(np.float64)
        return self.values[key]

    def param(self, name, shape):
        kind = name.rsplit(".", 1)[-1]
        return self._draw(name, shape, "prior" if name == "prior.kernel" else kind)

    def stats(self, name, shape):
        return (self._draw(f"{name}.mean", shape, "mean"),
                self._draw(f"{name}.var", shape, "var"))


CN_WEIGHTS = FixedWeights("cn")
VA_WEIGHTS = FixedWeights("va")


def _image(shape, seed):
    return np.random.default_rng(seed).uniform(size=shape + (3,)).astype(
        np.float32).astype(np.float64)


def _cn(dtype):
    return CnNet(CLASSES, width=CN_WIDTH, dtype=dtype, weights=CN_WEIGHTS)


def _va(dtype):
    return VaNet(dtype=dtype, weights=VA_WEIGHTS, **VA_KWARGS)


def _bn_relu(weights, x, name, new_stats):
    """Batchnorm by the saved statistics, then ReLU; records the
    statistics online mode would fold in."""
    shape = (x.shape[2],)
    mean, var = weights.stats(name, shape)
    new_stats[name] = running_stats_loops(x, mean, var)
    gamma = weights.param(f"{name}.gamma", shape)
    beta = weights.param(f"{name}.beta", shape)
    return relu_loops(batchnorm_loops(x, gamma, beta, mean, var))


def cn_oracle(image):
    """CnNet's forward pass from the loop oracles: (probabilities,
    statistics after one online pass)."""
    _cn(np.float64)  # building a network draws its weight set
    p = CN_WEIGHTS.values
    h, wd = image.shape[:2]
    new_stats = {}
    t = conv2d_loops(image, p["trunk.conv.w"], p["trunk.conv.b"])
    t = _bn_relu(CN_WEIGHTS, t, "trunk.bn", new_stats)
    t = maxpool2d_loops(t, 3, 2)
    t = deconv2d_loops(t, p["up.deconv.w"], 2)
    t = _bn_relu(CN_WEIGHTS, t, "up.bn", new_stats)[:h, :wd]
    s = conv2d_loops(image, p["skip.conv.w"], p["skip.conv.b"])
    s = _bn_relu(CN_WEIGHTS, s, "skip.bn", new_stats)
    logits = conv2d_loops(np.concatenate([t, s], axis=2), p["head.conv.w"],
                          p["head.conv.b"])
    return channel_softmax_loops(logits), new_stats


def va_oracle(image):
    """VaNet's forward pass from the loop oracles: (attention map,
    statistics after one online pass)."""
    _va(np.float64)
    p = VA_WEIGHTS.values
    r, stages = VA_KWARGS["resolution"], VA_KWARGS["stages"]
    new_stats = {}
    h = image
    for i in range(stages):
        h = conv2d_loops(h, p[f"enc{i}.conv.w"], p[f"enc{i}.conv.b"], padding=1)
        h = maxpool2d_loops(_bn_relu(VA_WEIGHTS, h, f"enc{i}.bn", new_stats), 2, 2)
    g = h.shape[0]
    z = relu_loops(fc_loops(h.reshape(-1), p["fc1.w"], p["fc1.b"]))
    z = relu_loops(fc_loops(z, p["fc2.w"], p["fc2.b"]))
    h = z.reshape(g, g, VA_KWARGS["bottleneck_channels"])
    prior = p["prior.kernel"]
    for i in range(g):
        for j in range(g):
            h[i, j] *= prior[i, j]
    for i in range(stages):
        h = deconv2d_loops(h, p[f"dec{i}.deconv.w"], 2)
        h = _bn_relu(VA_WEIGHTS, h, f"dec{i}.bn", new_stats)
    h = h[:r, :r]
    a = relu_loops(conv2d_loops(h, p["head.conv.w"], p["head.conv.b"], padding=1))
    return rms_normalize_loops(a.reshape(r, r)), new_stats


def _check_stats(net, weights, online_stats, mode, tol) -> None:
    """Online mode folds each layer's statistics in (relative error below
    ``tol``); eval mode leaves the loaded ones exactly as they were."""
    want = online_stats if mode == "online" else {
        name: weights.stats(name, None) for name in online_stats}
    got = net.stats()
    assert got.keys() == want.keys()
    for name, (mean, var) in want.items():
        for a, b in ((got[name].mean, mean), (got[name].var, var)):
            err = float(np.abs(a - b).max() / np.abs(b).max())
            assert err < tol if mode == "online" else err == 0.0, name


@pytest.fixture(scope="module")
def cn_want():
    image = _image(CN_IMAGE, 3)
    probs, stats = cn_oracle(image)
    # the check means something only if no layer is dead or saturated
    assert np.ptp(probs) > 0.1 and np.isfinite(probs).all()
    return image, probs, stats


@pytest.fixture(scope="module")
def va_want():
    r = VA_KWARGS["resolution"]
    image = _image((r, r), 4)
    attention, stats = va_oracle(image)
    assert (attention > 0).mean() > 0.25 and np.ptp(attention) > 0.5
    return image, attention, stats


@pytest.mark.parametrize("mode", ["eval", "online"])
@pytest.mark.parametrize("dtype, tol", [(np.float64, FLOAT64_TOL),
                                        (np.float32, FLOAT32_TOL)])
def test_color_branch_matches_oracle(cn_want, mode, dtype, tol):
    image, probs, stats = cn_want
    net = _cn(dtype)
    out = net.forward(image.astype(dtype), train=(mode == "online"))
    assert out.dtype == dtype
    assert np.abs(out.data - probs).max() < tol
    _check_stats(net, CN_WEIGHTS, stats, mode, tol)


@pytest.mark.parametrize("mode", ["eval", "online"])
@pytest.mark.parametrize("dtype, tol", [(np.float64, FLOAT64_TOL),
                                        (np.float32, FLOAT32_TOL)])
def test_attention_branch_matches_oracle(va_want, mode, dtype, tol):
    image, attention, stats = va_want
    net = _va(dtype)
    out = net.forward(image.astype(dtype), train=(mode == "online"))
    assert out.dtype == dtype
    assert np.abs(out.data - attention).max() < tol
    _check_stats(net, VA_WEIGHTS, stats, mode, tol)


@pytest.mark.parametrize("mode", ["eval", "online"])
def test_float32_gradients_match_float64(mode):
    r = VA_KWARGS["resolution"]
    image = _image((r, r), 5)
    grads = []
    for dtype in (np.float64, np.float32):
        cn, va = _cn(dtype), _va(dtype)
        _, _, score = full_forward(cn, va, image.astype(dtype),
                                   train=(mode == "online"))
        cross_entropy(score.y_hat, 2).backward()
        grads.append({f"{tag}.{name}": t.grad
                      for tag, net in (("cn", cn), ("va", va))
                      for name, t in net.parameters().items()})
    want, got = grads
    assert got.keys() == want.keys()
    for name in want:
        scale = np.abs(want[name]).max()
        assert scale > 0.0, name
        assert got[name].dtype == np.float32, name
        assert np.abs(got[name] - want[name]).max() < FLOAT32_GRAD_TOL * scale, name
