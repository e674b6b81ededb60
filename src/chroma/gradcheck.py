"""Central finite-difference verification of every backward rule.

Each check compares the analytic gradient of a scalar loss against
two-sided finite differences in 64-bit mode and reports the max
relative error. Probe points are chosen generic (ReLU pre-activations
away from their kink, no max-pool ties), since finite differences are
only meaningful where the function is locally smooth. Layer ops must
agree within 1e-4; the end-to-end micro network (9x9 input, three
classes, every parameter probed) within 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chroma.modulation import aggregate_scores, modulate, rms_normalize
from chroma.networks import CnNet, VaNet, full_forward, masked_nll_loss
from chroma.tensor import (
    BN_EPSILON,
    RunningStats,
    Tensor,
    batchnorm,
    channel_softmax,
    conv1x1_batchnorm,
    conv1x1_concat,
    conv2d,
    cross_entropy,
    deconv2d,
    finite_diff_check,
    fully_connected,
    global_avgpool,
    maxpool2d,
    relu,
    reshape,
    tensor_sum,
    vector_softmax,
)

__all__ = ["CheckResult", "run_suite", "OP_TOLERANCE", "END_TO_END_TOLERANCE"]

OP_TOLERANCE = 1e-4
END_TO_END_TOLERANCE = 1e-3


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _op_checks() -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(1234)
    results = []

    x = Tensor(rng.normal(size=(5, 5, 2)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 3, 2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    conv_loss = lambda: tensor_sum(relu(conv2d(x, k, b, stride=2, padding=1)))
    for name, wrt in (("conv2d/input", x), ("conv2d/kernel", k),
                      ("conv2d/bias", b)):
        results.append((name, finite_diff_check(conv_loss, wrt), OP_TOLERANCE))

    xd = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    kd = Tensor(rng.normal(size=(3, 3, 3, 2)), requires_grad=True)
    deconv_loss = lambda: tensor_sum(relu(deconv2d(xd, kd, stride=2)))
    for name, wrt in (("deconv2d/input", xd), ("deconv2d/kernel", kd)):
        results.append((name, finite_diff_check(deconv_loss, wrt), OP_TOLERANCE))

    xp = Tensor(rng.normal(size=(7, 7, 2)), requires_grad=True)
    results.append(("maxpool2d/input",
                    finite_diff_check(lambda: tensor_sum(maxpool2d(xp, 3, 2)), xp),
                    OP_TOLERANCE))
    xpc = Tensor(rng.normal(size=(6, 6, 2)), requires_grad=True)
    results.append(("maxpool2d_ceil/input",
                    finite_diff_check(lambda: tensor_sum(maxpool2d(xpc, 3, 2)),
                                      xpc), OP_TOLERANCE))

    xa = Tensor(rng.normal(size=(4, 5, 3)), requires_grad=True)
    results.append(("global_avgpool/input",
                    finite_diff_check(
                        lambda: cross_entropy(vector_softmax(global_avgpool(xa)), 1),
                        xa), OP_TOLERANCE))

    xb = Tensor(rng.normal(size=(4, 4, 3)), requires_grad=True)
    gamma = Tensor(rng.normal(size=3) + 1.5, requires_grad=True)
    beta = Tensor(rng.normal(size=3) + 0.5, requires_grad=True)
    # every probe normalizes by the same statistics: online mode folds
    # the input's statistics into the copy it is given
    bn_stats = RunningStats(np.array([0.3, -0.2, 0.1]), np.array([1.5, 0.6, 2.0]))
    # batchnorm rectifies: keep its pre-activations away from the kink
    bn_scale = gamma.data / np.sqrt(bn_stats.var + BN_EPSILON)
    pre = (xb.data - bn_stats.mean) * bn_scale + beta.data
    pre = np.where(np.abs(pre) < 0.2, np.copysign(0.5, pre), pre)
    xb.data[...] = (pre - beta.data) / bn_scale + bn_stats.mean

    def bn_loss():
        return tensor_sum(batchnorm(xb, gamma, beta, bn_stats.copy(),
                                    mode="online"))

    for name, wrt in (("batchnorm/input", xb), ("batchnorm/gamma", gamma),
                      ("batchnorm/beta", beta)):
        results.append((name, finite_diff_check(bn_loss, wrt), OP_TOLERANCE))

    crng = np.random.default_rng(1235)  # its own: the other probes keep their draws
    xc = Tensor(crng.normal(size=(4, 4, 4)), requires_grad=True)
    kc = Tensor(crng.normal(size=(1, 1, 4, 3)), requires_grad=True)
    bc = Tensor(crng.normal(size=3), requires_grad=True)
    gc = Tensor(crng.normal(size=3) + 1.5, requires_grad=True)
    betac = Tensor(crng.normal(size=3) + 0.5, requires_grad=True)
    c_stats = RunningStats(np.array([0.2, -0.4, 0.3]), np.array([0.8, 1.2, 2.5]))
    # solve for inputs whose pre-activations are drawn at least 0.2 off
    # the kink: the 1x1 conv must output ``conv_out`` at every pixel
    pre = crng.normal(size=(4, 4, 3))
    pre = np.where(np.abs(pre) < 0.2, np.copysign(0.5, pre), pre)
    c_scale = gc.data / np.sqrt(c_stats.var + BN_EPSILON)
    conv_out = (pre - betac.data) / c_scale + c_stats.mean
    kmat = kc.data.reshape(4, 3)
    xc.data += (conv_out - bc.data - xc.data @ kmat) @ np.linalg.pinv(kmat)

    for mode in ("eval", "online"):
        def conv_bn_loss(mode=mode):
            return tensor_sum(conv1x1_batchnorm(xc, kc, bc, gc, betac,
                                                c_stats.copy(), mode=mode))

        for name, wrt in (("input", xc), ("kernel", kc), ("bias", bc),
                          ("gamma", gc), ("beta", betac)):
            results.append((f"conv1x1_batchnorm_{mode}/{name}",
                            finite_diff_check(conv_bn_loss, wrt), OP_TOLERANCE))

    vals = rng.normal(size=(4, 4, 2))
    vals[np.abs(vals) < 0.2] = 0.7  # keep the probe away from the kink
    xr = Tensor(vals, requires_grad=True)
    results.append(("relu/input",
                    finite_diff_check(lambda: tensor_sum(relu(xr)), xr),
                    OP_TOLERANCE))

    xs = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
    wmix = Tensor(rng.normal(size=(1, 1, 4, 1)))

    def softmax_loss():
        return tensor_sum(conv2d(channel_softmax(xs), wmix, Tensor(np.zeros(1))))

    results.append(("channel_softmax/input",
                    finite_diff_check(softmax_loss, xs), OP_TOLERANCE))

    xv = Tensor(rng.normal(size=6), requires_grad=True)
    results.append(("vector_softmax+cross_entropy/input",
                    finite_diff_check(
                        lambda: cross_entropy(vector_softmax(xv), 2), xv),
                    OP_TOLERANCE))

    ha = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
    hb = Tensor(rng.normal(size=(3, 3, 3)), requires_grad=True)
    hk = Tensor(rng.normal(size=(1, 1, 5, 2)), requires_grad=True)
    hbias = Tensor(rng.normal(size=2), requires_grad=True)

    def head_loss():
        return tensor_sum(relu(conv1x1_concat(ha, hb, hk, hbias)))

    for name, wrt in (("conv1x1_concat/a", ha), ("conv1x1_concat/b", hb),
                      ("conv1x1_concat/kernel", hk), ("conv1x1_concat/bias", hbias)):
        results.append((name, finite_diff_check(head_loss, wrt), OP_TOLERANCE))

    xf = Tensor(rng.normal(size=5), requires_grad=True)
    wf = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    bf = Tensor(rng.normal(size=3), requires_grad=True)

    def fc_loss(x=xf):
        out = reshape(fully_connected(x, wf, bf), (-1,))
        return cross_entropy(vector_softmax(out), 0)

    for name, wrt in (("fully_connected/input", xf), ("fully_connected/weights", wf),
                      ("fully_connected/bias", bf)):
        results.append((name, finite_diff_check(fc_loss, wrt), OP_TOLERANCE))
    xrows = Tensor(np.random.default_rng(1236).normal(size=(2, 5)))  # own draws
    results.append(("fully_connected_rows/weights",
                    finite_diff_check(lambda: fc_loss(xrows), wf), OP_TOLERANCE))

    ym = Tensor(rng.uniform(0.1, 1.0, size=(4, 4, 3)), requires_grad=True)
    am = Tensor(rng.uniform(0.1, 1.0, size=(4, 4)), requires_grad=True)

    def mod_loss():
        return cross_entropy(aggregate_scores(modulate(ym, am)).y_hat, 1)

    for name, wrt in (("modulate/scores", ym), ("modulate/attention", am)):
        results.append((name, finite_diff_check(mod_loss, wrt), OP_TOLERANCE))

    xn = Tensor(rng.uniform(0.1, 1.0, size=(4, 4)), requires_grad=True)
    feats_n = Tensor(rng.uniform(0.1, 1.0, size=(4, 4, 3)))

    def rms_loss():
        return cross_entropy(aggregate_scores(
            modulate(feats_n, rms_normalize(xn))).y_hat, 1)

    results.append(("rms_normalize/input",
                    finite_diff_check(rms_loss, xn), OP_TOLERANCE))

    probs = rng.dirichlet(np.ones(4), size=(5, 5))
    ymap = Tensor(probs, requires_grad=True)
    mask = (rng.uniform(size=(5, 5)) > 0.4).astype(np.uint8)
    results.append(("masked_nll_loss/map",
                    finite_diff_check(
                        lambda: masked_nll_loss(ymap, mask, 2),
                        ymap), OP_TOLERANCE))
    return results


def _end_to_end_check() -> tuple[str, float, float]:
    rng = np.random.default_rng(99)
    cn = CnNet(num_classes=3, width=4, seed=7)
    cn.parameters()["head.conv.w"].data[...] = rng.normal(
        scale=0.3, size=cn.parameters()["head.conv.w"].shape)
    va = VaNet(resolution=9, stages=2, channels=(3, 4), fc_width=12,
               bottleneck_channels=2, dec_channels=(3, 2), seed=8)
    for net in (cn, va):
        for name, p in net.parameters().items():
            if name.endswith(".beta"):
                p.data[...] = 0.25
    va.parameters()["head.conv.b"].data[...] = 0.3
    image = rng.uniform(size=(9, 9, 3))

    def loss():
        _, _, score = full_forward(cn, va, image)
        return cross_entropy(score.y_hat, 1)

    worst = 0.0
    for net in (cn, va):
        for p in net.parameters().values():
            worst = max(worst, finite_diff_check(loss, p))
    return ("end_to_end_micro_network", worst, END_TO_END_TOLERANCE)


def run_suite() -> list[CheckResult]:
    """Run every gradient check; deterministic and CPU-cheap."""
    rows = _op_checks()
    rows.append(_end_to_end_check())
    return [CheckResult(name=n, max_rel_error=e, tolerance=t)
            for n, e, t in rows]
