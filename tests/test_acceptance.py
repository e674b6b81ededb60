"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run pytest with -s or check the captured output).

The paper-scale headline numbers are not reproducible at desk scale
(those need the original web-scraped datasets and a pretrained
backbone), so acceptance is property-based plus scaled synthetic
experiments: gradient correctness, oracle equivalence, normalization
and gating invariants, and end-to-end behavior of the full pipeline on
deterministic synthetic data.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from chroma.cli import EXIT_OK, main
from chroma.config import parse_kv_text
from chroma.gradcheck import run_suite
from chroma.modulation import aggregate_scores, modulate
from chroma.networks import masked_nll_loss
from chroma.tensor import Tensor, conv2d, channel_softmax, deconv2d, maxpool2d, \
    tensor_sum
from chroma.training import load_model

from oracles import conv2d_loops, deconv2d_loops, maxpool2d_loops


def report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:2d} {status}: {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# shared trained artifacts


DEFAULT_CFG = """
dataset_root = {root}
out_dir = {out}
"""

REDUCED_CFG = """
dataset_root = {root}
out_dir = {out}
resolution = 32
image_size = 32
cn_width = 24
va_stages = 2
va_channels = 8,16
va_fc_width = 128
va_bottleneck_channels = 4
va_dec_channels = 12,8
cn_batch_size = 24
va_batch_size = 6
pretrain_epochs = 8
phase_epochs = 3
max_phases = 6
n_per_class = 16
clutter_patches = 8
distractors = 1
seed = {seed}
"""


def _run_pipeline(base: Path, cfg_text: str) -> dict:
    """synth + train + eval through the CLI; returns parsed metrics."""
    base.mkdir(parents=True, exist_ok=True)
    cfg_path = base / "run.cfg"
    cfg_path.write_text(cfg_text)
    root = parse_kv_text(cfg_text)["dataset_root"]
    assert main(["synth", "--config", str(cfg_path), "--out", root]) == EXIT_OK
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
    out = Path(parse_kv_text(cfg_text)["out_dir"])
    assert main(["eval", "--checkpoint", str(out / "final.ckpt"),
                 "--out", str(out / "eval")]) == EXIT_OK
    raw = parse_kv_text((out / "eval" / "metrics.txt").read_text())
    return {k: float(v) for k, v in raw.items()}


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """Criterion 6's full default pipeline; reused by criteria 8 and 9."""
    base = tmp_path_factory.mktemp("default_run")
    cfg_text = DEFAULT_CFG.format(root=base / "data", out=base / "run")
    start = time.perf_counter()
    metrics = _run_pipeline(base, cfg_text)
    elapsed = time.perf_counter() - start
    return {"metrics": metrics, "elapsed": elapsed, "out": base / "run"}


# ---------------------------------------------------------------------------
# criteria


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        start = time.perf_counter()
        results = run_suite()
        elapsed = time.perf_counter() - start
        failures = [r.name for r in results if not r.passed]
        worst = max(r.max_rel_error / r.tolerance for r in results)
        report(1, "every backward rule matches central finite differences "
                  "and the suite runs in under two minutes",
               not failures and elapsed < 120.0,
               f"{len(results)} checks, worst err/tol {worst:.2e}, "
               f"{elapsed:.1f}s")


class TestCriterion2ModulationBackwardRules:
    def test_literal_identities(self):
        rng = np.random.default_rng(0)
        y = Tensor(rng.uniform(size=(7, 9, 5)), requires_grad=True)
        a = Tensor(rng.uniform(size=(7, 9)), requires_grad=True)
        tensor_sum(modulate(y, a)).backward()
        channels_ok = all(
            np.array_equal(y.grad[:, :, k], a.data) for k in range(5))
        attention_ok = np.array_equal(a.grad, y.data.sum(axis=2))
        report(2, "with all-ones upstream, grad(Y_k) == A and "
                  "grad(A) == sum_k Y_k, bitwise",
               channels_ok and attention_ok)


class TestCriterion3OracleEquivalence:
    def test_conv_deconv_maxpool_against_loop_oracles(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        cases = 0
        for _ in range(100):
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            h = int(rng.integers(max(1, k - 2 * pad), 9))
            w = int(rng.integers(max(1, k - 2 * pad), 9))
            if h + 2 * pad < k or w + 2 * pad < k:
                continue
            x = rng.normal(size=(h, w, cin))
            kern = rng.normal(size=(k, k, cin, cout))
            bias = rng.normal(size=cout)
            got = conv2d(Tensor(x), Tensor(kern), Tensor(bias), stride=stride,
                         padding=pad).data
            want = conv2d_loops(x, kern, bias, stride=stride, padding=pad)
            worst = max(worst, float(np.abs(got - want).max()))

            kern_d = rng.normal(size=(k, k, cout, cin))
            got = deconv2d(Tensor(x), Tensor(kern_d), stride=stride).data
            want = deconv2d_loops(x, kern_d, stride=stride)
            worst = max(worst, float(np.abs(got - want).max()))

            if h >= k and w >= k:
                got = maxpool2d(Tensor(x), k, stride).data
                want = maxpool2d_loops(x, k, stride)
                worst = max(worst, float(np.abs(got - want).max()))
            cases += 1
        report(3, "conv2d/deconv2d/maxpool2d match nested-loop oracles on "
                  "100+ random shapes within 1e-6",
               cases >= 100 and worst < 1e-6,
               f"{cases} shape triples, worst abs err {worst:.2e}")

    def test_deconv_equals_conv_input_adjoint(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            steps_h = int(rng.integers(1, 4))
            steps_w = int(rng.integers(1, 4))
            h = k + stride * steps_h  # exact geometry: (h - k) % stride == 0
            w = k + stride * steps_w
            x = Tensor(rng.normal(size=(h, w, cin)), requires_grad=True)
            kern = rng.normal(size=(k, k, cin, cout))
            out = conv2d(x, Tensor(kern), Tensor(np.zeros(cout)), stride=stride)
            upstream = rng.normal(size=out.shape)
            out._backward_fn(upstream)
            via_deconv = deconv2d(Tensor(upstream), Tensor(kern),
                                  stride=stride).data
            worst = max(worst, float(np.abs(x.grad - via_deconv).max()))
        report(3, "deconv2d forward equals the conv2d input-adjoint within "
                  "1e-6", worst < 1e-6, f"worst abs err {worst:.2e}")


class TestCriterion4NormalizationInvariants:
    def test_softmax_fibers_and_scores_sum_to_one(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            h, w, c = rng.integers(1, 7), rng.integers(1, 7), rng.integers(2, 12)
            x = rng.normal(scale=4.0, size=(int(h), int(w), int(c)))
            fibers = channel_softmax(Tensor(x)).data.sum(axis=2)
            worst = max(worst, float(np.abs(fibers - 1.0).max()))
            y_hat = aggregate_scores(Tensor(x)).y_hat.data
            worst = max(worst, abs(float(y_hat.sum()) - 1.0))
        report(4, "softmax fibers and aggregated scores sum to 1 +- 1e-6 on "
                  "1000 random inputs", worst < 1e-6,
               f"worst deviation {worst:.2e}")


class TestCriterion5MaskedLossGating:
    def test_masked_out_pixels_change_nothing(self):
        rng = np.random.default_rng(4)
        changed = 0.0
        for _ in range(20):
            probs = rng.dirichlet(np.ones(6), size=(8, 8))
            mask = (rng.uniform(size=(8, 8)) > 0.6).astype(np.uint8)
            if not mask.any():
                mask[0, 0] = 1
            base = masked_nll_loss(Tensor(probs), mask, 2).item()
            perturbed = probs.copy()
            off = ~mask.astype(bool)
            perturbed[off] = rng.dirichlet(np.ones(6), size=int(off.sum()))
            after = masked_nll_loss(Tensor(perturbed), mask, 2).item()
            changed = max(changed, abs(after - base))
        report(5, "perturbing mask-0 pixels changes the masked loss by "
                  "exactly zero", changed == 0.0)


@pytest.mark.slow
class TestCriterion6SyntheticEndToEnd:
    def test_full_pipeline_reaches_accuracy_in_budget(self, default_run):
        m = default_run["metrics"]
        elapsed = default_run["elapsed"]
        ok = (m["image_accuracy"] >= 0.90 and m["pixel_accuracy"] >= 0.85
              and elapsed <= 900.0)
        report(6, "default synthetic pipeline: image accuracy >= 0.90, "
                  "pixel accuracy >= 0.85, runtime <= 15 min",
               ok, f"image {m['image_accuracy']:.4f}, pixel "
                   f"{m['pixel_accuracy']:.4f}, {elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion7AblationOrdering:
    def test_attention_and_alternation_help(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("ablations")
        seeds = (11, 12, 13)
        accs = {"none": [], "no-alternation": [], "no-attention": []}
        for seed in seeds:
            data_root = base / f"data_{seed}"
            cfg_text = REDUCED_CFG.format(root=data_root,
                                          out=base / f"run_{seed}", seed=seed)
            cfg_path = base / f"cfg_{seed}.cfg"
            cfg_path.write_text(cfg_text)
            assert main(["synth", "--config", str(cfg_path), "--out",
                         str(data_root)]) == EXIT_OK
            for ablation in accs:
                out = base / f"run_{seed}_{ablation}"
                assert main(["train", "--config", str(cfg_path), "--ablation",
                             ablation, "--out", str(out)]) == EXIT_OK
                assert main(["eval", "--checkpoint", str(out / "final.ckpt"),
                             "--out", str(out / "eval")]) == EXIT_OK
                raw = parse_kv_text((out / "eval" / "metrics.txt").read_text())
                accs[ablation].append(float(raw["image_accuracy"]))
        full = float(np.mean(accs["none"]))
        no_alt = float(np.mean(accs["no-alternation"]))
        no_attn = float(np.mean(accs["no-attention"]))
        ok = full >= no_alt >= no_attn and (full - no_attn) >= 0.05
        report(7, "mean over 3 seeds: full >= no-alternation >= no-attention "
                  "with full - no-attention >= 5 points",
               ok, f"full {full:.3f}, no-alt {no_alt:.3f}, "
                   f"no-attn {no_attn:.3f}")


@pytest.mark.slow
class TestCriterion8AttentionLocalization:
    def test_trained_attention_concentrates_on_objects(self, default_run):
        m = default_run["metrics"]
        ok = (m["attention_ratio_ge_2_fraction"] >= 0.80
              and m["attention_mean_iou"] >= 0.30)
        report(8, "inside/outside attention ratio >= 2 on >= 80% of test "
                  "images and mean IoU >= 0.3",
               ok, f"ratio>=2 on {m['attention_ratio_ge_2_fraction']:.0%}, "
                   f"mean IoU {m['attention_mean_iou']:.3f}")


@pytest.mark.slow
class TestCriterion9SpatialPrior:
    def test_learned_prior_centers_and_no_prior_hurts_off_center(
            self, default_run, tmp_path_factory):
        cn, va, cfg, _ = load_model(default_run["out"] / "final.ckpt")
        kernel = va.parameters()["prior.kernel"].data.astype(np.float64)
        weights = np.maximum(kernel, 0.0)
        total = weights.sum()
        k = kernel.shape[0]
        ys, xs = np.mgrid[0:k, 0:k]
        cy = float((weights * ys).sum() / total)
        cx = float((weights * xs).sum() / total)
        lo, hi = 0.25 * (k - 1), 0.75 * (k - 1)
        centered = lo <= cy <= hi and lo <= cx <= hi

        base = tmp_path_factory.mktemp("prior_variant")
        results = {}
        for ablation in ("none", "no-prior"):
            cfg_text = REDUCED_CFG.format(root=base / "data",
                                          out=base / f"run_{ablation}",
                                          seed=21)
            cfg_text = cfg_text.replace("distractors = 1", "distractors = 2")
            cfg_path = base / f"{ablation}.cfg"
            cfg_path.write_text(cfg_text)
            if ablation == "none":
                assert main(["synth", "--config", str(cfg_path), "--out",
                             str(base / "data")]) == EXIT_OK
            out = base / f"run_{ablation}"
            assert main(["train", "--config", str(cfg_path), "--ablation",
                         ablation, "--out", str(out)]) == EXIT_OK
            assert main(["eval", "--checkpoint", str(out / "final.ckpt"),
                         "--out", str(out / "eval")]) == EXIT_OK
            raw = parse_kv_text((out / "eval" / "metrics.txt").read_text())
            results[ablation] = float(raw["image_accuracy"])
        margin = results["none"] - results["no-prior"]
        # the accuracy margin is reported, not thresholded
        report(9, "learned prior's center of mass lies in the central box; "
                  "no-prior margin on the distractor variant is reported",
               centered,
               f"CoM ({cy:.2f}, {cx:.2f}) on a {k}x{k} grid; full "
               f"{results['none']:.3f} vs no-prior {results['no-prior']:.3f}, "
               f"margin {margin:+.3f}")


@pytest.mark.slow
class TestCriterion10Determinism:
    def test_byte_identical_runs_and_round_trip(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("determinism")
        cfg_text = REDUCED_CFG.format(root=base / "data", out=base / "unused",
                                      seed=31)
        cfg_text = cfg_text.replace("pretrain_epochs = 8", "pretrain_epochs = 2")
        cfg_text = cfg_text.replace("max_phases = 6", "max_phases = 2")
        cfg_text = cfg_text.replace("phase_epochs = 3", "phase_epochs = 1")
        cfg_text = cfg_text.replace("n_per_class = 16", "n_per_class = 6")
        cfg_path = base / "det.cfg"
        cfg_path.write_text(cfg_text)
        assert main(["synth", "--config", str(cfg_path), "--out",
                     str(base / "data")]) == EXIT_OK
        payloads = []
        for sub in ("r1", "r2"):
            out = base / sub
            assert main(["train", "--config", str(cfg_path), "--out",
                         str(out)]) == EXIT_OK
            assert main(["eval", "--checkpoint", str(out / "final.ckpt"),
                         "--out", str(out / "eval")]) == EXIT_OK
            payloads.append(((out / "final.ckpt").read_bytes(),
                             (out / "eval" / "metrics.txt").read_bytes()))
        identical = payloads[0] == payloads[1]

        from chroma.networks import full_forward
        from chroma.tensor import no_grad
        from chroma.training import save_model
        cn, va, cfg, _ = load_model(base / "r1" / "final.ckpt")
        rng = np.random.default_rng(0)
        image = rng.uniform(size=(cfg.resolution, cfg.resolution, 3)) \
            .astype(np.float32)
        with no_grad():
            before = full_forward(cn, va, image)[2].y_hat.data
        save_model(base / "resaved.ckpt", cn, va, cfg)
        cn2, va2, _, _ = load_model(base / "resaved.ckpt")
        with no_grad():
            after = full_forward(cn2, va2, image)[2].y_hat.data
        round_trip = before.tobytes() == after.tobytes()
        report(10, "identical seed/config gives byte-identical checkpoints "
                   "and metrics; checkpoint round-trip forward is "
                   "bit-identical", identical and round_trip)
