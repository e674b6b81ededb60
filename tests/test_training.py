"""Training schedule contracts: pretraining, alternation, freezing,
metrics, and checkpoint persistence."""

import dataclasses
import hashlib

import numpy as np
import pytest

from chroma.checkpoint import read_checkpoint
from chroma.config import ConfigError, RunConfig
from chroma.data import synth_generate
from chroma.modulation import ImageScore
from chroma.networks import full_forward
from chroma.tensor import Tensor, cross_entropy, no_grad
from chroma.training import (
    DivergenceError,
    LocalizationStats,
    StageData,
    attention_localization,
    build_networks,
    evaluate_model,
    image_accuracy,
    load_model,
    lr_at_epoch,
    pixel_accuracy,
    save_model,
    train,
)
from chroma.vocab import get_vocabulary
from probes import branch_digest, phases_seen, state_digest


def _tiny_run_config(**overrides) -> RunConfig:
    base = dict(resolution=16, image_size=16, cn_width=8, va_stages=2,
                va_channels="4,6", va_fc_width=24, va_bottleneck_channels=2,
                va_dec_channels="6,4", cn_batch_size=4, va_batch_size=3,
                pretrain_epochs=2, phase_epochs=1, max_phases=2,
                n_per_class=4, seed=3)
    base.update(overrides)
    return RunConfig(**base)


def _tiny_dataset(cfg: RunConfig, single_class=False):
    weak, test = synth_generate(dataclasses.replace(cfg, clutter_patches=3))
    if single_class:
        for split in weak:
            weak[split] = [s for s in weak[split] if s.label == 0]
        test = [s for s in test if s.label == 0]
    return weak, test


def _train(cfg, cn, va, samples, out):
    """Stage ``samples`` and train without a validation split."""
    return train(cn, va, StageData.prepare(cfg, samples, []), cfg, out)


def _counters(path) -> dict:
    return load_model(path)[3]


class TestLrSchedule:
    def test_decay_by_ten_every_twenty_epochs(self):
        assert lr_at_epoch(0.01, 0) == 0.01
        assert lr_at_epoch(0.01, 19) == 0.01
        assert abs(lr_at_epoch(0.01, 20) - 0.001) < 1e-15
        assert abs(lr_at_epoch(0.01, 45) - 1e-4) < 1e-15

    def test_trainlog_records_the_schedule(self, tmp_path):
        cfg = _tiny_run_config(pretrain_epochs=3, lr_decay_epochs=2,
                               max_phases=1)
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        log = _train(cfg, cn, va, weak["train"], tmp_path)
        assert _counters(tmp_path / "pretrain.ckpt")["global_epoch"] == "3"
        pretrain = [r for r in log.records if r.phase == "PRETRAIN"]
        assert len(pretrain) == 3
        for rec in pretrain:
            want = lr_at_epoch(cfg.learning_rate, rec.epoch, cfg.lr_decay_epochs)
            assert rec.learning_rate == want


class TestPretrain:
    def test_single_class_degenerate_converges(self, tmp_path):
        cfg = _tiny_run_config(pretrain_epochs=12, n_per_class=6, seed=5,
                               max_phases=1)
        weak, _ = _tiny_dataset(cfg, single_class=True)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        cfg.cn_batch_size = min(cfg.cn_batch_size, len(weak["train"]))
        log = _train(cfg, cn, va, weak["train"], tmp_path)
        pretrain = [r for r in log.records if r.phase == "PRETRAIN"]
        assert pretrain[-1].mean_loss < 0.1
        from chroma.saliency import binarize, compute_saliency
        sample = weak["train"][0]
        mask = binarize(compute_saliency(sample.image)).astype(bool)
        cn, _, _, _ = load_model(tmp_path / "pretrain.ckpt")
        with no_grad():
            y = cn.forward(sample.image.astype(np.float32))
        assert (np.argmax(y.data, axis=2)[mask] == 0).mean() > 0.95

    def test_zero_jitter_pretraining_reaches_99_percent_masked_pixels(
            self, tmp_path):
        # pure anchor-colored objects: the color branch alone must nail
        # the ground-truth-masked pixels after at most 20 epochs
        cfg = _tiny_run_config(resolution=32, image_size=32, cn_width=16,
                               pretrain_epochs=20, cn_batch_size=16,
                               n_per_class=12, jitter_sigma=0.0, seed=7,
                               max_phases=1)
        weak, test = synth_generate(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        _train(cfg, cn, va, weak["train"], tmp_path)
        cn, _, _, _ = load_model(tmp_path / "pretrain.ckpt")
        accs, centers_ok = [], 0
        with no_grad():
            for s in test:
                y = cn.forward(s.image.astype(np.float32))
                accs.append(pixel_accuracy(y, s.mask,
                                           np.full(s.mask.shape, s.label)))
                ys, xs = np.nonzero(s.mask)
                cy, cx = int(ys.mean()), int(xs.mean())
                centers_ok += np.argmax(y.data, axis=2)[cy, cx] == s.label
        assert np.mean(accs) >= 0.99
        # object centers decode to the generator label on nearly all images
        assert centers_ok >= 0.95 * len(test)

    def test_rerun_with_same_seed_is_bit_identical(self, tmp_path):
        cfg = _tiny_run_config()
        weak, _ = _tiny_dataset(cfg)
        logs = []
        for name in ("a", "b"):
            cn, va = build_networks(cfg, len(cfg.vocab()))
            log = _train(cfg, cn, va, weak["train"], tmp_path / name)
            logs.append(log)
        # EpochRecord equality ignores wall time by construction
        assert logs[0].records == logs[1].records
        for name in ("pretrain.ckpt", "final.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_all_epochs_tagged_pretrain(self, tmp_path):
        cfg = _tiny_run_config()
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        log = _train(cfg, cn, va, weak["train"], tmp_path)
        # the pretraining epochs come first, and only they
        assert phases_seen(log) == ["PRETRAIN", "VA", "CN"]
        assert [r.phase for r in log.records[:cfg.pretrain_epochs]] == \
            ["PRETRAIN"] * cfg.pretrain_epochs

    def test_batch_larger_than_dataset_rejected(self, tmp_path):
        cfg = _tiny_run_config(n_per_class=1, cn_batch_size=64)
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        with pytest.raises(ConfigError, match="batch"):
            _train(cfg, cn, va, weak["train"], tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_divergence_restores_last_good_state(self, tmp_path, monkeypatch):
        # bounded losses make organic NaN nearly impossible here, so
        # inject a non-finite loss and verify the abort/restore contract
        cfg = _tiny_run_config(pretrain_epochs=5)
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))

        import chroma.training as training_mod
        real_loss = training_mod.masked_nll_loss
        calls = {"n": 0}

        def poisoned(y, mask, label):
            calls["n"] += 1
            if calls["n"] == len(weak["train"]) + 2:  # second epoch
                return Tensor(np.asarray(np.nan, dtype=np.float32))
            return real_loss(y, mask, label)

        monkeypatch.setattr(training_mod, "masked_nll_loss", poisoned)
        with pytest.raises(DivergenceError, match="pretraining diverged at "
                                                  "epoch 1"):
            _train(cfg, cn, va, weak["train"], tmp_path)
        # the log of the first, completed epoch is written; no checkpoint is
        kv = (tmp_path / "trainlog.kv").read_text()
        assert "epoch.0.phase = PRETRAIN" in kv and "epoch.1." not in kv
        assert len((tmp_path / "trainlog.txt").read_text().splitlines()) == 2
        assert not list(tmp_path.glob("*.ckpt"))
        for p in cn.parameters().values():
            assert np.isfinite(p.data).all()


class TestAlternatingTrain:
    def test_infinite_tolerance_stops_after_va_then_cn(self, tmp_path):
        cfg = _tiny_run_config(max_phases=10, convergence_tol=float("inf"))
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        log = _train(cfg, cn, va, weak["train"], tmp_path)
        assert phases_seen(log) == ["PRETRAIN", "VA", "CN"]
        assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == [
            "final.ckpt", "phase_00.ckpt", "phase_01.ckpt", "pretrain.ckpt"]
        # the converged phase leaves no phase to resume
        assert _counters(tmp_path / "phase_00.ckpt")["phase_index"] == "1"
        assert _counters(tmp_path / "phase_01.ckpt")["phase_index"] == "10"

    def test_frozen_branch_is_bit_identical_through_the_phase(self, tmp_path):
        cfg = _tiny_run_config(max_phases=1)
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        _train(cfg, cn, va, weak["train"], tmp_path)
        before, after = tmp_path / "pretrain.ckpt", tmp_path / "phase_00.ckpt"
        # the first phase trains VA only: CN must be untouched, VA must move
        assert branch_digest(after, "cn") == branch_digest(before, "cn")
        assert branch_digest(after, "va") != branch_digest(before, "va")

    def test_cn_phase_freezes_va(self, tmp_path):
        cfg = _tiny_run_config(max_phases=2, convergence_tol=0.0)
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        log = _train(cfg, cn, va, weak["train"], tmp_path)
        assert phases_seen(log) == ["PRETRAIN", "VA", "CN"]
        va_end, cn_end = tmp_path / "phase_00.ckpt", tmp_path / "phase_01.ckpt"
        # VA records after its own phase must survive the CN phase untouched
        assert branch_digest(cn_end, "va") == branch_digest(va_end, "va")
        # CN records must change during its phase
        assert branch_digest(cn_end, "cn") != branch_digest(va_end, "cn")

    def test_a_phase_gives_gradients_to_its_own_branch_only(self, tmp_path,
                                                             monkeypatch):
        import chroma.training as training_mod
        cfg = _tiny_run_config(max_phases=2, convergence_tol=0.0)
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        real_step = training_mod.sgd_step
        with_grad = {}

        def probe(params, opt):
            stepped = {name.split(".")[0] for name in params}
            for net, branch in ((cn, "cn"), (va, "va")):
                with_grad.setdefault((frozenset(stepped), branch), set()).update(
                    p.grad is not None for p in net.parameters().values())
            real_step(params, opt)
            for net in (cn, va):
                for p in net.parameters().values():
                    p.grad = None

        monkeypatch.setattr(training_mod, "sgd_step", probe)
        _train(cfg, cn, va, weak["train"], tmp_path)
        # pretraining and the CN phase step cn, the VA phase steps va
        assert with_grad == {(frozenset({"va"}), "va"): {True},
                             (frozenset({"va"}), "cn"): {False},
                             (frozenset({"cn"}), "cn"): {True},
                             (frozenset({"cn"}), "va"): {False}}

    @pytest.mark.parametrize("phase, ablation", [
        ("PRETRAIN", "none"), ("VA", "none"), ("CN", "none"),
        ("JOINT", "no-alternation"), ("CN", "no-attention")])
    def test_cached_validation_equals_the_uncached_value(self, phase, ablation,
                                                         monkeypatch):
        from chroma.networks import CnNet, VaNet, image_score
        from chroma.training import TrainLog, _cache_forward, _run_phase
        cfg = _tiny_run_config(n_per_class=8, phase_epochs=2, ablation=ablation)
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        model_va = None if phase == "PRETRAIN" else va
        data = StageData.prepare(cfg, weak["train"], weak["val"])
        trained = {"PRETRAIN": [cn], "VA": [va], "CN": [cn],
                   "JOINT": [cn, va]}[phase]
        untrained = [net for net in (cn, va)
                     if net is not None and net not in trained]
        before = [_cache_forward(net, data.val_images) for net in untrained]
        calls = {"n": 0}
        for cls in (CnNet, VaNet):
            def counting(net, *args, _real=cls.forward, **kwargs):
                calls["n"] += net in untrained
                return _real(net, *args, **kwargs)
            monkeypatch.setattr(cls, "forward", counting)
        log = TrainLog()
        next_epoch, phase_loss = _run_phase(cfg, data, log, phase, cn,
                                            model_va, 0, 0)
        monkeypatch.undo()
        assert next_epoch == len(log.records)
        assert phase_loss == np.mean([r.mean_loss for r in log.records])
        # a frozen branch runs once over the training and once over the
        # validation images: per image (the color branch) or per stack
        # (the attention branch); nothing else runs it
        expected = {"VA": len(data.images) + len(data.val_images),
                    "CN": 2 if model_va is not None else 0}.get(phase, 0)
        assert calls["n"] == expected
        after = [_cache_forward(net, data.val_images) for net in untrained]
        assert [[t.data.tobytes() for t in out] for out in after] == \
            [[t.data.tobytes() for t in out] for out in before]
        colors = _cache_forward(cn, data.val_images)
        maps = _cache_forward(model_va, data.val_images)
        with no_grad():
            uncached = image_accuracy([image_score(y, a) for y, a
                                       in zip(colors, maps)], data.val_labels)
        assert [r.epoch for r in log.records] == list(range(
            cfg.pretrain_epochs if phase == "PRETRAIN" else cfg.phase_epochs))
        assert log.records[-1].val_image_accuracy == uncached

    def test_no_attention_ablation_runs_cn_only(self, tmp_path):
        cfg = _tiny_run_config(ablation="no-attention", max_phases=2,
                               convergence_tol=0.0)
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        assert va is None
        log = _train(cfg, cn, va, weak["train"], tmp_path)
        assert phases_seen(log) == ["PRETRAIN", "CN"]
        assert sum(r.phase == "CN" for r in log.records) == 2

    def test_joint_ablation_trains_both(self, tmp_path):
        cfg = _tiny_run_config(ablation="no-alternation", max_phases=1)
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        log = _train(cfg, cn, va, weak["train"], tmp_path)
        assert phases_seen(log) == ["PRETRAIN", "JOINT"]
        before, after = tmp_path / "pretrain.ckpt", tmp_path / "phase_00.ckpt"
        assert branch_digest(after, "cn") != branch_digest(before, "cn")
        assert branch_digest(after, "va") != branch_digest(before, "va")

    def test_log_epochs_monotone_and_lr_counter_spans_phases(self, tmp_path):
        cfg = _tiny_run_config(max_phases=4, convergence_tol=0.0,
                               pretrain_epochs=3, lr_decay_epochs=2)
        weak, _ = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        log = _train(cfg, cn, va, weak["train"], tmp_path)
        epochs = [r.epoch for r in log.records]
        assert epochs == list(range(len(epochs)))
        for rec in log.records:
            # the schedule counter is stage-local: pretraining counts
            # from zero, and one counter spans all alternation phases
            stage_epoch = (rec.epoch if rec.phase == "PRETRAIN"
                           else rec.epoch - cfg.pretrain_epochs)
            assert rec.learning_rate == lr_at_epoch(
                cfg.learning_rate, stage_epoch, cfg.lr_decay_epochs)
        phase_records = [r for r in log.records if r.phase != "PRETRAIN"]
        assert phase_records[2].learning_rate < phase_records[0].learning_rate


class TestAttentionScale:
    def test_attention_gain_is_neither_temperature_nor_step_size(self):
        # scaling the rectified head by c scales the raw map by c; the
        # image score and the gradient reaching the color branch must
        # depend on where the attention sits, not on that gain
        cfg = _tiny_run_config()
        weak, _ = _tiny_dataset(cfg)
        image = weak["train"][0].image.astype(np.float32)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        rng = np.random.default_rng(0)
        head = cn.parameters()["head.conv.w"]
        head.data[...] = rng.normal(scale=0.5, size=head.shape)
        va_w, va_b = (va.parameters()[k] for k in ("head.conv.w",
                                                   "head.conv.b"))
        w0 = va_w.data.copy()
        results = []
        for gain in (1e-3, 1.0, 1e3):
            va_w.data[...] = w0 * gain
            va_b.data[...] = 0.05 * gain
            head.grad = None
            _, attention, score = full_forward(cn, va, image)
            cross_entropy(score.y_hat, weak["train"][0].label).backward()
            a = attention.data.astype(np.float64)
            results.append((score.y_hat.data.copy(), head.grad.copy(),
                            float(np.sqrt(np.mean(a * a)))))
        for y_hat, grad, _ in results[1:]:
            assert np.allclose(y_hat, results[0][0], rtol=1e-4, atol=0.0)
            assert np.allclose(grad, results[0][1], rtol=1e-3, atol=1e-9)
        # the scale convention: the attention map has unit root mean square
        for _, _, rms in results:
            assert abs(rms - 1.0) < 1e-5

    def test_first_attention_updates_keep_the_map_shaped(self, tmp_path):
        # at the default architecture the untrained decoder, normalizing
        # with the initial (0, 1) batchnorm statistics, emits a raw map
        # near 1e-4; unless a fresh branch's statistics are calibrated
        # first, the first update moves the head bias far past the map's
        # own variation and the unit-RMS map comes out flat
        cfg = RunConfig(n_per_class=2, cn_batch_size=12, pretrain_epochs=1,
                        phase_epochs=1, max_phases=1, seed=4)
        weak, _ = synth_generate(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        head = cn.parameters()["head.conv.w"]
        head.data[...] = np.random.default_rng(1).normal(
            scale=0.5, size=head.shape)
        _train(cfg, cn, va, weak["train"], tmp_path)
        with no_grad():
            spreads = [float(va.forward(s.image.astype(np.float32)).data.std())
                       for s in weak["train"]]
        assert min(spreads) > 0.5


class TestMetrics:
    def test_pixel_accuracy_counting(self):
        probs = np.zeros((2, 2, 3))
        probs[0, 0, 1] = 1.0  # correct
        probs[0, 1, 0] = 1.0  # wrong
        probs[1, 0, 1] = 1.0  # correct
        probs[1, 1, 2] = 1.0  # wrong
        y = Tensor(probs)
        gt = np.full((2, 2), 1)
        assert pixel_accuracy(y, np.ones((2, 2)), gt) == 0.5
        assert pixel_accuracy(y, np.array([[1, 0], [1, 0]]), gt) == 1.0
        flipped = np.full((2, 2), 0)
        assert pixel_accuracy(y, np.array([[1, 0], [1, 0]]), flipped) == 0.0

    def test_pixel_accuracy_requires_color_map(self):
        score = ImageScore(Tensor(np.array([0.5, 0.5])))
        with pytest.raises(TypeError):
            pixel_accuracy(score, np.ones((2, 2)), np.zeros((2, 2)))

    def test_pixel_accuracy_rejects_a_score_vector(self):
        with pytest.raises(TypeError):
            pixel_accuracy(Tensor(np.array([0.5, 0.5])), np.ones((2, 2)),
                           np.zeros((2, 2)))

    def test_pixel_accuracy_rejects_empty_mask(self):
        y = Tensor(np.full((2, 2, 2), 0.5))
        with pytest.raises(ValueError, match="empty"):
            pixel_accuracy(y, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_image_accuracy_counting(self):
        def score(idx, c=4):
            p = np.full(c, 0.1)
            p[idx] = 0.7
            return ImageScore(Tensor(p))

        preds = [score(0), score(1), score(2), score(2)]
        assert image_accuracy(preds, [0, 1, 2, 2]) == 1.0
        assert image_accuracy(preds, [1, 0, 3, 3]) == 0.0
        assert image_accuracy(preds, [0, 1, 2, 3]) == 0.75
        with pytest.raises(ValueError):
            image_accuracy([], [])

    def test_attention_localization_perfect_match(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[1:3, 1:3] = 1
        a = Tensor(mask.astype(np.float64))
        stats = attention_localization(a, mask)
        assert stats.iou_at_mean_threshold == 1.0
        assert stats.outside_mean == 0.0
        assert stats.inside_mean == 1.0

    def test_attention_localization_constant_map(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[0, 0] = 1
        a = Tensor(np.full((4, 4), 0.7))
        stats = attention_localization(a, mask)
        assert abs(stats.inside_mean - stats.outside_mean) < 1e-12

    def test_all_zero_attention_concentrates_on_nothing(self):
        # a dead head (A == 0 everywhere) has inside == outside == 0; it
        # must not count as an infinite inside/outside ratio
        cfg = _tiny_run_config()
        _, test = _tiny_dataset(cfg)
        cn, va = build_networks(cfg, len(cfg.vocab()))
        va.parameters()["head.conv.w"].data[...] = 0.0
        va.parameters()["head.conv.b"].data[...] = 0.0
        metrics = evaluate_model(cn, va, test, cfg.resolution)
        assert metrics["attention_inside_mean"] == 0.0
        assert metrics["attention_outside_mean"] == 0.0
        assert metrics["attention_ratio_ge_2_fraction"] == 0.0

    def test_attention_localization_rejects_degenerate_masks(self):
        a = Tensor(np.ones((4, 4)))
        with pytest.raises(ValueError):
            attention_localization(a, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            attention_localization(a, np.ones((4, 4)))


class TestEvaluateModel:
    def _count_cn_passes(self, monkeypatch, cfg, samples):
        from chroma.networks import CnNet
        cn, va = build_networks(cfg, len(cfg.vocab()))
        calls = {"n": 0}
        real = CnNet.forward

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(CnNet, "forward", counting)
        metrics = evaluate_model(cn, va, samples, cfg.resolution)
        return cn, metrics, calls["n"]

    def test_one_color_pass_at_training_resolution(self, monkeypatch):
        cfg = _tiny_run_config()
        _, test = _tiny_dataset(cfg)
        assert test and all(s.image.shape[:2] == (16, 16) for s in test)
        cn, metrics, passes = self._count_cn_passes(monkeypatch, cfg, test)
        assert passes == len(test)
        # the pixel accuracy a separate native-size pass gives
        with no_grad():
            want = np.mean([pixel_accuracy(
                cn.forward(s.image.astype(np.float32)), s.mask,
                np.full(s.mask.shape, s.label)) for s in test])
        assert metrics["pixel_accuracy"] == float(want)

    def test_native_pass_when_sizes_differ(self, monkeypatch):
        cfg = _tiny_run_config(image_size=24)
        _, test = _tiny_dataset(cfg)
        _, _, passes = self._count_cn_passes(monkeypatch, cfg, test)
        assert passes == 2 * len(test)


class TestPersistence:
    def test_round_trip_forward_is_bit_identical(self, tmp_path):
        cfg = _tiny_run_config(vocabulary="synthetic6")
        cn, va = build_networks(cfg, len(cfg.vocab()))
        rng = np.random.default_rng(0)
        image = rng.uniform(size=(16, 16, 3)).astype(np.float32)
        with no_grad():
            _, _, before = full_forward(cn, va, image)
        path = tmp_path / "model.ckpt"
        save_model(path, cn, va, cfg)
        cn2, va2, cfg2, counters = load_model(path)
        assert cfg2.resolution == cfg.resolution and counters == {}
        with no_grad():
            _, _, after = full_forward(cn2, va2, image)
        assert before.y_hat.data.tobytes() == after.y_hat.data.tobytes()

    def test_fresh_default_build_is_pinned(self):
        cfg = RunConfig()
        cn, va = build_networks(cfg, len(cfg.vocab()))
        assert state_digest(cn).hex() == (
            "46b72a56843530c4aa0ccd7caf0c8890e4cee0c7f99ba1dc1e174375cb91c4c2")
        assert state_digest(va).hex() == (
            "e57797a2a8140deab00113d60c5add45a2b09c3d62c745b99424bc4689db4c13")

    def test_record_layout_is_pinned(self, tmp_path):
        # every record written is read back, in the order the networks'
        # state() lays out: parameters, then statistics
        for ablation in RunConfig.ABLATIONS:
            cfg = _tiny_run_config(ablation=ablation)
            cn, va = build_networks(cfg, len(cfg.vocab()))
            path = tmp_path / f"{ablation}.ckpt"
            save_model(path, cn, va, cfg)
            cn, va, _, _ = load_model(path)
            read = list(cn.state()) + (list(va.state()) if va else [])
            assert list(read_checkpoint(path).params) == read, ablation
        cfg = RunConfig()
        save_model(tmp_path / "default.ckpt",
                   *build_networks(cfg, len(cfg.vocab())), cfg)
        names = "\n".join(read_checkpoint(tmp_path / "default.ckpt").params)
        assert hashlib.sha256(names.encode()).hexdigest() == (
            "f5b7da08b48d568d0529e710005496503046a21ef5a09db9733de252dd3bb166")

    def test_loaded_arrays_are_owned_float32_copies(self, tmp_path):
        cfg = _tiny_run_config()
        cn, va = build_networks(cfg, len(cfg.vocab()))
        rng = np.random.default_rng(1)
        for net in (cn, va):  # stand-ins for trained values
            for p in net.parameters().values():
                p.data[...] = rng.normal(size=p.shape)
            for s in net.stats().values():
                s.mean[...] = rng.normal(size=s.mean.shape)
                s.var[...] = rng.uniform(0.5, 2.0, size=s.var.shape)
        path = tmp_path / "model.ckpt"
        save_model(path, cn, va, cfg)
        cn2, va2, _, _ = load_model(path)
        loaded = []
        for saved, net in ((cn, cn2), (va, va2)):
            for name, p in net.parameters().items():
                assert p.data.tobytes() == saved.parameters()[name].data.tobytes()
                assert p.grad is None and p.requires_grad, name
                loaded.append(p.data)
            for name, s in net.stats().items():
                want = saved.stats()[name]
                assert s.mean.tobytes() == want.mean.tobytes(), name
                assert s.var.tobytes() == want.var.tobytes(), name
                loaded += [s.mean, s.var]
        for arr in loaded:
            assert arr.dtype == np.float32 and arr.flags.c_contiguous
            assert arr.flags.writeable and arr.flags.owndata
        for i, a in enumerate(loaded):
            assert not any(np.may_share_memory(a, b) for b in loaded[i + 1:])
        image = rng.uniform(size=(16, 16, 3)).astype(np.float32)
        with no_grad():
            y, a, score = full_forward(cn, va, image)
            y2, a2, score2 = full_forward(cn2, va2, image)
        assert y2.data.tobytes() == y.data.tobytes()
        assert a2.data.tobytes() == a.data.tobytes()
        assert score2.y_hat.data.tobytes() == score.y_hat.data.tobytes()
        nets = (cn, va, cn2, va2)
        # forward passes without gradients allocate none
        assert all(p.grad is None for net in nets
                   for p in net.parameters().values())
        cross_entropy(full_forward(cn2, None, image)[2].y_hat, 0).backward()
        for net in nets:
            for name, p in net.parameters().items():
                assert (p.grad is not None) == (net is cn2), name

    def test_networks_built_from_one_mapping_share_no_array(self, tmp_path):
        cfg = _tiny_run_config()
        path = tmp_path / "model.ckpt"
        save_model(path, *build_networks(cfg, len(cfg.vocab())), cfg)
        records = read_checkpoint(path).params
        ids = {id(a) for a in records.values()}
        first = build_networks(cfg, len(cfg.vocab()), records=records)
        second = build_networks(cfg, len(cfg.vocab()), records=records)
        arrays = [[a for net in nets for a in net.state().values()]
                  for nets in (first, second)]
        # the first build takes the read arrays over, the second copies
        assert {id(a) for a in arrays[0]} <= ids
        assert not {id(a) for a in arrays[1]} & ids
        for a in arrays[0]:
            assert not any(np.may_share_memory(a, b) for b in arrays[1])
        for a, b in zip(*arrays):
            assert a.tobytes() == b.tobytes() and b.flags.writeable

    def test_a_loaded_model_does_not_hold_the_file_buffer(self, tmp_path):
        import tracemalloc
        cfg = RunConfig()
        cn, va = build_networks(cfg, len(cfg.vocab()))
        path = tmp_path / "model.ckpt"
        save_model(path, cn, va, cfg)
        del cn, va
        tracemalloc.start()
        try:
            cn, va, _, _ = load_model(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the parameters and statistics are almost the whole file; a
        # network that kept the read buffer would hold it twice
        assert held < 1.2 * path.stat().st_size

    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch):
        import chroma.networks
        cfg = _tiny_run_config()
        cn, va = build_networks(cfg, len(cfg.vocab()))
        path = tmp_path / "model.ckpt"
        save_model(path, cn, va, cfg)

        def no_draws(*args, **kwargs):
            raise AssertionError("a load must not initialize weights")

        monkeypatch.setattr(chroma.networks, "_xavier", no_draws)
        with pytest.raises(AssertionError, match="must not initialize"):
            build_networks(cfg, len(cfg.vocab()))
        cn2, va2, _, _ = load_model(path)
        assert state_digest(cn2) == state_digest(cn)
        assert state_digest(va2) == state_digest(va)

    def test_counters_round_trip(self, tmp_path):
        cfg = _tiny_run_config()
        cn, va = build_networks(cfg, len(cfg.vocab()))
        path = tmp_path / "model.ckpt"
        save_model(path, cn, va, cfg,
                   counters={"global_epoch": 7, "phase_index": 3,
                             "stage": "final"})
        _, _, _, counters = load_model(path)
        assert counters == {"global_epoch": "7", "phase_index": "3",
                            "stage": "final"}

    def test_saved_files_are_deterministic(self, tmp_path):
        cfg = _tiny_run_config()
        for name in ("a.ckpt", "b.ckpt"):
            cn, va = build_networks(cfg, len(cfg.vocab()))
            save_model(tmp_path / name, cn, va, cfg)
        assert (tmp_path / "a.ckpt").read_bytes() == \
            (tmp_path / "b.ckpt").read_bytes()
