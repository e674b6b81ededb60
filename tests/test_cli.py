"""Command-line contracts: subcommands, exit codes, emitted files."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from chroma.cli import EXIT_CHECK_FAILURE, EXIT_CONFIG, EXIT_IO, EXIT_OK, \
    heatmap_colormap, main, render_heatmap
from chroma.config import RunConfig
from chroma.data import GENERATOR_LIMITS, GENERATOR_MAX_BYTES
from chroma.netpbm import read_ppm, write_ppm


TINY_CFG = """
dataset_root = {root}
out_dir = {out}
resolution = 16
image_size = 16
cn_width = 8
va_stages = 2
va_channels = 4,6
va_fc_width = 24
va_bottleneck_channels = 2
va_dec_channels = 6,4
cn_batch_size = 8
va_batch_size = 4
pretrain_epochs = 2
phase_epochs = 1
max_phases = 2
n_per_class = 4
seed = 2
"""


def _write_cfg(tmp_path, **extra) -> Path:
    text = TINY_CFG.format(root=tmp_path / "data", out=tmp_path / "run")
    lines = {}
    for line in text.splitlines():
        if "=" in line:
            lines[line.split("=")[0].strip()] = line
    for key, value in extra.items():
        lines[key] = f"{key} = {value}"
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines.values()) + "\n")
    return path


@pytest.fixture()
def synthed(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["synth", "--config", str(cfg), "--out",
                 str(tmp_path / "data")]) == EXIT_OK
    return tmp_path, cfg


class TestSynthCommand:
    def test_writes_layout_and_manifest(self, synthed):
        tmp_path, _ = synthed
        data = tmp_path / "data"
        assert (data / "manifest.txt").exists()
        manifest = (data / "manifest.txt").read_text()
        assert "seed = 2" in manifest
        assert sorted(p.name for p in (data / "train").iterdir()) == \
            ["blue", "green", "orange", "purple", "red", "yellow"]
        masks = list((data / "test").rglob("*.mask.pgm"))
        assert masks, "test split must carry ground-truth masks"

    def test_same_config_twice_identical_bytes(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        for sub in ("d1", "d2"):
            assert main(["synth", "--config", str(cfg), "--out",
                         str(tmp_path / sub)]) == EXIT_OK
        a = sorted((tmp_path / "d1").rglob("*.*"))
        b = sorted((tmp_path / "d2").rglob("*.*"))
        assert [f.name for f in a] == [f.name for f in b]
        for fa, fb in zip(a, b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_zero_images_is_config_error_and_writes_nothing(self, tmp_path):
        cfg = _write_cfg(tmp_path, n_per_class=0)
        out = tmp_path / "empty_out"
        assert main(["synth", "--config", str(cfg), "--out",
                     str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no_such_key = 5\n")
        assert main(["synth", "--config", str(bad)]) == EXIT_CONFIG

    def test_inverted_scale_range_is_config_error(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, scale_min=0.9, scale_max=0.1)
        out = tmp_path / "inverted"
        assert main(["synth", "--config", str(cfg), "--out",
                     str(out)]) == EXIT_CONFIG
        assert "scale_range (0.9, 0.1) out of bounds" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("key", ["clutter_patches", "distractors"])
    def test_negative_object_count_is_config_error(self, tmp_path, capsys, key):
        cfg = _write_cfg(tmp_path, **{key: -2})
        out = tmp_path / "negative"
        assert main(["synth", "--config", str(cfg), "--out",
                     str(out)]) == EXIT_CONFIG
        assert f"error: {key} must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(GENERATOR_LIMITS))
    def test_work_sizing_key_above_its_bound_is_config_error(self, tmp_path,
                                                             capsys, key):
        limit = GENERATOR_LIMITS[key]
        cfg = _write_cfg(tmp_path, **{key: limit + 1})
        out = tmp_path / "huge"
        assert main(["synth", "--config", str(cfg), "--out",
                     str(out)]) == EXIT_CONFIG
        assert f"error: {key} must be at most {limit}" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_above_the_size_bound_is_config_error_before_allocating(
            self, tmp_path, capsys, monkeypatch):
        import tracemalloc

        import chroma.data

        def render(*args):
            raise AssertionError("rendered a sample of an oversized dataset")

        # six classes at 512 px: 65 images per class fit, 66 do not
        estimate = lambda n: 1.75 * 6 * n * 512 ** 2 * 24
        assert estimate(65) <= GENERATOR_MAX_BYTES < estimate(66)
        monkeypatch.setattr(chroma.data, "_render_sample", render)
        cfg = _write_cfg(tmp_path, image_size=512, n_per_class=66)
        out = tmp_path / "huge"
        tracemalloc.start()
        try:
            code = main(["synth", "--config", str(cfg), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert "GiB bound" in capsys.readouterr().err
        assert peak < 2**26
        assert not out.exists()


class TestTrainCommand:
    def test_tiny_run_completes_and_writes_artifacts(self, synthed):
        tmp_path, cfg = synthed
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        run = tmp_path / "run"
        for name in ("pretrain.ckpt", "phase_00.ckpt", "phase_01.ckpt",
                     "final.ckpt", "trainlog.txt", "trainlog.kv"):
            assert (run / name).exists(), name
        table = (run / "trainlog.txt").read_text()
        assert "PRETRAIN" in table and "VA" in table and "CN" in table

    def test_resume_from_final_changes_nothing(self, synthed):
        tmp_path, cfg = synthed
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        final = tmp_path / "run" / "final.ckpt"
        before = final.read_bytes()
        assert main(["train", "--config", str(cfg), "--checkpoint",
                     str(final)]) == EXIT_OK
        assert final.read_bytes() == before

    def test_no_dataset_sample_stays_alive_while_training(self, synthed,
                                                          monkeypatch):
        # training reads only the staged float32 stacks, so every phase
        # runs with as many WeakSample objects alive as before the command
        import gc

        from chroma import training
        from chroma.data import WeakSample

        def live_samples() -> int:
            gc.collect()
            return sum(issubclass(type(o), WeakSample) for o in gc.get_objects())

        counts = []
        real_run_phase = training._run_phase

        def counting(*args, **kwargs):
            counts.append(live_samples())
            return real_run_phase(*args, **kwargs)

        monkeypatch.setattr(training, "_run_phase", counting)
        tmp_path, cfg = synthed
        pretrain = tmp_path / "run" / "pretrain.ckpt"
        for argv, n_phases in ((["train", "--config", str(cfg)], 3),
                               (["train", "--config", str(cfg), "--checkpoint",
                                 str(pretrain), "--out", str(tmp_path / "re")],
                                2)):
            counts.clear()
            before = live_samples()
            assert main(argv) == EXIT_OK
            assert counts == [before] * n_phases, argv

    def test_resume_rejects_a_seed_or_ablation_the_checkpoint_lacks(
            self, synthed, capsys):
        tmp_path, cfg = synthed
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        final = tmp_path / "run" / "final.ckpt"
        before = final.read_bytes()
        resume = ["train", "--config", str(cfg), "--checkpoint", str(final)]
        for flag, message in (
                (["--seed", "99"], "--seed 99 differs from the checkpoint's seed 2"),
                (["--ablation", "no-attention"], "--ablation no-attention "
                 "differs from the checkpoint's ablation none")):
            capsys.readouterr()
            assert main(resume + flag) == EXIT_CONFIG
            assert message in capsys.readouterr().err
        # the checkpoint's own values are accepted
        assert main(resume + ["--seed", "2", "--ablation", "none"]) == EXIT_OK
        assert final.read_bytes() == before

    def test_resume_with_a_different_schedule_is_exit_4(self, tmp_path,
                                                         capsys):
        # a run of 3 phases cannot be resumed as a run of 5
        cfg = _write_cfg(tmp_path, max_phases=3, convergence_tol=0)
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "data")]) == EXIT_OK
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        final = (tmp_path / "run" / "final.ckpt").read_bytes()
        cfg = _write_cfg(tmp_path, max_phases=5, convergence_tol="inf")
        out = tmp_path / "resumed"
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--checkpoint",
                     str(tmp_path / "run" / "phase_00.ckpt"), "--out",
                     str(out)]) == EXIT_CONFIG
        assert ("error: max_phases 5 differs from the checkpoint's "
                "max_phases 3") in capsys.readouterr().err
        assert not out.exists()
        assert (tmp_path / "run" / "final.ckpt").read_bytes() == final

    @pytest.mark.parametrize("key, value, message", [
        ("learning_rate", 0.02, "learning_rate 0.02 differs from the "
         "checkpoint's learning_rate 0.01"),
        ("lr_decay_epochs", 7, "lr_decay_epochs 7 differs from the "
         "checkpoint's lr_decay_epochs 20"),
        ("momentum", 0.5, "momentum 0.5 differs from the checkpoint's "
         "momentum 0.9"),
        ("cn_batch_size", 4, "cn_batch_size 4 differs from the checkpoint's "
         "cn_batch_size 8"),
        ("va_batch_size", 2, "va_batch_size 2 differs from the checkpoint's "
         "va_batch_size 4"),
        ("pretrain_epochs", 3, "pretrain_epochs 3 differs from the "
         "checkpoint's pretrain_epochs 2"),
        ("phase_epochs", 2, "phase_epochs 2 differs from the checkpoint's "
         "phase_epochs 1"),
        ("max_phases", 4, "max_phases 4 differs from the checkpoint's "
         "max_phases 2"),
        ("convergence_tol", "inf", "convergence_tol inf differs from the "
         "checkpoint's convergence_tol 0.001"),
    ])
    def test_resume_rejects_each_schedule_key_the_checkpoint_lacks(
            self, synthed, fresh_checkpoint, capsys, key, value, message):
        tmp_path, _ = synthed
        path, _ = fresh_checkpoint
        cfg = _write_cfg(tmp_path, **{key: value})
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--checkpoint",
                     str(path)]) == EXIT_CONFIG
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_checkpoint_with_a_stage_counter_resumes_alike(self, synthed):
        # files from older writers carry resume.stage, which nothing reads
        from chroma.checkpoint import read_checkpoint, write_checkpoint
        tmp_path, cfg = synthed
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        run = tmp_path / "run"
        ckpt = read_checkpoint(run / "phase_00.ckpt")
        assert "resume.stage" not in ckpt.config_text
        legacy = tmp_path / "legacy.ckpt"
        write_checkpoint(legacy, ckpt.vocabulary,
                         ckpt.config_text + "resume.stage = alternating\n",
                         ckpt.params)
        out = tmp_path / "resumed"
        assert main(["train", "--config", str(cfg), "--checkpoint",
                     str(legacy), "--out", str(out)]) == EXIT_OK
        assert (out / "final.ckpt").read_bytes() == \
            (run / "final.ckpt").read_bytes()

    @pytest.mark.parametrize("case, extra, checkpoints", [
        # a zero tolerance never stops by convergence, so all three
        # phase checkpoints exist; resuming from phase_02 has no phase left
        ("none", dict(max_phases=3, convergence_tol=0), 3),
        # an infinite tolerance stops at the first comparison, after
        # phase_01 of 5; resuming from that checkpoint trains no more
        ("none", dict(max_phases=5, convergence_tol="inf"), 2),
        ("no-attention", {}, 2),
        ("no-alternation", dict(max_phases=3, convergence_tol=0), 2),
    ], ids=["every-phase", "converged", "no-attention", "no-alternation"])
    def test_resume_from_any_phase_matches_the_uninterrupted_run(
            self, tmp_path, case, extra, checkpoints):
        cfg = _write_cfg(tmp_path, **extra)
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "data")]) == EXIT_OK
        assert main(["train", "--config", str(cfg), "--ablation",
                     case]) == EXIT_OK
        run = tmp_path / "run"
        phases = [f"phase_{i:02d}.ckpt" for i in range(checkpoints)]
        assert sorted(p.name for p in run.glob("*.ckpt")) == \
            ["final.ckpt"] + phases + ["pretrain.ckpt"]
        final = (run / "final.ckpt").read_bytes()
        log = [line for line in (run / "trainlog.kv").read_text().splitlines()
               if ".wall_time" not in line]
        for name in ["pretrain.ckpt"] + phases:
            out = tmp_path / f"resumed-{name}"
            assert main(["train", "--config", str(cfg), "--checkpoint",
                         str(run / name), "--out", str(out)]) == EXIT_OK
            assert (out / "final.ckpt").read_bytes() == final, name
            tail = [line for line in (out / "trainlog.kv").read_text().splitlines()
                    if line and ".wall_time" not in line]
            assert log[len(log) - len(tail):] == tail, name

    @pytest.mark.parametrize("key, value, what", [
        ("phase_index", "-3", "an integer in [0, 2]"),
        ("phase_index", "3", "an integer in [0, 2]"),
        ("phase_index", "abc", "an integer in [0, 2]"),
        ("phase_index", "1.0", "an integer in [0, 2]"),
        ("global_epoch", "-1", "a non-negative integer"),
        ("global_epoch", "2x", "a non-negative integer"),
        ("last_phase_loss", "abc", "a number"),
    ])
    def test_malformed_resume_counter_is_exit_4_naming_it(
            self, synthed, fresh_checkpoint, capsys, key, value, what):
        from chroma.checkpoint import read_checkpoint, write_checkpoint
        tmp_path, cfg = synthed
        path, _ = fresh_checkpoint
        ckpt = read_checkpoint(path)
        write_checkpoint(path, ckpt.vocabulary,
                         ckpt.config_text + f"resume.{key} = {value}\n",
                         ckpt.params)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--checkpoint",
                     str(path)]) == EXIT_CONFIG
        assert (f"error: checkpoint counter resume.{key} = {value} is not "
                f"{what}") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_no_attention_model_is_the_color_branch_alone(self, synthed):
        from chroma.checkpoint import read_checkpoint, write_checkpoint
        from chroma.config import RunConfig
        from chroma.training import build_networks
        tmp_path, cfg = synthed
        run = tmp_path / "abl"
        assert main(["train", "--config", str(cfg), "--ablation",
                     "no-attention", "--out", str(run)]) == EXIT_OK
        table = (run / "trainlog.txt").read_text()
        assert "CN" in table and "VA" not in table
        ckpt = read_checkpoint(run / "final.ckpt")
        assert ckpt.params and all(k.startswith("cn.") for k in ckpt.params)
        # files from older writers also carry an untrained attention
        # branch; it is ignored
        _, va = build_networks(RunConfig.from_file(cfg), len(ckpt.vocabulary))
        records = dict(ckpt.params)
        records.update({f"va.{k}": p.data for k, p in va.parameters().items()})
        for k, s in va.stats().items():
            records[f"va.stat.{k}.mean"] = s.mean
            records[f"va.stat.{k}.var"] = s.var
        legacy = tmp_path / "legacy.ckpt"
        write_checkpoint(legacy, ckpt.vocabulary, ckpt.config_text, records)
        image = next((tmp_path / "data" / "test" / "red").glob("*.ppm"))
        for ckpt_path, out in ((run / "final.ckpt", tmp_path / "new"),
                               (legacy, tmp_path / "old")):
            assert main(["eval", "--checkpoint", str(ckpt_path),
                         "--out", str(out)]) == EXIT_OK
            assert main(["infer", str(image), "--checkpoint", str(ckpt_path),
                         "--out", str(out)]) == EXIT_OK
        for name in ("metrics.txt", "prediction.txt", "attention.ppm",
                     "color_names.ppm"):
            assert (tmp_path / "new" / name).read_bytes() == \
                (tmp_path / "old" / name).read_bytes(), name

    def test_infinite_convergence_tol_is_accepted(self):
        # it means "stop at the first comparison"
        from chroma.config import RunConfig
        assert RunConfig.from_text("convergence_tol = inf\n").convergence_tol \
            == float("inf")

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_unknown_class_folder_is_exit_4_naming_it(self, synthed, capsys,
                                                      split):
        tmp_path, cfg = synthed
        rogue = tmp_path / "data" / split / "mauve"
        rogue.mkdir()
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"error: unknown class folder {rogue}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_dataset_root_is_config_error(self, tmp_path):
        cfg = tmp_path / "nodataset.cfg"
        cfg.write_text("out_dir = x\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("key, value, message", [
        ("learning_rate", "0", "learning_rate must be positive"),
        ("learning_rate", "-0.5", "learning_rate must be positive"),
        ("momentum", "1.0", "momentum must lie in [0, 1)"),
        ("momentum", "1.5", "momentum must lie in [0, 1)"),
        ("momentum", "-0.1", "momentum must lie in [0, 1)"),
        ("convergence_tol", "nan", "convergence_tol must be a number"),
        ("learning_rate", "inf", "learning_rate must be finite"),
        ("jitter_sigma", "nan", "jitter_sigma must be a number"),
        ("center_sigma", "inf", "center_sigma must be finite"),
        ("scale_max", "-inf", "scale_max must be finite"),
        ("resolution", "4", "resolution 4 must exceed 2**va_stages"),
        ("vocabulary", "red", "a vocabulary needs at least two color names"),
        ("vocabulary", ",", "empty vocabulary spec"),
        ("seed", "-1", "seed must be non-negative"),
        ("va_channels", "-4,6", "va_channels widths must be at least 1"),
        ("va_channels", "0,6", "va_channels widths must be at least 1"),
        ("va_dec_channels", "6,-4", "va_dec_channels widths must be at least 1"),
        ("n_per_class", "0", "error: n_per_class must be at least 1"),
        ("n_per_class", "-5", "error: n_per_class must be at least 1"),
    ])
    def test_bad_settings_are_exit_4(self, synthed, capsys, key, value,
                                     message):
        tmp_path, _ = synthed
        cfg = _write_cfg(tmp_path, **{key: value})
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["clutter_patches", "distractors"])
    def test_negative_object_count_is_config_error(self, synthed, capsys, key):
        tmp_path, _ = synthed
        cfg = _write_cfg(tmp_path, **{key: -3})
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"error: {key} must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_smoke_run_completes_within_a_minute(self, tmp_path):
        import time
        cfg = _write_cfg(tmp_path, n_per_class=8)
        start = time.perf_counter()
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "data")]) == EXIT_OK
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        assert time.perf_counter() - start < 60.0

    def test_eval_on_training_set_beats_logged_validation_accuracy(self, tmp_path):
        import shutil
        cfg = _write_cfg(tmp_path, n_per_class=8, pretrain_epochs=6,
                         max_phases=4, phase_epochs=2)
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "data")]) == EXIT_OK
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        kv = (tmp_path / "run" / "trainlog.kv").read_text()
        final_val = float([line.split("=")[1] for line in kv.splitlines()
                           if "val_accuracy" in line][-1])
        # expose the training images as a weak test split
        train_as_test = tmp_path / "tat"
        shutil.copytree(tmp_path / "data" / "train", train_as_test / "test")
        eval_cfg = tmp_path / "tat.cfg"
        eval_cfg.write_text(f"dataset_root = {train_as_test}\n"
                            f"out_dir = {tmp_path / 'tat_eval'}\n")
        assert main(["eval", "--checkpoint",
                     str(tmp_path / "run" / "final.ckpt"),
                     "--config", str(eval_cfg)]) == EXIT_OK
        metrics = (tmp_path / "tat_eval" / "metrics.txt").read_text()
        train_acc = float([line.split("=")[1] for line in metrics.splitlines()
                           if line.startswith("image_accuracy")][0])
        assert train_acc >= final_val


class TestEvalCommand:
    def test_masked_dataset_reports_all_blocks(self, synthed):
        tmp_path, cfg = synthed
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "final.ckpt"),
                     "--out", str(tmp_path / "ev")]) == EXIT_OK
        metrics = (tmp_path / "ev" / "metrics.txt").read_text()
        assert "image_accuracy" in metrics
        assert "pixel_accuracy" in metrics
        assert "attention_mean_iou" in metrics

    def test_weak_only_dataset_omits_pixel_metrics(self, synthed):
        tmp_path, cfg = synthed
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        for mask in (tmp_path / "data" / "test").rglob("*.mask.pgm"):
            mask.unlink()
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "final.ckpt"),
                     "--out", str(tmp_path / "ev2")]) == EXIT_OK
        metrics = (tmp_path / "ev2" / "metrics.txt").read_text()
        assert "image_accuracy" in metrics
        assert "pixel_accuracy" not in metrics

    def test_one_missing_mask_is_exit_2_naming_it(self, synthed,
                                                  fresh_checkpoint, capsys):
        tmp_path, _ = synthed
        path, _ = fresh_checkpoint
        mask = next((tmp_path / "data" / "test" / "red").glob("*.mask.pgm"))
        mask.unlink()
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path),
                     "--out", str(tmp_path / "ev4")]) == EXIT_IO
        assert f"missing mask {mask}" in capsys.readouterr().err
        assert not (tmp_path / "ev4").exists()

    def test_vocabulary_mismatch_is_exit_4(self, synthed, capsys):
        tmp_path, cfg = synthed
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        rogue = tmp_path / "data" / "test" / "mauve"
        rogue.mkdir()
        argv = ["eval", "--checkpoint", str(tmp_path / "run" / "final.ckpt"),
                "--out", str(tmp_path / "ev3")]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        assert f"error: unknown class folder {rogue}" in capsys.readouterr().err
        # a masked dataset's eval reads the test split alone
        rogue.rmdir()
        (tmp_path / "data" / "train" / "mauve").mkdir()
        assert main(argv) == EXIT_OK


class TestInferCommand:
    def test_writes_three_files(self, synthed):
        tmp_path, cfg = synthed
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        image = next((tmp_path / "data" / "test" / "red").glob("*.ppm"))
        out = tmp_path / "inf"
        assert main(["infer", str(image), "--checkpoint",
                     str(tmp_path / "run" / "final.ckpt"), "--out",
                     str(out)]) == EXIT_OK
        assert (out / "attention.ppm").exists()
        assert (out / "color_names.ppm").exists()
        text = (out / "prediction.txt").read_text()
        assert text.startswith("predicted = ")
        probs = [float(line.split("=")[1]) for line in text.splitlines()
                 if line.startswith("p.")]
        assert abs(sum(probs) - 1.0) < 1e-4

    def test_zeroed_attention_head_gives_uniform_dark_blue(self, synthed):
        tmp_path, cfg = synthed
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        from chroma.training import load_model, save_model
        cn, va, run_cfg, _ = load_model(tmp_path / "run" / "final.ckpt")
        va.parameters()["head.conv.w"].data[...] = 0.0
        va.parameters()["head.conv.b"].data[...] = 0.0
        zeroed = tmp_path / "zeroed.ckpt"
        save_model(zeroed, cn, va, run_cfg)
        image = next((tmp_path / "data" / "test" / "blue").glob("*.ppm"))
        out = tmp_path / "inf0"
        assert main(["infer", str(image), "--checkpoint", str(zeroed),
                     "--out", str(out)]) == EXIT_OK
        heat = read_ppm(out / "attention.ppm")
        dark_blue = np.array([0, 0, 128]) / 255.0
        assert np.abs(heat - dark_blue).max() < 1e-9

    def test_oversized_image_header_is_exit_2(self, tmp_path, fresh_checkpoint,
                                              capsys):
        path, _ = fresh_checkpoint
        image = tmp_path / "huge.ppm"
        image.write_bytes(b"P6\n99999999999999999999 1\n255\n")
        assert main(["infer", str(image), "--checkpoint", str(path),
                     "--out", str(tmp_path / "x")]) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_shape_error_is_a_fault_not_exit_2(self, tmp_path, fresh_checkpoint,
                                               monkeypatch):
        # a ShapeError is a ValueError, but it comes from the model code
        import chroma.cli
        from chroma.tensor import ShapeError

        def broken(*args, **kwargs):
            raise ShapeError("broken forward")

        monkeypatch.setattr(chroma.cli, "full_forward", broken)
        path, image = fresh_checkpoint
        with pytest.raises(ShapeError, match="broken forward"):
            main(["infer", str(image), "--checkpoint", str(path),
                  "--out", str(tmp_path / "x")])

    def test_unreadable_image_is_exit_2(self, synthed):
        tmp_path, cfg = synthed
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"garbage")
        assert main(["infer", str(bad), "--checkpoint",
                     str(tmp_path / "run" / "final.ckpt"),
                     "--out", str(tmp_path / "x")]) == EXIT_IO


@pytest.mark.parametrize("argv, flag", [
    *((argv, flag) for argv in (["eval", "--checkpoint", "m.ckpt"],
                                ["infer", "image.ppm", "--checkpoint", "m.ckpt"])
      for flag in (["--seed", "5"], ["--ablation", "no-attention"])),
    (["synth"], ["--ablation", "no-prior"]),
])
def test_eval_and_infer_reject_model_flags(argv, flag, capsys):
    # the model comes from the checkpoint, so these would be ignored; the
    # generator has no ablation
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["eval"], EXIT_CONFIG),
    (["infer", "x.ppm"], EXIT_CONFIG),
    (["train"], EXIT_CONFIG),  # no config, so no dataset_root
    (["train", "--config", "missing.cfg"], EXIT_IO),
    (["eval", "--checkpoint", "a_directory"], EXIT_IO),
    (["infer", "missing.ppm", "--checkpoint", "missing.ckpt"], EXIT_IO),
])
def test_malformed_command_line_is_an_error_line_and_exit_code(
        tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_directory").mkdir()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "a_directory"]


@pytest.fixture()
def fresh_checkpoint(tmp_path):
    """A checkpoint of freshly built tiny networks and one test image."""
    from chroma.config import RunConfig
    from chroma.training import build_networks, save_model
    cfg = RunConfig.from_file(_write_cfg(tmp_path))
    cn, va = build_networks(cfg, len(cfg.vocab()))
    path = tmp_path / "fresh.ckpt"
    save_model(path, cn, va, cfg)
    image = tmp_path / "image.ppm"
    write_ppm(image, np.random.default_rng(0).uniform(size=(16, 16, 3)))
    return path, image


class TestCorruptCheckpoint:
    def _infer(self, tmp_path, ckpt, image) -> int:
        return main(["infer", str(image), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "inf")])

    def test_huge_dimension_is_exit_2(self, tmp_path, fresh_checkpoint, capsys):
        path, image = fresh_checkpoint
        raw = bytearray(path.read_bytes())
        name = b"cn.trunk.conv.w"
        dim = raw.find(name) + len(name) + 4  # skip ndim to the first dim
        raw[dim:dim + 4] = (0x7FFFFFFF).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        assert self._infer(tmp_path, path, image) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("cn.trunk.conv.w", None,
         "error: checkpoint is missing record cn.trunk.conv.w"),
        ("va.fc1.b", np.zeros(3, dtype=np.float32),
         "error: checkpoint record va.fc1.b has shape (3,), expected (24,)"),
        ("va.prior.kernel", np.zeros((3, 3), dtype=np.float32),
         "error: checkpoint record va.prior.kernel has shape (3, 3), "
         "expected (4, 4)"),
        ("va.stat.enc0.bn.var", None,
         "error: checkpoint is missing record va.stat.enc0.bn.var"),
    ])
    def test_records_not_matching_the_networks_are_exit_4(
            self, tmp_path, fresh_checkpoint, capsys, key, value, message):
        from chroma.checkpoint import read_checkpoint, write_checkpoint
        path, image = fresh_checkpoint
        ckpt = read_checkpoint(path)
        records = dict(ckpt.params)
        if value is None:
            del records[key]
        else:
            records[key] = value
        write_checkpoint(path, ckpt.vocabulary, ckpt.config_text, records)
        assert self._infer(tmp_path, path, image) == EXIT_CONFIG
        assert message in capsys.readouterr().err


def test_checkpoint_with_optimizer_records_loads_and_infers(tmp_path,
                                                            fresh_checkpoint):
    # files from older writers carry the learning rate and momentum in
    # the optimizer section; it is read and ignored
    from test_checkpoint import with_optimizer_section

    from chroma.networks import full_forward
    from chroma.tensor import no_grad
    from chroma.training import load_model
    path, image = fresh_checkpoint
    legacy = tmp_path / "legacy.ckpt"
    legacy.write_bytes(with_optimizer_section(path.read_bytes()))
    outputs = []
    for ckpt in (path, legacy):
        cn, va, _, _ = load_model(ckpt)
        with no_grad():
            y, a, score = full_forward(cn, va, read_ppm(image).astype(np.float32))
        outputs.append((y.data.tobytes(), a.data.tobytes(),
                        score.y_hat.data.tobytes()))
        out = tmp_path / f"inf-{ckpt.stem}"
        assert main(["infer", str(image), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == EXIT_OK
    assert outputs[0] == outputs[1]
    for name in ("prediction.txt", "attention.ppm", "color_names.ppm"):
        assert (tmp_path / "inf-fresh" / name).read_bytes() == \
            (tmp_path / "inf-legacy" / name).read_bytes(), name


_SPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_COMMENT = st.binary(max_size=8).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
_JUNK_TOKEN = st.binary(min_size=1, max_size=4).filter(
    lambda t: t[:1] != b"#" and not any(bytes([c]).isspace() for c in t))
_NETPBM_SIZE = (st.integers(1, 3) | st.integers(-2, 2**66)).map(
    lambda n: str(n).encode()) | _JUNK_TOKEN
_NETPBM_MAXVAL = st.just(b"255") | _NETPBM_SIZE


@st.composite
def _netpbm_files(draw):
    """A file built from the P6 header grammar (magic; width, height and
    maxval after whitespace and comment lines; one whitespace byte;
    pixel data), any part of which may be wrong or missing. Returns the
    bytes and whether they form a readable image."""
    magic = b"P6" if draw(st.integers(0, 3)) else draw(
        st.sampled_from([b"P5", b"P3", b"p6"]) | st.binary(max_size=2))
    fields = [draw(_NETPBM_SIZE), draw(_NETPBM_SIZE), draw(_NETPBM_MAXVAL)]
    fields = fields[:draw(st.sampled_from([0, 1, 2, 3, 3, 3]))]
    raw = magic
    for field in fields:
        raw += b"".join(draw(st.lists(_SPACE, min_size=1, max_size=2)))
        for comment in draw(st.lists(_COMMENT, max_size=2)):
            raw += comment + b"".join(draw(st.lists(_SPACE, max_size=2)))
        raw += field
    end = draw(_SPACE | st.just(b"")) if len(fields) == 3 else b""
    payload = draw(st.binary(max_size=60)) if end else b""
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:  # a bad token, or fewer than three
        return raw, False
    readable = (magic == b"P6" and maxval == 255 and width >= 1
                and height >= 1 and len(payload) >= width * height * 3)
    return raw + end + payload, readable


_ANY_VALUE = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)
_TYPED_VALUE = {
    "int": st.integers(-3, 100).map(str),
    "float": st.floats().map(repr),
    "str": st.sampled_from(["", "red", ",", "red,red", "synthetic6", "basic11",
                            "4,6", "0,6", "-4,6", "16,32,64", "rectangle",
                            "ellipse,", "triangle", "none", "no-prior"]),
}


@st.composite
def _config_texts(draw):
    """Up to four ``key = value`` lines, mostly distinct known keys with
    values of their own type, now and then an unknown key or any value,
    and maybe one line of arbitrary text."""
    lines = []
    for field in draw(st.lists(st.sampled_from(dataclasses.fields(RunConfig)),
                               min_size=1, max_size=4,
                               unique_by=lambda f: f.name)):
        key = field.name if draw(st.integers(0, 7)) else draw(st.text(max_size=8))
        value = draw(_TYPED_VALUE[field.type] if draw(st.integers(0, 3))
                     else _ANY_VALUE)
        lines.append(f"{key} = {value}")
    if not draw(st.integers(0, 3)):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=16)))
    return "\n".join(lines)


_FUZZ = settings(max_examples=120, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzzedInputs:
    """Whatever is wrong with an input file, the command prints an
    ``error:`` line and exits 2 or 4; it never raises."""

    @staticmethod
    def _fails_cleanly(capsys, argv) -> str:
        capsys.readouterr()
        assert main([str(a) for a in argv]) in (EXIT_IO, EXIT_CONFIG)
        err = capsys.readouterr().err
        assert "error:" in err
        return err

    @_FUZZ
    @given(image=_netpbm_files())
    def test_netpbm_header_through_infer(self, tmp_path, fresh_checkpoint,
                                         capsys, image):
        raw, readable = image
        assume(not readable)
        path = tmp_path / "fuzz.ppm"
        path.write_bytes(raw)
        err = self._fails_cleanly(capsys, ["infer", path, "--checkpoint",
                                           fresh_checkpoint[0], "--out",
                                           tmp_path / "inf"])
        assert f"error: {path}: " in err
        assert not (tmp_path / "inf").exists()

    @_FUZZ
    @given(text=_config_texts())
    def test_config_text_through_synth(self, tmp_path, capsys, text):
        # the keys that size the work are fixed (setting one again is a
        # duplicate key); a config that passes every check gets as far as
        # creating the output directory, which a file blocks
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_text(f"{text}\nn_per_class = 1\nimage_size = 8\n"
                       "clutter_patches = 1\ndistractors = 1\n",
                       encoding="utf-8")
        blocker = tmp_path / "blocker"
        blocker.touch()
        self._fails_cleanly(capsys, ["synth", "--config", cfg, "--out",
                                     blocker / "data"])

    @_FUZZ
    @given(text=_config_texts())
    def test_config_text_through_train(self, tmp_path, capsys, text):
        # a config that passes every check finds no training images
        empty = tmp_path / "empty"
        empty.mkdir(exist_ok=True)
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_text(f"{text}\ndataset_root = {empty}\n", encoding="utf-8")
        self._fails_cleanly(capsys, ["train", "--config", cfg, "--out",
                                     tmp_path / "run"])
        assert not (tmp_path / "run").exists()


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all 37 gradient checks passed" in out

    def test_corrupted_modulation_backward_is_caught(self, capsys, monkeypatch):
        # negative control: a modulate whose backward rule is wrong
        import chroma.gradcheck
        from chroma.modulation import modulate

        def corrupted(y, attention):
            out = modulate(y, attention)
            right = out._backward_fn
            out._backward_fn = lambda g: right(g + 1.0)
            return out

        monkeypatch.setattr(chroma.gradcheck, "modulate", corrupted)
        assert main(["gradcheck"]) == EXIT_CHECK_FAILURE
        out = capsys.readouterr().out
        assert "modulate" in out and "FAIL" in out


class TestThreadCap:
    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="counts threads through /proc")
    def test_chroma_threads_alone_caps_blas_before_numpy_loads(self):
        import subprocess
        import sys

        import chroma
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
        env["CHROMA_THREADS"] = "1"
        env["PYTHONPATH"] = str(Path(chroma.__file__).parents[1])
        code = ("import os, chroma, numpy as np\n"
                "a = np.ones((300, 300))\n"
                "a @ a\n"
                "print(os.environ['OPENBLAS_NUM_THREADS'], "
                "len(os.listdir('/proc/self/task')))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out == ["1", "1"]


FOOTPRINT_SCRIPT = """
import sys
from pathlib import Path
from chroma.cli import main
cfg, tmp = sys.argv[1], Path(sys.argv[2])
run, data = tmp / "run", tmp / "data"
ckpt = str(run / "final.ckpt")
assert main(["synth", "--config", cfg, "--out", str(data)]) == 0
image = str(sorted((data / "test").rglob("*.ppm"))[0])
assert main(["train", "--config", cfg]) == 0
assert main(["eval", "--checkpoint", ckpt, "--out", str(run / "eval")]) == 0
assert main(["infer", image, "--checkpoint", ckpt,
             "--out", str(run / "infer")]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


class TestFootprint:
    def test_no_scipy_module_loaded_by_any_command(self, tmp_path):
        # a fresh process: this one may have loaded scipy for a cross-check
        import subprocess
        import sys

        import chroma
        cfg = _write_cfg(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(chroma.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, str(cfg),
                              str(tmp_path)], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert (tmp_path / "run" / "pretrain.ckpt").exists()  # saliency ran
        assert out.splitlines()[-1] == "[]"


class TestHeatmap:
    def test_colormap_endpoints(self):
        table = heatmap_colormap()
        assert table.shape == (256, 3)
        assert np.array_equal(table[0], [0, 0, 128])
        assert np.array_equal(table[255], [255, 255, 0])

    def test_constant_map_renders_lowest_entry(self):
        img = render_heatmap(np.zeros((4, 4)))
        assert np.array_equal(img, np.broadcast_to([0, 0, 128], (4, 4, 3)))


class TestDeterminism:
    def test_two_identical_train_runs_byte_identical_outputs(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "data")]) == EXIT_OK
        finals, metrics = [], []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["train", "--config", str(cfg), "--out",
                         str(out)]) == EXIT_OK
            assert main(["eval", "--checkpoint", str(out / "final.ckpt"),
                         "--out", str(out / "ev")]) == EXIT_OK
            finals.append((out / "final.ckpt").read_bytes())
            metrics.append((out / "ev" / "metrics.txt").read_bytes())
        assert finals[0] == finals[1]
        assert metrics[0] == metrics[1]
