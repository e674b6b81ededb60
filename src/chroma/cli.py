"""Command-line entry point.

Subcommands: ``synth`` (generate a dataset), ``train`` (pretrain plus
alternating training, with checkpoints), ``eval`` (metrics for a
checkpoint on a dataset), ``infer`` (attention heatmap, per-pixel name
map, and score text for one image), ``gradcheck`` (finite-difference
verification of every backward rule).

Exit codes are a stable contract: 0 success, 1 check failure, 2 I/O
error, 3 training divergence, 4 config/vocabulary mismatch. Every
command is deterministic given its config and seed; set
``CHROMA_THREADS=1`` (before launch) for fully deterministic byte
output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from chroma.config import ConfigError, RunConfig, format_kv
from chroma.data import (
    load_eval_dataset,
    load_weak_dataset,
    per_class_counts,
    resize_bilinear,
    synth_generate,
    write_dataset,
)
from chroma.gradcheck import run_suite
# nothing here calls modulate_op: perfbench's tracer self-test
# (perfbench/test_perfbench.py) asserts that this module binds it
from chroma.modulation import modulate as modulate_op  # noqa: F401
from chroma.netpbm import read_ppm, write_ppm
from chroma.networks import full_forward
from chroma.tensor import no_grad
from chroma.training import (
    DivergenceError,
    TrainLog,
    alternating_train,
    build_networks,
    evaluate_model,
    load_model,
    pretrain_cn,
    save_model,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_IO = 2
EXIT_DIVERGENCE = 3
EXIT_CONFIG = 4


def heatmap_colormap() -> np.ndarray:
    """Fixed 256-entry dark-blue to yellow colormap (uint8 RGB)."""
    t = np.arange(256, dtype=np.float64) / 255.0
    lo = np.array([0.0, 0.0, 128.0])
    hi = np.array([255.0, 255.0, 0.0])
    return np.rint(lo + t[:, None] * (hi - lo)).astype(np.uint8)


def render_heatmap(values: np.ndarray) -> np.ndarray:
    """Min-max normalize a map and render it through the colormap."""
    v = np.asarray(values, dtype=np.float64)
    spread = v.max() - v.min()
    if spread > 0:
        idx = np.rint((v - v.min()) / spread * 255.0).astype(np.int64)
    else:
        idx = np.zeros(v.shape, dtype=np.int64)
    return heatmap_colormap()[idx]


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = RunConfig.from_file(args.config)
    else:
        cfg = RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "ablation", None):
        cfg.ablation = args.ablation
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    cfg.validate()
    return cfg


def _check_dataset_vocabulary(root: Path, vocab_names) -> None:
    found = set()
    for split in ("train", "val", "test"):
        split_dir = root / split
        if split_dir.is_dir():
            found.update(p.name for p in split_dir.iterdir() if p.is_dir())
    unknown = sorted(found - set(vocab_names))
    if unknown:
        raise ConfigError(f"dataset classes {unknown} are not in the "
                          f"vocabulary {list(vocab_names)}")


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    synth = cfg.synth_config()
    try:
        synth.validate()
    except ValueError as exc:  # the generator settings come from the config
        raise ConfigError(str(exc)) from exc
    weak, test = synth_generate(synth, cfg.n_per_class)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(out, weak, test, synth)
    vocab = cfg.vocab()
    print(f"wrote synthetic dataset to {out}")
    for split, samples in (("train", weak["train"]), ("val", weak["val"]),
                           ("test", test)):
        counts = per_class_counts(samples, vocab)
        print(f"  {split}: {len(samples)} images "
              f"({', '.join(f'{k}={v}' for k, v in counts.items())})")
    return EXIT_OK


def _train_counters(stage: str, phase_index: int, epoch: int,
                    last_loss: float) -> dict:
    return {"stage": stage, "phase_index": phase_index,
            "global_epoch": epoch, "last_phase_loss": last_loss}


def cmd_train(args) -> int:
    cfg = _load_config(args)
    if not cfg.dataset_root:
        raise ConfigError("config must set dataset_root")
    vocab = cfg.vocab()
    root = Path(cfg.dataset_root)
    _check_dataset_vocabulary(root, vocab.names)
    splits = load_weak_dataset(root, vocab)
    if not splits["train"]:
        raise ConfigError(f"no training images under {root}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    start_phase, start_epoch, last_loss = 0, 0, float("nan")
    pretrained = False
    if getattr(args, "checkpoint", None):
        cn, va, ckpt_cfg, counters = load_model(args.checkpoint)
        if ckpt_cfg.vocab().names != vocab.names:
            raise ConfigError("checkpoint vocabulary does not match the dataset")
        # a resumed run trains the checkpoint's model
        for key in ("seed", "ablation"):
            flag, saved = getattr(args, key), getattr(ckpt_cfg, key)
            if flag is not None and flag != saved:
                raise ConfigError(f"--{key} {flag} differs from the "
                                  f"checkpoint's {key} {saved}")
        cfg = ckpt_cfg
        stage = counters.get("stage", "pretrained")
        pretrained = True
        start_phase = int(counters.get("phase_index", 0))
        start_epoch = int(counters.get("global_epoch", 0))
        last_loss = float(counters.get("last_phase_loss", "nan"))
        if stage == "final":
            start_phase = max(start_phase, cfg.max_phases)
    else:
        cn, va = build_networks(cfg, len(vocab))

    log = TrainLog()
    try:
        if not pretrained:
            log, start_epoch = pretrain_cn(
                cn, splits["train"], cfg, val_samples=splits["val"], log=log)
            save_model(out / "pretrain.ckpt", cn, va, cfg,
                       _train_counters("pretrained", 0, start_epoch,
                                       float("nan")))

        def on_phase_end(phase_idx, phase, loss, epoch):
            nonlocal last_loss
            last_loss = loss
            save_model(out / f"phase_{phase_idx:02d}.ckpt", cn, va, cfg,
                       _train_counters("alternating", phase_idx + 1, epoch,
                                       loss))

        log, end_epoch = alternating_train(
            cn, va, splits["train"], cfg, val_samples=splits["val"],
            log=log, start_epoch=start_epoch,
            start_phase=start_phase, prev_phase_loss=last_loss,
            on_phase_end=on_phase_end)
    except DivergenceError as exc:
        (out / "trainlog.txt").write_text(exc.log.as_table())
        (out / "trainlog.kv").write_text(exc.log.as_kv())
        raise
    save_model(out / "final.ckpt", cn, va, cfg,
               _train_counters("final", cfg.max_phases, end_epoch, last_loss))
    (out / "trainlog.txt").write_text(log.as_table())
    (out / "trainlog.kv").write_text(log.as_kv())
    print(f"training complete: {len(log.records)} epochs, checkpoints in {out}")
    if log.records:
        print(f"final val image accuracy: "
              f"{log.records[-1].val_image_accuracy:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if not args.checkpoint:
        raise ConfigError("eval requires --checkpoint")
    cn, va, ckpt_cfg, _ = load_model(args.checkpoint)
    cfg = _load_config(args) if args.config else ckpt_cfg
    dataset_root = cfg.dataset_root or ckpt_cfg.dataset_root
    if not dataset_root:
        raise ConfigError("no dataset_root in config or checkpoint")
    vocab = ckpt_cfg.vocab()
    root = Path(dataset_root)
    _check_dataset_vocabulary(root, vocab.names)
    # a test split without any mask is weakly labeled; one with some
    # masks must have them all (a missing one is an I/O error)
    if any((root / "test").glob("*/*.mask.pgm")):
        samples = load_eval_dataset(root, vocab)
    else:
        samples = load_weak_dataset(root, vocab)["test"]
    if not samples:
        raise ConfigError(f"no test images under {root}")
    metrics = evaluate_model(cn, va, samples, ckpt_cfg.resolution)
    out = Path(getattr(args, "out", None) or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = format_kv({k: repr(v) if isinstance(v, float) else v
                      for k, v in metrics.items()})
    (out / "metrics.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


def cmd_infer(args) -> int:
    if not args.checkpoint:
        raise ConfigError("infer requires --checkpoint")
    cn, va, cfg, _ = load_model(args.checkpoint)
    vocab = cfg.vocab()
    image = read_ppm(args.image)
    res = cfg.resolution
    if image.shape[:2] != (res, res):
        image = np.clip(resize_bilinear(image, res, res), 0.0, 1.0)
    image = image.astype(np.float32)
    with no_grad():
        y, attention, score = full_forward(cn, va, image)
    attention_values = (np.ones((res, res)) if attention is None
                        else attention.data)
    out = Path(getattr(args, "out", None) or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_ppm(out / "attention.ppm", render_heatmap(attention_values))
    anchors = np.asarray(vocab.anchors, dtype=np.uint8)
    write_ppm(out / "color_names.ppm", anchors[np.argmax(y.data, axis=2)])
    probs = score.probabilities()
    predicted = vocab.names[int(np.argmax(probs))]
    lines = [f"predicted = {predicted}"]
    for name, p in zip(vocab.names, probs):
        lines.append(f"p.{name} = {p:.6f}")
    (out / "prediction.txt").write_text("\n".join(lines) + "\n")
    print(f"predicted color name: {predicted}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_suite()
    failures = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<40} max rel err {r.max_rel_error:.3e} "
              f"(tolerance {r.tolerance:g})")
        if not r.passed:
            failures.append(r.name)
    if failures:
        print(f"gradient check FAILED for: {', '.join(failures)}")
        return EXIT_CHECK_FAILURE
    print(f"all {len(results)} gradient checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chroma",
        description="Weakly supervised color naming with visual attention")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True, checkpoint=False):
        if config:
            p.add_argument("--config", help="key = value config file")
        if checkpoint:
            p.add_argument("--checkpoint", help="checkpoint file")
        p.add_argument("--out", help="output directory")

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    add_common(synth)
    synth.set_defaults(func=cmd_synth)

    train = sub.add_parser("train", help="pretrain and alternately train")
    add_common(train, checkpoint=True)
    train.set_defaults(func=cmd_train)

    # eval and infer take the model, its seed and ablation included, from
    # the checkpoint
    for p in (synth, train):
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--ablation", choices=RunConfig.ABLATIONS,
                       help="ablation switch")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    add_common(p, checkpoint=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="run one image through a checkpoint")
    p.add_argument("image", help="input PPM image")
    add_common(p, config=False, checkpoint=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
