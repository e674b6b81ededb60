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
from chroma.tensor import ShapeError, no_grad
from chroma.training import (
    DivergenceError,
    StageData,
    build_networks,
    evaluate_model,
    load_model,
    train,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_IO = 2
EXIT_DIVERGENCE = 3
EXIT_CONFIG = 4

# the config keys a resumed run must share with its checkpoint
SCHEDULE_KEYS = ("learning_rate", "lr_decay_epochs", "momentum", "cn_batch_size",
                 "va_batch_size", "pretrain_epochs", "phase_epochs",
                 "max_phases", "convergence_tol")


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


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    weak, test = synth_generate(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(out, weak, test, cfg)
    print(f"wrote synthetic dataset to {out}")
    for split, samples in (("train", weak["train"]), ("val", weak["val"]),
                           ("test", test)):
        counts = per_class_counts(samples, cfg.vocab())
        print(f"  {split}: {len(samples)} images "
              f"({', '.join(f'{k}={v}' for k, v in counts.items())})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    if not cfg.dataset_root:
        raise ConfigError("config must set dataset_root")
    vocab = cfg.vocab()
    root = Path(cfg.dataset_root)
    splits = load_weak_dataset(root, vocab)
    if not splits["train"]:
        raise ConfigError(f"no training images under {root}")
    out = Path(cfg.out_dir)

    counters = None
    if getattr(args, "checkpoint", None):
        cn, va, ckpt_cfg, counters = load_model(args.checkpoint)
        if ckpt_cfg.vocab().names != vocab.names:
            raise ConfigError("checkpoint vocabulary does not match the dataset")
        # a resumed run trains the checkpoint's model on its schedule: a
        # differing --seed/--ablation flag or schedule key is rejected
        given = [(f"--{key}", key, getattr(args, key))
                 for key in ("seed", "ablation")]
        given += [(key, key, getattr(cfg, key)) for key in SCHEDULE_KEYS]
        for label, key, value in given:
            saved = getattr(ckpt_cfg, key)
            if value is not None and value != saved:
                raise ConfigError(f"{label} {value} differs from the "
                                  f"checkpoint's {key} {saved}")
        cfg = ckpt_cfg
    else:
        cn, va = build_networks(cfg, len(vocab))

    # training reads only the float32 stacks: drop the float64 samples
    data = StageData.prepare(cfg, splits["train"], splits["val"])
    del splits
    log = train(cn, va, data, cfg, out, counters)
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
    # the checkpoint; the generator has no ablation
    for p in (synth, train):
        p.add_argument("--seed", type=int, help="override the config seed")
    train.add_argument("--ablation", choices=RunConfig.ABLATIONS,
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
    except ShapeError:
        raise  # a fault in the program, not bad input: never exit 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
