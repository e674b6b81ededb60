"""Training schedule, evaluation metrics, and model persistence.

Training runs in two stages, both in :func:`train`, the one entry point.
It reads the images only as the float32 stacks of a :class:`StageData`,
so a caller that drops its samples once staged holds each image once.
First the color-naming branch is pretrained alone on saliency-masked
negative log-likelihood (the only place that loss is used). Then the
branches are trained alternately on the image-level cross entropy of
the aggregated score: the attention branch first, with the color branch
frozen, then the roles swap, until the relative change of the
phase-mean loss drops below the tolerance or the phase budget runs out.
Frozen parameters (and their batchnorm statistics) are bit-identical
across the other branch's phase: the frozen branch's outputs cannot
change, so they are precomputed once per phase under ``no_grad`` (on
training and validation images), and only the trained branch's
parameters are stepped. No gradient reaches the frozen branch.
:func:`train` writes a checkpoint after pretraining and after each
phase; its ``resume.*`` counters say where the schedule goes on, so a
run resumed from any checkpoint ends as the uninterrupted run does.

Pretraining and every phase run through one function
(:func:`_run_phase`): the phase name decides which branches it trains
and which it freezes, its batch size, its epoch count and its per-image
loss. Each starts a fresh momentum buffer, so no optimizer state
outlives a phase or goes into a checkpoint.

Step sizes: every phase steps with the same schedule. The attention
branch emits maps of unit root mean square (see :class:`VaNet`), so the
gradients reaching the color branch in a CN phase are those of the
``no-attention`` ablation reweighted by a unit-RMS map; they do not
grow with any attention gain, and no phase rescales its step. Before
the first phase, a fresh attention branch's batchnorm statistics are
calibrated by one gradient-free online-mode pass over the training
images. With the initial (0, 1) statistics the untrained decoder
shrinks activations 2-3x per layer, so the raw map starts near 1e-4;
the normalized map does not depend on that scale, and the first steps
would move the head bias and the batchnorm offsets by far more than the
map's own variation, leaving a flat map.

Log epochs are numbered monotonically across pretraining and every
phase. The learning-rate schedule ``base * 10**-(e // decay_epochs)``
runs on one counter spanning all alternation phases (pretraining, a
separate stage, has its own counter).

Ablation switches (see :func:`build_networks`): ``no-attention`` builds
no attention branch and trains the color branch alone for the same
epoch budget, ``no-prior`` builds the attention branch without the
spatial prior, and ``no-alternation`` trains both branches jointly with
nothing frozen.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chroma.checkpoint import read_checkpoint, write_checkpoint
from chroma.config import ConfigError, RunConfig
from chroma.data import EvalSample, WeakSample, resize_bilinear
from chroma.modulation import ImageScore
from chroma.networks import CnNet, VaNet, image_score, masked_nll_loss
from chroma.saliency import binarize, compute_saliency
from chroma.tensor import OptimizerState, Tensor, cross_entropy, no_grad, sgd_step

__all__ = [
    "EpochRecord",
    "TrainLog",
    "DivergenceError",
    "lr_at_epoch",
    "StageData",
    "train",
    "pixel_accuracy",
    "image_accuracy",
    "attention_localization",
    "LocalizationStats",
    "evaluate_model",
    "build_networks",
    "save_model",
    "load_model",
]

TRAIN_DTYPE = np.float32


class DivergenceError(RuntimeError):
    """Loss went non-finite; the networks hold the last good state."""


@dataclass
class EpochRecord:
    epoch: int
    phase: str  # PRETRAIN | VA | CN | JOINT
    mean_loss: float
    val_image_accuracy: float
    learning_rate: float = 0.0
    wall_time: float = field(compare=False, default=0.0)


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def add(self, **kw) -> None:
        self.records.append(EpochRecord(**kw))

    def as_table(self) -> str:
        lines = [f"{'epoch':>5}  {'phase':<8}  {'loss':>12}  {'val_acc':>8}  "
                 f"{'lr':>8}  {'seconds':>8}"]
        for r in self.records:
            lines.append(f"{r.epoch:>5}  {r.phase:<8}  {r.mean_loss:>12.6f}  "
                         f"{r.val_image_accuracy:>8.4f}  {r.learning_rate:>8.5f}  "
                         f"{r.wall_time:>8.2f}")
        return "\n".join(lines) + "\n"

    def as_kv(self) -> str:
        lines = []
        for r in self.records:
            prefix = f"epoch.{r.epoch}"
            lines.append(f"{prefix}.phase = {r.phase}")
            lines.append(f"{prefix}.loss = {r.mean_loss!r}")
            lines.append(f"{prefix}.val_accuracy = {r.val_image_accuracy!r}")
            lines.append(f"{prefix}.learning_rate = {r.learning_rate!r}")
            lines.append(f"{prefix}.wall_time = {r.wall_time:.3f}")
        return "\n".join(lines) + "\n"


def lr_at_epoch(base_lr: float, epoch: int, decay_epochs: int = 20) -> float:
    return base_lr * 10.0 ** (-(epoch // decay_epochs))


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(epoch,)))
    return rng.permutation(n)


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start:start + size]


def _prepare_images(samples: list[WeakSample], resolution: int) -> np.ndarray:
    """The images at the training resolution, as one [N,H,W,3] stack."""
    out = np.empty((len(samples), resolution, resolution, 3), TRAIN_DTYPE)
    for row, s in zip(out, samples):
        img = s.image
        if img.shape[:2] != (resolution, resolution):
            img = np.clip(resize_bilinear(img, resolution, resolution), 0.0, 1.0)
        row[...] = img
    return out


def _snapshot(nets) -> dict[str, np.ndarray]:
    return {k: a.copy() for net in nets for k, a in net.state().items()}


def _restore(nets, snap: dict[str, np.ndarray]) -> None:
    for net in nets:
        for k, a in net.state().items():
            a[...] = snap[k]


@dataclass
class StageData:
    """The training and validation images, as float32 stacks at the
    training resolution, and their labels: all :func:`train` reads."""

    images: np.ndarray  # [N,H,W,3]
    labels: list[int]
    val_images: np.ndarray
    val_labels: list[int]

    @classmethod
    def prepare(cls, config: RunConfig, train_samples: list[WeakSample],
                val_samples) -> "StageData":
        n_train = len(train_samples)
        if n_train < 1:
            raise ConfigError("training split is empty")
        if config.cn_batch_size > n_train or config.va_batch_size > n_train:
            raise ConfigError(f"batch size exceeds dataset size {n_train}")
        return cls(images=_prepare_images(train_samples, config.resolution),
                   labels=[s.label for s in train_samples],
                   val_images=_prepare_images(list(val_samples),
                                              config.resolution),
                   val_labels=[s.label for s in val_samples])


def _cache_forward(net, images: np.ndarray) -> list:
    """Eval-mode outputs of a frozen branch on a stack, as constant
    tensors; a missing branch (None) gives None per image."""
    if net is None:
        return [None] * len(images)
    with no_grad():
        if isinstance(net, VaNet) and len(images):
            return [Tensor(a) for a in net.forward(images).data]
        return [net.forward(img) for img in images]


def _run_phase(config: RunConfig, data: StageData, log: TrainLog,
               phase: str, cn: CnNet, va: VaNet | None, epoch: int,
               lr_origin: int) -> tuple[int, float]:
    """Run the SGD epochs of pretraining (PRETRAIN, with ``va`` None)
    or of one VA, CN or JOINT phase of the model ``(cn, va)``.

    The phase name decides the rest: PRETRAIN and CN train ``cn`` in
    batches of ``cn_batch_size``, VA trains ``va`` and JOINT both, in
    batches of ``va_batch_size``; PRETRAIN runs ``pretrain_epochs``, a
    phase ``phase_epochs``. Before the first epoch's clock starts, the
    untrained branch's outputs on the training and validation stacks
    (:func:`_cache_forward`) and pretraining's saliency masks are
    computed once. The per-image loss is the saliency-masked NLL for
    PRETRAIN, else the cross entropy of the image score.

    Per batch, the per-image graphs are backpropagated one at a time
    with ``seed=1/len(batch)`` and the trained parameters take one
    momentum step. The learning rate follows :func:`lr_at_epoch` on
    ``epoch - lr_origin``. A non-finite loss or gradient restores the
    trained branches to the start of the epoch and raises
    :class:`DivergenceError`. Each epoch logs its mean loss and the
    model's validation accuracy. Returns the next global epoch index
    and the phase-mean loss.
    """
    trained = {"PRETRAIN": [cn], "CN": [cn], "VA": [va], "JOINT": [cn, va]}[phase]
    batch_size = (config.cn_batch_size if phase in ("PRETRAIN", "CN")
                  else config.va_batch_size)
    n_epochs = (config.pretrain_epochs if phase == "PRETRAIN"
                else config.phase_epochs)
    images, labels = data.images, data.labels
    frozen = {net: (_cache_forward(net, images),
                    _cache_forward(net, data.val_images))
              for net in (cn, va) if net not in trained}

    def out(net, i):  # a branch's output on training image i
        return (frozen[net][0][i] if net in frozen
                else net.forward(images[i], train=True))

    if phase == "PRETRAIN":
        masks = [binarize(compute_saliency(img)) for img in images]
        image_loss = lambda i: masked_nll_loss(out(cn, i), masks[i], labels[i])
    else:
        image_loss = lambda i: cross_entropy(
            image_score(out(cn, i), out(va, i)).y_hat, labels[i])

    what = "pretraining" if phase == "PRETRAIN" else f"{phase} phase"
    params = {f"{net.prefix}.{k}": p
              for net in trained for k, p in net.parameters().items()}
    opt = OptimizerState(learning_rate=config.learning_rate,
                         momentum=config.momentum)
    epoch_losses = []
    for _ in range(n_epochs):
        t0 = time.perf_counter()
        opt.learning_rate = lr_at_epoch(config.learning_rate, epoch - lr_origin,
                                        config.lr_decay_epochs)
        good = _snapshot(trained)
        order = _epoch_order(config.seed, epoch, len(images))
        batch_losses = []
        try:
            for batch in _batches(order, batch_size):
                for p in params.values():
                    p.grad = None
                batch_loss = 0.0
                for idx in batch:
                    loss = image_loss(idx)
                    loss.backward(seed=1.0 / len(batch))
                    batch_loss += loss.item() / len(batch)
                sgd_step(params, opt)
                batch_losses.append(batch_loss)
        except FloatingPointError as exc:
            _restore(trained, good)
            raise DivergenceError(
                f"{what} diverged at epoch {epoch}: {exc}") from exc
        mean_loss = float(np.mean(batch_losses))
        if not np.isfinite(mean_loss):
            _restore(trained, good)
            raise DivergenceError(f"{what} diverged at epoch {epoch}")
        val_acc = 0.0
        if data.val_labels:
            colors, maps = (frozen[net][1] if net in frozen
                            else _cache_forward(net, data.val_images)
                            for net in (cn, va))
            with no_grad():
                val_acc = image_accuracy([image_score(y, a) for y, a
                                          in zip(colors, maps)], data.val_labels)
        log.add(epoch=epoch, phase=phase, mean_loss=mean_loss,
                val_image_accuracy=val_acc, learning_rate=opt.learning_rate,
                wall_time=time.perf_counter() - t0)
        epoch += 1
        epoch_losses.append(mean_loss)
    return epoch, float(np.mean(epoch_losses))


# ---------------------------------------------------------------------------
# the training schedule


def _resume_point(counters: Mapping[str, str], config: RunConfig
                  ) -> tuple[int, int, float]:
    """A checkpoint's resume counters as (phase index, global epoch,
    last phase loss). A missing counter takes its start value; a
    malformed one raises :class:`ConfigError` naming it."""
    def read(key, parse, default, ok, what):
        text = counters.get(key)
        if text is None:
            return default
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise ConfigError(f"checkpoint counter resume.{key} = {text} is "
                          f"not {what}")

    return (read("phase_index", int, 0, lambda v: 0 <= v <= config.max_phases,
                 f"an integer in [0, {config.max_phases}]"),
            read("global_epoch", int, 0, lambda v: v >= 0,
                 "a non-negative integer"),
            read("last_phase_loss", float, float("nan"), lambda v: True,
                 "a number"))


def train(cn: CnNet, va: VaNet | None, data: StageData, config: RunConfig,
          out: Path, counters: Mapping[str, str] | None = None) -> TrainLog:
    """Run the training schedule on ``data`` (staged by
    :meth:`StageData.prepare` with ``config``), validating on its
    validation images, and write its files into the directory ``out``.

    A fresh run (``counters`` is None) pretrains the color branch and
    saves ``pretrain.ckpt``. A run resumed from a checkpoint's
    ``counters`` (see :func:`load_model`) skips pretraining and starts
    at the phase its ``phase_index`` names. Each alternation phase
    saves ``phase_NN.ckpt`` after the convergence test; a phase that
    converged records ``phase_index = max_phases``, so no phase is left
    to resume. The run ends with ``final.ckpt``. ``trainlog.txt`` and
    ``trainlog.kv`` hold the epochs this call ran; they are written
    also when an error, such as :class:`DivergenceError`, ends the run.
    """
    phase_index, epoch, last_loss = _resume_point(counters or {}, config)
    out.mkdir(parents=True, exist_ok=True)

    def save(name, next_phase):  # at the current epoch and loss
        save_model(out / name, cn, va, config,
                   {"phase_index": next_phase, "global_epoch": epoch,
                    "last_phase_loss": last_loss})

    log = TrainLog()
    try:
        if counters is None:
            epoch, _ = _run_phase(config, data, log, "PRETRAIN", cn, None, 0, 0)
            save("pretrain.ckpt", 0)

        if phase_index == 0 and va is not None:
            # one online pass calibrates the fresh branch's batchnorm statistics
            with no_grad():
                for img in data.images:
                    va.forward(img, train=True)
        # the lr counter spans the alternation phases; log epochs stay
        # globally monotone across pretraining and phases
        lr_origin = epoch - phase_index * config.phase_epochs
        n_phases = config.max_phases
        if config.ablation == "no-alternation":
            # a joint epoch updates both branches, costing one CN plus
            # one VA epoch; halving the phase budget keeps compute equal
            n_phases = (config.max_phases + 1) // 2
        for idx in range(phase_index, n_phases):
            if va is None:
                phase = "CN"
            elif config.ablation == "no-alternation":
                phase = "JOINT"
            else:
                phase = "VA" if idx % 2 == 0 else "CN"
            epoch, phase_loss = _run_phase(config, data, log, phase, cn, va,
                                           epoch, lr_origin)
            converged = (np.isfinite(last_loss) and
                         abs(phase_loss - last_loss) / max(abs(last_loss), 1e-12)
                         < config.convergence_tol)
            last_loss = phase_loss
            save(f"phase_{idx:02d}.ckpt",
                 config.max_phases if converged else idx + 1)
            if converged:
                break
        save("final.ckpt", config.max_phases)
    finally:
        (out / "trainlog.txt").write_text(log.as_table())
        (out / "trainlog.kv").write_text(log.as_kv())
    return log


# ---------------------------------------------------------------------------
# metrics


def pixel_accuracy(y: Tensor, mask: np.ndarray, gt_labels: np.ndarray) -> float:
    """Fraction of masked pixels whose argmax class in the color map
    ``y`` [H,W,C] matches the ground truth. Accepts only such a map:
    pixel-wise evaluation uses the color-naming branch alone, never
    aggregated scores."""
    if not isinstance(y, Tensor) or y.data.ndim != 3:
        raise TypeError("pixel_accuracy expects a [H,W,C] color map tensor")
    sel = np.asarray(mask) > 0
    if not sel.any():
        raise ValueError("pixel_accuracy: mask is empty")
    pred = np.argmax(y.data, axis=2)
    gt = np.broadcast_to(np.asarray(gt_labels), pred.shape)
    return float((pred[sel] == gt[sel]).mean())


def image_accuracy(predictions: list[ImageScore], labels) -> float:
    """Fraction of images whose aggregated score matches the label."""
    labels = list(labels)
    if not predictions:
        raise ValueError("image_accuracy: no predictions")
    if len(predictions) != len(labels):
        raise ValueError(f"image_accuracy: {len(predictions)} predictions vs "
                         f"{len(labels)} labels")
    hits = sum(p.argmax() == l for p, l in zip(predictions, labels))
    return hits / len(labels)


@dataclass
class LocalizationStats:
    inside_mean: float
    outside_mean: float
    iou_at_mean_threshold: float


def attention_localization(attention: Tensor,
                           gt_mask: np.ndarray) -> LocalizationStats:
    """How well the attention map ``attention`` [H,W] concentrates on the
    object mask."""
    mask = np.asarray(gt_mask) > 0
    if not mask.any() or mask.all():
        raise ValueError("attention_localization: mask must be non-empty and "
                         "not cover the whole image")
    a = attention.data.astype(np.float64)
    inside = float(a[mask].mean())
    outside = float(a[~mask].mean())
    spread = a.max() - a.min()
    if spread > 0:
        binary = binarize((a - a.min()) / spread).astype(bool)
    else:
        binary = np.zeros_like(mask)
    union = (binary | mask).sum()
    iou = float((binary & mask).sum() / union) if union else 0.0
    return LocalizationStats(inside_mean=inside, outside_mean=outside,
                             iou_at_mean_threshold=iou)


def _concentration_ratio(stats: LocalizationStats) -> float:
    """Inside/outside mean ratio; a map that is zero everywhere
    concentrates on nothing and scores 0, not an infinite ratio."""
    if stats.outside_mean > 0:
        return stats.inside_mean / stats.outside_mean
    return float("inf") if stats.inside_mean > 0 else 0.0


def evaluate_model(cn: CnNet, va: VaNet | None, samples: list[WeakSample],
                   resolution: int) -> dict:
    """Metrics over a test split.

    Image-wise accuracy runs the full model at its training resolution
    (the attention branch on one stack). When samples carry masks,
    pixel-wise accuracy runs the color branch alone at native image size
    (reusing the first map when the image already is at training
    resolution), and, when the model has an attention branch (``va`` is
    not None), attention localization is reported against the
    ground-truth masks.
    """
    if not samples:
        raise ValueError("evaluate_model: empty sample list")
    labels = [s.label for s in samples]
    images = _prepare_images(samples, resolution)
    maps = _cache_forward(va, images)
    scores: list[ImageScore] = []
    loc_stats: list[LocalizationStats] = []
    pixel_accs: list[float] = []
    with no_grad():
        for sample, img, attention in zip(samples, images, maps):
            y = cn.forward(img)
            scores.append(image_score(y, attention))
            if isinstance(sample, EvalSample):
                native = (y if sample.image.shape[:2] == img.shape[:2]
                          else cn.forward(sample.image.astype(TRAIN_DTYPE)))
                pixel_accs.append(pixel_accuracy(native, sample.mask,
                                                 np.full(sample.mask.shape,
                                                         sample.label)))
                if attention is not None:
                    mask = sample.mask
                    if mask.shape != attention.shape:
                        mask = (resize_bilinear(mask.astype(np.float64),
                                                *attention.shape) > 0.5
                                ).astype(np.uint8)
                    if mask.any() and not mask.all():
                        loc_stats.append(attention_localization(attention, mask))
    metrics = {"image_accuracy": image_accuracy(scores, labels),
               "n_images": len(samples)}
    if pixel_accs:
        metrics["pixel_accuracy"] = float(np.mean(pixel_accs))
    if loc_stats:
        ratios = [_concentration_ratio(s) for s in loc_stats]
        metrics["attention_inside_mean"] = float(np.mean(
            [s.inside_mean for s in loc_stats]))
        metrics["attention_outside_mean"] = float(np.mean(
            [s.outside_mean for s in loc_stats]))
        metrics["attention_ratio_ge_2_fraction"] = float(np.mean(
            [r >= 2.0 for r in ratios]))
        metrics["attention_mean_iou"] = float(np.mean(
            [s.iou_at_mean_threshold for s in loc_stats]))
    return metrics


# ---------------------------------------------------------------------------
# model persistence


def build_networks(cfg: RunConfig, num_classes: int,
                   records: Mapping[str, np.ndarray] | None = None
                   ) -> tuple[CnNet, VaNet | None]:
    """The branches of ``cfg``'s model: freshly initialized, or, given a
    mapping of checkpoint record names to arrays (``records``, laid out
    as a network's ``state()``), holding the saved parameters and
    statistics (see :func:`load_model`). The ``no-attention`` model
    has no attention branch (``va`` is None) and ``no-prior`` builds one
    without the spatial prior."""
    cn = CnNet(num_classes=num_classes, width=cfg.cn_width, dtype=TRAIN_DTYPE,
               seed=cfg.seed, weights=records)
    if cfg.ablation == "no-attention":
        return cn, None
    va = VaNet(resolution=cfg.resolution, stages=cfg.va_stages,
               channels=cfg.va_channel_list(), fc_width=cfg.va_fc_width,
               bottleneck_channels=cfg.va_bottleneck_channels,
               dec_channels=cfg.va_dec_channel_list(),
               use_prior=cfg.ablation != "no-prior", dtype=TRAIN_DTYPE,
               seed=cfg.seed + 1, weights=records)
    return cn, va


def save_model(path, cn: CnNet, va: VaNet | None, cfg: RunConfig,
               counters: dict | None = None) -> None:
    """Write a checkpoint: vocabulary header, config text (with the
    resume ``counters``), parameters and batchnorm statistics.

    The output directory is a run-local knob, not part of the model's
    identity, so it is dropped from the embedded config: training the
    same config into two directories yields byte-identical checkpoints.
    """
    config_text = "".join(line + "\n"
                          for line in cfg.to_text().splitlines()
                          if not line.startswith("out_dir"))
    for key, value in (counters or {}).items():
        config_text += f"resume.{key} = {value}\n"
    records = {**cn.state(), **(va.state() if va is not None else {})}
    write_checkpoint(path, cfg.vocab().names, config_text, records)


def load_model(path) -> tuple[CnNet, VaNet | None, RunConfig, dict]:
    """Rebuild networks from a checkpoint; returns (cn, va, config,
    resume counters).

    The networks are built straight from the checkpoint's records, the
    mapping their ``state()`` lays out: each parameter and statistic is
    the array its record was read into, and nothing is drawn at random.
    A missing record or a wrong shape raises
    :class:`ConfigError`; records the networks do not use, such as the
    untrained attention branch older ``no-attention`` files carry, are
    ignored, as is the optimizer section older files carry.
    """
    ckpt = read_checkpoint(path)
    counters: dict[str, str] = {}
    config_lines = []
    for line in ckpt.config_text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("resume."):
            key, value = stripped.split("=", 1)
            counters[key.strip()[len("resume."):]] = value.strip()
        else:
            config_lines.append(line)
    cfg = RunConfig.from_text("\n".join(config_lines))
    vocab = cfg.vocab()
    if tuple(ckpt.vocabulary) != vocab.names:
        raise ConfigError(f"checkpoint vocabulary {ckpt.vocabulary} does not "
                          f"match config vocabulary {vocab.names}")
    cn, va = build_networks(cfg, len(vocab), records=ckpt.params)
    return cn, va, cfg, counters
