"""Training schedules, evaluation metrics, and model persistence.

Training runs in two stages. First the color-naming branch is
pretrained alone on saliency-masked negative log-likelihood (the only
place that loss is used). Then the branches are trained alternately on
the image-level cross entropy of the aggregated score: the attention
branch first, with the color branch frozen, then the roles swap, until
the relative change of the phase-mean loss drops below the tolerance or
the phase budget runs out. Frozen parameters (and their batchnorm
statistics) are bit-identical across the other branch's phase: the
frozen branch's outputs cannot change, so they are precomputed once per
phase under ``no_grad``, and only the trained branch's parameters are
stepped. No gradient reaches the frozen branch.

Both stages take the :class:`RunConfig` and run their epochs through
one loop (:func:`_run_epochs`): learning rate, shuffle, minibatches of
per-image graphs, an SGD step per batch, a restore of the last good
state on divergence, validation and a log row. Each stage supplies only
its per-image loss and the parameters it steps. Every stage, and each
phase within alternation, starts a fresh momentum buffer, so no
optimizer state outlives a phase or goes into a checkpoint.

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

import numpy as np

from chroma.checkpoint import read_checkpoint, write_checkpoint
from chroma.config import ConfigError, RunConfig
from chroma.data import EvalSample, WeakSample, resize_bilinear
from chroma.modulation import ImageScore, aggregate_scores, modulate
from chroma.networks import CnNet, VaNet, full_forward, masked_nll_loss
from chroma.saliency import binarize, compute_saliency
from chroma.tensor import OptimizerState, Tensor, cross_entropy, no_grad, sgd_step

__all__ = [
    "EpochRecord",
    "TrainLog",
    "DivergenceError",
    "lr_at_epoch",
    "pretrain_cn",
    "alternating_train",
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

    def __init__(self, message: str, log: "TrainLog"):
        super().__init__(message)
        self.log = log


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

    def phases_seen(self) -> list[str]:
        out = []
        for r in self.records:
            if not out or out[-1] != r.phase:
                out.append(r.phase)
        return out

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


def _prepare_images(samples: list[WeakSample], resolution: int) -> list[np.ndarray]:
    out = []
    for s in samples:
        img = s.image
        if img.shape[:2] != (resolution, resolution):
            img = np.clip(resize_bilinear(img, resolution, resolution), 0.0, 1.0)
        out.append(img.astype(TRAIN_DTYPE))
    return out


def _snapshot(nets) -> list[dict]:
    snaps = []
    for net in nets:
        snaps.append({
            "params": {k: p.data.copy() for k, p in net.parameters().items()},
            "stats": {k: s.copy() for k, s in net.stats().items()},
        })
    return snaps


def _restore(nets, snaps) -> None:
    for net, snap in zip(nets, snaps):
        for k, p in net.parameters().items():
            p.data[...] = snap["params"][k]
        for k, s in net.stats().items():
            s.mean[...] = snap["stats"][k].mean
            s.var[...] = snap["stats"][k].var


def _validation_accuracy(cn: CnNet, va: VaNet | None, images, labels) -> float:
    if not images:
        return 0.0
    correct = 0
    with no_grad():
        for img, label in zip(images, labels):
            correct += full_forward(cn, va, img)[2].argmax() == label
    return correct / len(images)


@dataclass
class _StageData:
    """A training stage's images and labels at the training resolution."""

    images: list[np.ndarray]
    labels: list[int]
    val_images: list[np.ndarray]
    val_labels: list[int]

    @classmethod
    def prepare(cls, config: RunConfig, train_samples: list[WeakSample],
                val_samples) -> "_StageData":
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


def _run_epochs(config: RunConfig, data: _StageData, log: TrainLog, *,
                phase: str, nets, image_loss, batch_size: int, n_epochs: int,
                epoch: int, lr_origin: int, cn: CnNet, va: VaNet | None
                ) -> tuple[int, list[float]]:
    """Run ``n_epochs`` SGD epochs of one stage or phase, training the
    branches in ``nets`` (``cn``, ``va`` or both).

    ``image_loss(i)`` builds the loss graph of training image ``i``; a
    batch's per-image graphs are backpropagated one at a time with
    ``seed=1/len(batch)``. The parameters of ``nets``, named ``cn.*``
    and ``va.*``, start each batch without gradients and take one
    momentum step per batch. The learning rate follows
    :func:`lr_at_epoch` on ``epoch - lr_origin``. A non-finite loss or
    gradient restores ``nets`` to the start of the epoch and raises
    :class:`DivergenceError`. Each epoch logs its mean loss and the
    validation accuracy of the model ``(cn, va)``. Returns the next
    global epoch index and the epoch-mean losses.
    """
    what = "pretraining" if phase == "PRETRAIN" else f"{phase} phase"
    params = {("cn." if net is cn else "va.") + k: p
              for net in nets for k, p in net.parameters().items()}
    opt = OptimizerState(learning_rate=config.learning_rate,
                         momentum=config.momentum)
    epoch_losses = []
    for _ in range(n_epochs):
        t0 = time.perf_counter()
        opt.learning_rate = lr_at_epoch(config.learning_rate, epoch - lr_origin,
                                        config.lr_decay_epochs)
        good = _snapshot(nets)
        order = _epoch_order(config.seed, epoch, len(data.images))
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
            _restore(nets, good)
            raise DivergenceError(f"{what} diverged at epoch {epoch}: {exc}",
                                  log) from exc
        mean_loss = float(np.mean(batch_losses))
        if not np.isfinite(mean_loss):
            _restore(nets, good)
            raise DivergenceError(f"{what} diverged at epoch {epoch}", log)
        val_acc = _validation_accuracy(cn, va, data.val_images, data.val_labels)
        log.add(epoch=epoch, phase=phase, mean_loss=mean_loss,
                val_image_accuracy=val_acc, learning_rate=opt.learning_rate,
                wall_time=time.perf_counter() - t0)
        epoch += 1
        epoch_losses.append(mean_loss)
    return epoch, epoch_losses


# ---------------------------------------------------------------------------
# pretraining


def pretrain_cn(cn: CnNet, train_samples: list[WeakSample], config: RunConfig,
                val_samples: list[WeakSample] = (), log: TrainLog | None = None,
                start_epoch: int = 0) -> tuple[TrainLog, int]:
    """Saliency-masked pretraining of the color-naming branch at
    ``config.resolution``; each image's mask is its binarized saliency
    field.

    Returns the log and the next global epoch index. Raises
    :class:`DivergenceError` (after restoring the last finite epoch's
    state) if the loss goes non-finite.
    """
    data = _StageData.prepare(config, train_samples, val_samples)
    log = log if log is not None else TrainLog()
    masks = [binarize(compute_saliency(img)) for img in data.images]

    def image_loss(i):
        y = cn.forward(data.images[i], train=True)
        return masked_nll_loss(y, masks[i], data.labels[i])

    epoch, _ = _run_epochs(
        config, data, log, phase="PRETRAIN", nets=[cn], image_loss=image_loss,
        batch_size=config.cn_batch_size, n_epochs=config.pretrain_epochs,
        epoch=start_epoch, lr_origin=start_epoch, cn=cn, va=None)
    return log, epoch


# ---------------------------------------------------------------------------
# alternating end-to-end training


def _cache_forward(net, images) -> list[Tensor]:
    """Eval-mode outputs of a frozen branch, as reusable constant tensors."""
    with no_grad():
        return [net.forward(img) for img in images]


def _calibrate_batchnorm(net, images) -> None:
    """Replace a fresh branch's initial (0, 1) batchnorm statistics with
    statistics of real activations: one gradient-free pass over the
    images in online mode."""
    with no_grad():
        for img in images:
            net.forward(img, train=True)


def _phase_loss(phase: str, cn: CnNet, attention: VaNet | None,
                data: _StageData):
    """One phase's per-image loss: the cross entropy of the image score,
    as a function of the image index. A frozen branch's outputs are
    computed once, up front."""
    images = data.images
    if phase == "VA":
        colors = _cache_forward(cn, images)
        score = lambda i: aggregate_scores(modulate(
            colors[i], attention.forward(images[i], train=True)))
    elif phase == "CN" and attention is not None:
        maps = _cache_forward(attention, images)
        score = lambda i: aggregate_scores(modulate(
            cn.forward(images[i], train=True), maps[i]))
    else:  # JOINT, or a CN phase without an attention branch
        score = lambda i: full_forward(cn, attention, images[i], train=True)[2]
    return lambda i: cross_entropy(score(i).y_hat, data.labels[i])


def alternating_train(cn: CnNet, va: VaNet | None,
                      train_samples: list[WeakSample], config: RunConfig,
                      val_samples: list[WeakSample] = (),
                      log: TrainLog | None = None, start_epoch: int = 0,
                      start_phase: int = 0,
                      prev_phase_loss: float = float("nan"),
                      on_phase_end=None) -> tuple[TrainLog, int]:
    """Alternate VA and CN phases on the image-level cross entropy.

    Stops when the relative change between consecutive phase-mean
    losses falls below ``convergence_tol`` or after ``max_phases``
    phases. Without an attention branch (``va=None``) every phase is a
    CN phase. Returns the log and the next global epoch index.
    """
    data = _StageData.prepare(config, train_samples, val_samples)
    log = log if log is not None else TrainLog()
    if start_phase == 0 and va is not None:
        _calibrate_batchnorm(va, data.images)

    # the lr counter spans the alternation phases; log epochs stay
    # globally monotone across pretraining and phases
    alternation_start = start_epoch - start_phase * config.phase_epochs
    epoch = start_epoch
    max_phases = config.max_phases
    if config.ablation == "no-alternation":
        # a joint epoch updates both branches, costing one CN plus one
        # VA epoch; halving the phase budget keeps total compute equal
        max_phases = (config.max_phases + 1) // 2
    for phase_idx in range(start_phase, max_phases):
        if va is None:
            phase = "CN"
        elif config.ablation == "no-alternation":
            phase = "JOINT"
        else:
            phase = "VA" if phase_idx % 2 == 0 else "CN"
        trainable = {"VA": [va], "CN": [cn], "JOINT": [cn, va]}[phase]
        epoch, epoch_losses = _run_epochs(
            config, data, log, phase=phase, nets=trainable,
            image_loss=_phase_loss(phase, cn, va, data),
            batch_size=(config.cn_batch_size if phase == "CN"
                        else config.va_batch_size),
            n_epochs=config.phase_epochs, epoch=epoch,
            lr_origin=alternation_start, cn=cn, va=va)

        phase_loss = float(np.mean(epoch_losses))
        if on_phase_end is not None:
            on_phase_end(phase_idx, phase, phase_loss, epoch)
        if np.isfinite(prev_phase_loss):
            rel = abs(phase_loss - prev_phase_loss) / max(abs(prev_phase_loss),
                                                          1e-12)
            if rel < config.convergence_tol:
                break
        prev_phase_loss = phase_loss
    return log, epoch


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

    Image-wise accuracy runs the full model at its training resolution.
    When samples carry masks, pixel-wise accuracy runs the color branch
    alone at native image size (reusing the first map when the image
    already is at training resolution), and, when the model has an
    attention branch (``va`` is not None), attention localization is
    reported against the ground-truth masks.
    """
    if not samples:
        raise ValueError("evaluate_model: empty sample list")
    labels = [s.label for s in samples]
    images = _prepare_images(samples, resolution)
    scores: list[ImageScore] = []
    loc_stats: list[LocalizationStats] = []
    pixel_accs: list[float] = []
    with no_grad():
        for sample, img in zip(samples, images):
            y, attention, score = full_forward(cn, va, img)
            scores.append(score)
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


@dataclass
class _BranchRecords:
    """One branch's checkpoint records, checked as its network takes them.

    Records are looked up as ``<prefix>.<parameter>`` and
    ``<prefix>.stat.<layer>.{mean,var}``; a missing record or a wrong
    shape raises :class:`ConfigError`.
    """

    records: Mapping[str, np.ndarray]
    prefix: str

    def _get(self, key: str, shape: tuple[int, ...], what: str):
        rec = self.records.get(key)
        if rec is not None and rec.shape != shape:
            raise ConfigError(f"checkpoint {what} {key} has shape {rec.shape}, "
                              f"expected {shape}")
        return rec

    def param(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        key = f"{self.prefix}.{name}"
        rec = self._get(key, shape, "parameter")
        if rec is None:
            raise ConfigError(f"checkpoint is missing parameter {key}")
        return rec

    def stats(self, name: str, shape: tuple[int, ...]
              ) -> tuple[np.ndarray, np.ndarray]:
        key = f"{self.prefix}.stat.{name}"
        mean = self._get(f"{key}.mean", shape, "statistic")
        var = self._get(f"{key}.var", shape, "statistic")
        if mean is None or var is None:
            raise ConfigError(f"checkpoint is missing statistics for "
                              f"{self.prefix}.{name}")
        return mean, var


def build_networks(cfg: RunConfig, num_classes: int,
                   records: Mapping[str, np.ndarray] | None = None
                   ) -> tuple[CnNet, VaNet | None]:
    """The branches of ``cfg``'s model: freshly initialized, or, given a
    checkpoint's ``records``, holding copies of the saved parameters and
    statistics (see :func:`load_model`). The ``no-attention`` model has
    no attention branch (``va`` is None) and ``no-prior`` builds one
    without the spatial prior."""
    cn_weights = va_weights = None
    if records is not None:
        cn_weights = _BranchRecords(records, "cn")
        va_weights = _BranchRecords(records, "va")
    cn = CnNet(num_classes=num_classes, width=cfg.cn_width, dtype=TRAIN_DTYPE,
               seed=cfg.seed, weights=cn_weights)
    if cfg.ablation == "no-attention":
        return cn, None
    va = VaNet(resolution=cfg.resolution, stages=cfg.va_stages,
               channels=cfg.va_channel_list(), fc_width=cfg.va_fc_width,
               bottleneck_channels=cfg.va_bottleneck_channels,
               dec_channels=cfg.va_dec_channel_list(),
               use_prior=cfg.ablation != "no-prior", dtype=TRAIN_DTYPE,
               seed=cfg.seed + 1, weights=va_weights)
    return cn, va


def _model_records(cn: CnNet, va: VaNet | None) -> dict[str, np.ndarray]:
    records: dict[str, np.ndarray] = {}
    for prefix, net in (("cn", cn), ("va", va)):
        if net is None:
            continue
        for k, p in net.parameters().items():
            records[f"{prefix}.{k}"] = p.data
        for k, s in net.stats().items():
            records[f"{prefix}.stat.{k}.mean"] = s.mean
            records[f"{prefix}.stat.{k}.var"] = s.var
    return records


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
    write_checkpoint(path, cfg.vocab().names, config_text,
                     _model_records(cn, va))


def load_model(path) -> tuple[CnNet, VaNet | None, RunConfig, dict]:
    """Rebuild networks from a checkpoint; returns (cn, va, config,
    resume counters).

    The networks are built straight from the checkpoint's records: each
    parameter and statistic is one float32 copy of its record, and
    nothing is drawn at random. A missing record or a wrong shape raises
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
