"""Dataset ingestion, deterministic synthetic data, and resizing.

Datasets live on disk as ``root/<split>/<color_name>/<id>.ppm`` with
``<id>.mask.pgm`` next to evaluation images (nonzero mask = object).
Splits are ``train``, ``val`` and ``test``; loading order is pure
lexicographic over (color name, id) so it never depends on filesystem
enumeration order.

The synthetic generator replaces web-scraped data at desk scale: each
image is a cluttered background plus one principal object painted in a
jittered class anchor color at a center-biased position, with the exact
object mask recorded as ground truth. Generation is fully deterministic
given the seed (one PCG64 stream consumed in a fixed order), and images
are quantized to the 8-bit grid at creation time so that the in-memory
dataset equals its exported-then-reloaded copy bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chroma.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from chroma.vocab import ColorVocabulary, VOCABULARY_PRESETS

__all__ = [
    "WeakSample",
    "EvalSample",
    "SynthConfig",
    "load_weak_dataset",
    "load_eval_dataset",
    "synth_generate",
    "write_dataset",
    "resize_bilinear",
    "per_class_counts",
]

SPLITS = ("train", "val", "test")

# Backgrounds and clutter are drawn from these grays and muted tints. A
# vocabulary with an anchor closer than BACKGROUND_MARGIN (RGB distance
# in [0, 1] units) to one of them is rejected, so no background pixel
# looks like a class color.
BACKGROUND_PALETTE = (
    (64, 64, 64), (112, 112, 112), (160, 160, 160),
    (88, 100, 112), (112, 100, 88), (96, 112, 96),
)
BACKGROUND_MARGIN = 0.25
# distractors are kept smaller than principals so the bootstrap saliency
# mask is dominated by correctly labeled pixels
DISTRACTOR_SCALE_RANGE = (0.12, 0.22)


@dataclass
class WeakSample:
    """An image with a single image-level color-name label."""

    image: np.ndarray  # [H,W,3] float in [0,1]
    label: int
    id: str


@dataclass
class EvalSample(WeakSample):
    """Weak sample plus the ground-truth binary object mask."""

    mask: np.ndarray = None  # [H,W] uint8 in {0,1}, nonempty

    def __post_init__(self):
        if self.mask is None or not self.mask.any():
            raise ValueError(f"sample {self.id!r}: evaluation mask is empty")


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic scene generator.

    ``scale_range`` is the object extent as a fraction of the image
    side; ``jitter_sigma`` perturbs the anchor color per channel (in
    [0,1] units); ``center_sigma`` spreads object centers around the
    image center as a fraction of the side. ``distractors`` adds
    off-center objects in wrong-class colors (never in the mask), which
    penalizes attention that drifts away from the center.
    """

    vocabulary: ColorVocabulary = field(
        default_factory=lambda: VOCABULARY_PRESETS["synthetic6"])
    seed: int = 0
    image_size: int = 64
    shapes: tuple[str, ...] = ("rectangle", "ellipse")
    scale_range: tuple[float, float] = (0.25, 0.45)
    jitter_sigma: float = 0.02
    center_sigma: float = 0.15
    clutter_patches: int = 8
    distractors: int = 0

    def validate(self) -> None:
        if self.image_size < 8:
            raise ValueError("image_size must be at least 8")
        lo, hi = self.scale_range
        if not 0.05 <= lo <= hi <= 0.9:
            raise ValueError(f"scale_range {(lo, hi)} out of bounds")
        if self.jitter_sigma < 0 or self.center_sigma < 0:
            raise ValueError("sigmas must be non-negative")
        if self.clutter_patches < 0 or self.distractors < 0:
            raise ValueError("clutter_patches and distractors must be "
                             "non-negative")
        if not self.shapes or any(s not in ("rectangle", "ellipse")
                                  for s in self.shapes):
            raise ValueError(f"unknown shape in {self.shapes}")
        min_dist = self.vocabulary.min_anchor_distance()
        if min_dist <= 6.0 * self.jitter_sigma:
            raise ValueError(
                f"jitter_sigma {self.jitter_sigma} is too large: nearest-anchor "
                f"classification needs min pairwise anchor distance "
                f"({min_dist:.3f}) > 6*sigma ({6 * self.jitter_sigma:.3f})")
        anchors = self.vocabulary.anchor_floats()
        for rgb in BACKGROUND_PALETTE:
            col = np.asarray(rgb, dtype=np.float64) / 255.0
            d = np.sqrt(((anchors - col) ** 2).sum(axis=1)).min()
            if d < BACKGROUND_MARGIN:
                raise ValueError(
                    f"background color {rgb} lies within {d:.3f} of a class "
                    f"anchor (margin {BACKGROUND_MARGIN})")


# ---------------------------------------------------------------------------
# loading


def _class_dirs(split_dir: Path, vocab: ColorVocabulary) -> list[tuple[str, Path]]:
    dirs = sorted(p for p in split_dir.iterdir() if p.is_dir())
    for p in dirs:
        if p.name not in vocab.names:
            raise ValueError(f"unknown class folder {p} (vocabulary: "
                             f"{list(vocab.names)})")
    return [(p.name, p) for p in dirs]


def load_weak_dataset(root, vocabulary: ColorVocabulary) -> dict[str, list[WeakSample]]:
    """Load all splits of weakly labeled images under ``root``.

    Missing split directories yield empty lists. Raises on class folders
    outside the vocabulary and on unreadable images.
    """
    root = Path(root)
    splits: dict[str, list[WeakSample]] = {}
    for split in SPLITS:
        samples: list[WeakSample] = []
        split_dir = root / split
        if split_dir.is_dir():
            for name, class_dir in _class_dirs(split_dir, vocabulary):
                label = vocabulary.index(name)
                for ppm in sorted(class_dir.glob("*.ppm")):
                    try:
                        image = read_ppm(ppm)
                    except (OSError, ValueError) as exc:
                        raise ValueError(f"cannot read image {ppm}: {exc}") from exc
                    samples.append(WeakSample(image=image, label=label,
                                              id=ppm.stem))
        splits[split] = samples
    return splits


def load_eval_dataset(root, vocabulary: ColorVocabulary) -> list[EvalSample]:
    """Load the masked ``test`` split; every image needs ``<id>.mask.pgm``."""
    root = Path(root)
    split_dir = root / "test"
    if not split_dir.is_dir():
        raise FileNotFoundError(f"no 'test' split under {root}")
    samples: list[EvalSample] = []
    for name, class_dir in _class_dirs(split_dir, vocabulary):
        label = vocabulary.index(name)
        for ppm in sorted(class_dir.glob("*.ppm")):
            mask_path = class_dir / f"{ppm.stem}.mask.pgm"
            if not mask_path.exists():
                raise FileNotFoundError(f"missing mask {mask_path} for {ppm}")
            image = read_ppm(ppm)
            mask = (read_pgm(mask_path) > 0).astype(np.uint8)
            if mask.shape != image.shape[:2]:
                raise ValueError(f"{mask_path}: mask size {mask.shape} does not "
                                 f"match image {image.shape[:2]}")
            samples.append(EvalSample(image=image, label=label, id=ppm.stem,
                                      mask=mask))
    return samples


def per_class_counts(samples: list[WeakSample], vocab: ColorVocabulary) -> dict[str, int]:
    counts = {name: 0 for name in vocab.names}
    for s in samples:
        counts[vocab.names[s.label]] += 1
    return counts


# ---------------------------------------------------------------------------
# synthetic generation


def _paint(image: np.ndarray, shape: str, cx: float, cy: float,
           hx: float, hy: float, color: np.ndarray) -> np.ndarray:
    """Paint one shape; returns its boolean footprint."""
    size = image.shape[0]
    yy, xx = np.mgrid[0:size, 0:size]
    if shape == "rectangle":
        footprint = (np.abs(xx - cx) <= hx) & (np.abs(yy - cy) <= hy)
    else:
        footprint = ((xx - cx) / hx) ** 2 + ((yy - cy) / hy) ** 2 <= 1.0
    image[footprint] = color
    return footprint


def _object_geometry(rng: np.random.Generator, cfg: SynthConfig,
                     off_center: bool) -> tuple[str, float, float, float, float]:
    size = cfg.image_size
    shape = cfg.shapes[int(rng.integers(len(cfg.shapes)))]
    lo, hi = DISTRACTOR_SCALE_RANGE if off_center else cfg.scale_range
    hx = rng.uniform(lo, hi) * size / 2.0
    hy = rng.uniform(lo, hi) * size / 2.0
    if off_center:
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(0.3, 0.45) * size
        cx = size / 2.0 + radius * np.cos(angle)
        cy = size / 2.0 + radius * np.sin(angle)
    else:
        cx = size / 2.0 + rng.normal(0.0, cfg.center_sigma * size)
        cy = size / 2.0 + rng.normal(0.0, cfg.center_sigma * size)
    cx = float(np.clip(cx, hx + 1.0, size - 2.0 - hx))
    cy = float(np.clip(cy, hy + 1.0, size - 2.0 - hy))
    return shape, cx, cy, hx, hy


def _jittered(rng: np.random.Generator, anchor: np.ndarray,
              sigma: float) -> np.ndarray:
    color = anchor + rng.normal(0.0, sigma, size=3) if sigma > 0 else anchor.copy()
    return np.clip(color, 0.0, 1.0)


def _render_sample(rng: np.random.Generator, cfg: SynthConfig,
                   label: int) -> tuple[np.ndarray, np.ndarray]:
    size = cfg.image_size
    anchors = cfg.vocabulary.anchor_floats()
    palette = np.asarray(BACKGROUND_PALETTE, dtype=np.float64) / 255.0

    image = np.empty((size, size, 3), dtype=np.float64)
    image[...] = palette[int(rng.integers(len(palette)))]
    for _ in range(cfg.clutter_patches):
        color = palette[int(rng.integers(len(palette)))]
        pw = rng.uniform(0.08, 0.25) * size / 2.0
        ph = rng.uniform(0.08, 0.25) * size / 2.0
        px = rng.uniform(0.0, size - 1.0)
        py = rng.uniform(0.0, size - 1.0)
        _paint(image, "rectangle", px, py, pw, ph, color)
    for _ in range(cfg.distractors):
        other = int(rng.integers(len(anchors) - 1))
        if other >= label:
            other += 1
        shape, cx, cy, hx, hy = _object_geometry(rng, cfg, off_center=True)
        _paint(image, shape, cx, cy, hx, hy,
               _jittered(rng, anchors[other], cfg.jitter_sigma))
    shape, cx, cy, hx, hy = _object_geometry(rng, cfg, off_center=False)
    footprint = _paint(image, shape, cx, cy, hx, hy,
                       _jittered(rng, anchors[label], cfg.jitter_sigma))
    # snap to the 8-bit grid so exports reload bit-exactly
    image = np.rint(image * 255.0) / 255.0
    return image, footprint.astype(np.uint8)


def synth_generate(config: SynthConfig, n_per_class: int
                   ) -> tuple[dict[str, list[WeakSample]], list[EvalSample]]:
    """Generate weak train/val splits and a masked test split.

    Split sizes follow the 40/10/20 per-class pattern: ``n_per_class``
    training images, a quarter of that for validation and half for test
    (at least one each).
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    config.validate()
    rng = np.random.default_rng(config.seed)
    n_val = max(1, n_per_class // 4)
    n_test = max(1, n_per_class // 2)

    weak: dict[str, list[WeakSample]] = {"train": [], "val": []}
    test: list[EvalSample] = []
    for label, name in enumerate(config.vocabulary.names):
        for split, count in (("train", n_per_class), ("val", n_val),
                             ("test", n_test)):
            for idx in range(count):
                image, mask = _render_sample(rng, config, label)
                sample_id = f"{idx:03d}"
                if split == "test":
                    test.append(EvalSample(image=image, label=label,
                                           id=sample_id, mask=mask))
                else:
                    weak[split].append(WeakSample(image=image, label=label,
                                                  id=sample_id))
    return weak, test


def write_dataset(root, weak: dict[str, list[WeakSample]],
                  test: list[EvalSample], config: SynthConfig) -> None:
    """Export generated splits in the on-disk layout, plus a manifest."""
    root = Path(root)
    vocab = config.vocabulary
    for split, samples in list(weak.items()) + [("test", test)]:
        for s in samples:
            class_dir = root / split / vocab.names[s.label]
            class_dir.mkdir(parents=True, exist_ok=True)
            write_ppm(class_dir / f"{s.id}.ppm", s.image)
            if isinstance(s, EvalSample):
                write_pgm(class_dir / f"{s.id}.mask.pgm", s.mask * 255)
    lines = [
        f"seed = {config.seed}",
        f"image_size = {config.image_size}",
        f"classes = {','.join(vocab.names)}",
        f"anchors = {';'.join('%d,%d,%d' % a for a in vocab.anchors)}",
        f"shapes = {','.join(config.shapes)}",
        f"scale_range = {config.scale_range[0]},{config.scale_range[1]}",
        f"jitter_sigma = {config.jitter_sigma}",
        f"center_sigma = {config.center_sigma}",
        f"clutter_patches = {config.clutter_patches}",
        f"distractors = {config.distractors}",
    ]
    for split, samples in list(weak.items()) + [("test", test)]:
        for name, count in per_class_counts(samples, vocab).items():
            lines.append(f"count.{split}.{name} = {count}")
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# resizing


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with the half-pixel (corner-aligned-false)
    convention; a same-size resize returns a bit-identical copy."""
    src = np.asarray(image, dtype=np.float64)
    if out_h < 1 or out_w < 1:
        raise ValueError("target size must be positive")
    h, w = src.shape[:2]
    if (h, w) == (out_h, out_w):
        return src.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    y0c, y1c = np.clip(y0, 0, h - 1), np.clip(y0 + 1, 0, h - 1)
    x0c, x1c = np.clip(x0, 0, w - 1), np.clip(x0 + 1, 0, w - 1)
    if src.ndim == 3:
        fy, fx = fy[:, :, None], fx[:, :, None]
    tl = src[np.ix_(y0c, x0c)]
    tr = src[np.ix_(y0c, x1c)]
    bl = src[np.ix_(y1c, x0c)]
    br = src[np.ix_(y1c, x1c)]
    top = tl * (1.0 - fx) + tr * fx
    bottom = bl * (1.0 - fx) + br * fx
    return top * (1.0 - fy) + bottom * fy
