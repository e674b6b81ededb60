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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chroma.config import ConfigError, RunConfig
from chroma.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from chroma.vocab import ColorVocabulary

__all__ = [
    "WeakSample",
    "EvalSample",
    "load_weak_dataset",
    "load_eval_dataset",
    "generator_plan",
    "synth_generate",
    "write_dataset",
    "resize_bilinear",
    "per_class_counts",
]

SPLITS = ("train", "val", "test")

# Backgrounds and clutter are drawn from six colors at least
# BACKGROUND_MARGIN (RGB distance in [0, 1] units) from every class
# anchor, so no background pixel looks like a class color: these grays
# and muted tints, each replaced where an anchor is too close by a muted
# color (channel spread under 0.2) of a 16-step RGB grid.
BACKGROUND_PALETTE = (
    (64, 64, 64), (112, 112, 112), (160, 160, 160),
    (88, 100, 112), (112, 100, 88), (96, 112, 96),
)
BACKGROUND_MARGIN = 0.25
_GRID = np.indices((16, 16, 16)).reshape(3, -1).T * 16 / 255.0
_MUTED_GRID = _GRID[_GRID.max(axis=1) - _GRID.min(axis=1) < 0.2]
# upper bounds on the generator keys that size its work and memory
GENERATOR_LIMITS = {"n_per_class": 1000, "image_size": 512,
                    "clutter_patches": 100, "distractors": 10}
# and on their product: the dataset is generated in memory as float64,
# about 1.75 x classes x n_per_class x image_size**2 x 24 bytes
GENERATOR_MAX_BYTES = 4 * 2**30
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


# ---------------------------------------------------------------------------
# loading


def _class_dirs(split_dir: Path, vocab: ColorVocabulary) -> list[tuple[str, Path]]:
    dirs = sorted(p for p in split_dir.iterdir() if p.is_dir())
    for p in dirs:
        if p.name not in vocab.names:
            raise ConfigError(f"unknown class folder {p} (vocabulary: "
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


def _nearest_distance(colors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Distance from each of ``colors`` [N,3] to the nearest of ``targets``."""
    diffs = colors[:, None, :] - targets[None, :, :]
    return np.sqrt((diffs ** 2).sum(axis=2)).min(axis=1)


def _background_palette(anchors: np.ndarray) -> np.ndarray:
    """Six background colors [6,3] that keep the margin from ``anchors``.

    Each fixed palette color that keeps the margin stays; any other gives
    way to the nearest muted grid color that keeps it and is not taken
    yet (first in grid order on ties). The palette so keeps the fixed
    one's mid tones and spacing: high-contrast clutter (near white or
    near black) lowers accuracy on the domain presets.
    """
    fixed = np.asarray(BACKGROUND_PALETTE, dtype=np.float64) / 255.0
    keep = _nearest_distance(fixed, anchors) >= BACKGROUND_MARGIN
    grid = _MUTED_GRID[_nearest_distance(_MUTED_GRID, anchors) >= BACKGROUND_MARGIN]
    if keep.sum() + len(grid) < len(fixed):
        raise ConfigError(f"only {keep.sum() + len(grid)} background colors keep "
                          f"the margin {BACKGROUND_MARGIN} from every class "
                          f"anchor; {len(fixed)} are needed")
    palette = []
    for color, kept in zip(fixed, keep):
        if not kept:
            i = int(np.argmin(((grid - color) ** 2).sum(axis=1)))
            color, grid = grid[i], np.delete(grid, i, axis=0)
        palette.append(color)
    return np.asarray(palette)


def generator_plan(cfg: RunConfig) -> tuple[tuple[str, ...], np.ndarray,
                                             np.ndarray]:
    """The object shapes, [C,3] anchor colors and [6,3] background palette
    (in [0, 1]) of a validated run config; ``ConfigError`` for generator
    settings that cannot be honored."""
    for name, limit in GENERATOR_LIMITS.items():
        if getattr(cfg, name) > limit:
            raise ConfigError(f"{name} must be at most {limit}")
    size = 1.75 * len(cfg.vocab()) * cfg.n_per_class * cfg.image_size ** 2 * 24
    if size > GENERATOR_MAX_BYTES:
        raise ConfigError(f"the generated dataset would take about "
                          f"{size / 2**30:.2f} GiB, above the "
                          f"{GENERATOR_MAX_BYTES / 2**30:g} GiB bound")
    if cfg.image_size < 8:
        raise ConfigError("image_size must be at least 8")
    lo, hi = cfg.scale_min, cfg.scale_max
    if not 0.05 <= lo <= hi <= 0.9:
        raise ConfigError(f"scale_range {(lo, hi)} out of bounds")
    if cfg.jitter_sigma < 0 or cfg.center_sigma < 0:
        raise ConfigError("sigmas must be non-negative")
    shapes = tuple(s.strip() for s in cfg.shapes.split(",") if s.strip())
    if not shapes or any(s not in ("rectangle", "ellipse") for s in shapes):
        raise ConfigError(f"unknown shape in {shapes}")
    vocab = cfg.vocab()
    min_dist = vocab.min_anchor_distance()
    if min_dist <= 6.0 * cfg.jitter_sigma:
        raise ConfigError(
            f"jitter_sigma {cfg.jitter_sigma} is too large: nearest-anchor "
            f"classification needs min pairwise anchor distance "
            f"({min_dist:.3f}) > 6*sigma ({6 * cfg.jitter_sigma:.3f})")
    anchors = vocab.anchor_floats()
    return shapes, anchors, _background_palette(anchors)


def _paint(image: np.ndarray, shape: str, cx: float, cy: float,
           hx: float, hy: float, color: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Paint one shape; returns a (rows, columns) box around it and its
    footprint in the box, each pixel tested as on the whole image (none
    outside can pass: both shapes keep within hx, hy of the center)."""
    size = image.shape[0]
    box = (slice(max(0, int(cy - hy) - 1), min(size, int(cy + hy) + 2)),
           slice(max(0, int(cx - hx) - 1), min(size, int(cx + hx) + 2)))
    yy, xx = np.ogrid[box]
    if shape == "rectangle":
        footprint = (np.abs(xx - cx) <= hx) & (np.abs(yy - cy) <= hy)
    else:
        footprint = ((xx - cx) / hx) ** 2 + ((yy - cy) / hy) ** 2 <= 1.0
    image[box][footprint] = color
    return box, footprint


def _object_geometry(rng: np.random.Generator, cfg: RunConfig,
                     shapes: tuple[str, ...], off_center: bool
                     ) -> tuple[str, float, float, float, float]:
    size = cfg.image_size
    shape = shapes[int(rng.integers(len(shapes)))]
    lo, hi = DISTRACTOR_SCALE_RANGE if off_center else (cfg.scale_min,
                                                        cfg.scale_max)
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


def _render_sample(rng: np.random.Generator, cfg: RunConfig, plan,
                   label: int) -> tuple[np.ndarray, np.ndarray]:
    size = cfg.image_size
    shapes, anchors, palette = plan

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
        shape, cx, cy, hx, hy = _object_geometry(rng, cfg, shapes, off_center=True)
        _paint(image, shape, cx, cy, hx, hy,
               _jittered(rng, anchors[other], cfg.jitter_sigma))
    shape, cx, cy, hx, hy = _object_geometry(rng, cfg, shapes, off_center=False)
    box, footprint = _paint(image, shape, cx, cy, hx, hy,
                            _jittered(rng, anchors[label], cfg.jitter_sigma))
    mask = np.zeros((size, size), dtype=np.uint8)
    mask[box] = footprint
    # snap to the 8-bit grid so exports reload bit-exactly
    image = np.rint(image * 255.0) / 255.0
    return image, mask


def synth_generate(cfg: RunConfig
                   ) -> tuple[dict[str, list[WeakSample]], list[EvalSample]]:
    """Generate weak train/val splits and a masked test split.

    Split sizes follow the 40/10/20 per-class pattern: ``n_per_class``
    training images, a quarter of that for validation and half for test
    (at least one each). ``distractors`` adds off-center objects in
    wrong-class colors (never in the mask), which penalizes attention
    that drifts away from the center.
    """
    plan = generator_plan(cfg)
    rng = np.random.default_rng(cfg.seed)
    n_val = max(1, cfg.n_per_class // 4)
    n_test = max(1, cfg.n_per_class // 2)

    weak: dict[str, list[WeakSample]] = {"train": [], "val": []}
    test: list[EvalSample] = []
    for label, name in enumerate(cfg.vocab().names):
        for split, count in (("train", cfg.n_per_class), ("val", n_val),
                             ("test", n_test)):
            for idx in range(count):
                image, mask = _render_sample(rng, cfg, plan, label)
                sample_id = f"{idx:03d}"
                if split == "test":
                    test.append(EvalSample(image=image, label=label,
                                           id=sample_id, mask=mask))
                else:
                    weak[split].append(WeakSample(image=image, label=label,
                                                  id=sample_id))
    return weak, test


def write_dataset(root, weak: dict[str, list[WeakSample]],
                  test: list[EvalSample], cfg: RunConfig) -> None:
    """Export generated splits in the on-disk layout, plus a manifest."""
    root = Path(root)
    vocab = cfg.vocab()
    for split, samples in list(weak.items()) + [("test", test)]:
        for s in samples:
            class_dir = root / split / vocab.names[s.label]
            class_dir.mkdir(parents=True, exist_ok=True)
            write_ppm(class_dir / f"{s.id}.ppm", s.image)
            if isinstance(s, EvalSample):
                write_pgm(class_dir / f"{s.id}.mask.pgm", s.mask * 255)
    lines = [
        f"seed = {cfg.seed}",
        f"image_size = {cfg.image_size}",
        f"classes = {','.join(vocab.names)}",
        f"anchors = {';'.join('%d,%d,%d' % a for a in vocab.anchors)}",
        f"shapes = {','.join(generator_plan(cfg)[0])}",
        f"scale_range = {cfg.scale_min},{cfg.scale_max}",
        f"jitter_sigma = {cfg.jitter_sigma}",
        f"center_sigma = {cfg.center_sigma}",
        f"clutter_patches = {cfg.clutter_patches}",
        f"distractors = {cfg.distractors}",
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
