"""Color vocabularies: ordered name lists plus anchor RGB values.

Anchors serve two purposes: they are the colors the synthetic generator
paints objects with, and the display colors of the per-pixel name map
the inference command writes. The basic eleven English color terms come
with their conventional RGB values; the domain presets (eye, lip, horse,
tomato growing stages) use hand-picked representative colors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ColorVocabulary", "VOCABULARY_PRESETS", "get_vocabulary"]

RGB = tuple[int, int, int]


@dataclass(frozen=True)
class ColorVocabulary:
    """Ordered color-name list; index order is fixed at creation."""

    names: tuple[str, ...]
    anchors: tuple[RGB, ...]

    def __post_init__(self):
        if len(self.names) < 2:
            raise ValueError("a vocabulary needs at least two color names")
        if len(set(self.names)) != len(self.names):
            raise ValueError("color names must be unique")
        if len(self.anchors) != len(self.names):
            raise ValueError("one anchor RGB per color name is required")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown color name {name!r}; vocabulary is "
                           f"{list(self.names)}") from None

    def anchor_floats(self) -> np.ndarray:
        """Anchors as a [C,3] float array in [0, 1] (exact multiples of 1/255)."""
        return np.asarray(self.anchors, dtype=np.float64) / 255.0

    def min_anchor_distance(self) -> float:
        """Smallest pairwise Euclidean anchor distance in [0, 1] RGB space."""
        a = self.anchor_floats()
        diffs = a[:, None, :] - a[None, :, :]
        d = np.sqrt((diffs ** 2).sum(axis=2))
        d[np.diag_indices(len(self))] = np.inf
        return float(d.min())


_BASIC = {
    "black": (0, 0, 0),
    "blue": (0, 0, 255),
    "brown": (139, 69, 19),
    "gray": (128, 128, 128),
    "green": (0, 128, 0),
    "orange": (255, 165, 0),
    "pink": (255, 192, 203),
    "purple": (128, 0, 128),
    "red": (255, 0, 0),
    "white": (255, 255, 255),
    "yellow": (255, 255, 0),
}


def _vocab(pairs: dict[str, RGB]) -> ColorVocabulary:
    return ColorVocabulary(tuple(pairs.keys()), tuple(pairs.values()))


VOCABULARY_PRESETS: dict[str, ColorVocabulary] = {
    "basic11": _vocab(_BASIC),
    # default synthetic-benchmark vocabulary: six well-separated basic terms
    "synthetic6": _vocab({
        "blue": _BASIC["blue"],
        "green": _BASIC["green"],
        "orange": _BASIC["orange"],
        "purple": _BASIC["purple"],
        "red": _BASIC["red"],
        "yellow": _BASIC["yellow"],
    }),
    "eye": _vocab({
        "blue": (60, 110, 180),
        "brown": (96, 56, 20),
        "gray": (135, 140, 145),
        "green": (70, 130, 60),
        "hazel": (160, 115, 55),
    }),
    "lip": _vocab({
        "classic_red": (190, 30, 45),
        "sheer_peach": (245, 165, 130),
        "coral_red": (240, 95, 80),
        "mandarin": (245, 130, 35),
        "nude": (215, 170, 140),
        "plum": (120, 45, 95),
        "wine": (90, 15, 35),
    }),
    "horse": _vocab({
        "black": (15, 15, 15),
        "dark_brown": (70, 45, 25),
        "bright_reddish": (185, 90, 45),
        "dark_gray": (90, 90, 95),
        "champagne": (235, 205, 165),
        "chestnut": (150, 55, 25),
        "dun": (200, 170, 120),
        "white": (245, 245, 240),
        "brown": (115, 80, 50),
    }),
    "tomato": _vocab({
        "green": (70, 145, 60),
        "breakers": (155, 185, 110),
        "tuning": (225, 175, 80),
        "pink": (240, 135, 125),
        "light_red": (245, 85, 70),
        "red": (200, 25, 30),
    }),
}


def get_vocabulary(spec: str) -> ColorVocabulary:
    """Resolve a preset name or a comma-separated explicit name list.

    Explicit lists get preset anchors when every name is a basic term,
    otherwise evenly spaced hues so the name map stays renderable.
    """
    spec = spec.strip()
    if spec in VOCABULARY_PRESETS:
        return VOCABULARY_PRESETS[spec]
    names = tuple(s.strip() for s in spec.split(",") if s.strip())
    if not names:
        raise ValueError(f"empty vocabulary spec {spec!r}")
    if all(n in _BASIC for n in names):
        anchors = tuple(_BASIC[n] for n in names)
    else:
        anchors = tuple(_hue_color(i, len(names)) for i in range(len(names)))
    return ColorVocabulary(names, anchors)


def _hue_color(i: int, n: int) -> RGB:
    """Evenly spaced fully saturated hues (fallback display anchors)."""
    h = (i / n) * 6.0
    x = int(round(255 * (1 - abs(h % 2 - 1))))
    sector = int(h) % 6
    table = [(255, x, 0), (x, 255, 0), (0, 255, x),
             (0, x, 255), (x, 0, 255), (255, 0, x)]
    return table[sector]
