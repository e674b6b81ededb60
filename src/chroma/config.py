"""Flat ``key = value`` run configuration.

One text format drives every command: ``#`` starts a comment, blank
lines are ignored, unknown keys are rejected so typos fail fast. The
same text is embedded into checkpoints so a trained model can be
rebuilt without the original config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from chroma.vocab import ColorVocabulary, get_vocabulary

__all__ = ["ConfigError", "RunConfig", "parse_kv_text", "format_kv"]


class ConfigError(ValueError):
    """Bad configuration or vocabulary mismatch (CLI exit code 4)."""


def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def format_kv(items: dict[str, object]) -> str:
    return "\n".join(f"{k} = {v}" for k, v in items.items()) + "\n"


@dataclass
class RunConfig:
    """Every knob of the pipeline, with desk-scale defaults."""

    # data
    dataset_root: str = ""
    out_dir: str = "out"
    vocabulary: str = "synthetic6"
    resolution: int = 64
    # optimization
    learning_rate: float = 0.01
    lr_decay_epochs: int = 20
    momentum: float = 0.9
    cn_batch_size: int = 32
    va_batch_size: int = 6
    pretrain_epochs: int = 10
    phase_epochs: int = 5
    max_phases: int = 10
    convergence_tol: float = 1e-3
    seed: int = 0
    ablation: str = "none"
    # network
    cn_width: int = 72
    va_stages: int = 3
    va_channels: str = "16,32,64"
    va_fc_width: int = 512
    va_bottleneck_channels: int = 8
    va_dec_channels: str = "32,16,8"
    # synthetic generator
    n_per_class: int = 40
    image_size: int = 64
    jitter_sigma: float = 0.02
    center_sigma: float = 0.15
    scale_min: float = 0.25
    scale_max: float = 0.45
    shapes: str = "rectangle,ellipse"
    clutter_patches: int = 8
    distractors: int = 0

    ABLATIONS = ("none", "no-attention", "no-prior", "no-alternation")

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values = parse_kv_text(text)
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, raw in values.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            ftype = known[key].type
            try:
                if ftype == "int":
                    kwargs[key] = int(raw)
                elif ftype == "float":
                    kwargs[key] = float(raw)
                else:
                    kwargs[key] = raw
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_text(Path(path).read_text())

    def to_text(self) -> str:
        return format_kv({f.name: getattr(self, f.name) for f in fields(self)})

    def validate(self) -> None:
        if self.ablation not in self.ABLATIONS:
            raise ConfigError(f"ablation must be one of {self.ABLATIONS}, got "
                              f"{self.ablation!r}")
        for f in fields(self):
            if f.type != "float":
                continue
            value = getattr(self, f.name)
            if math.isnan(value):
                raise ConfigError(f"{f.name} must be a number, got nan")
            # an infinite tolerance means "stop at the first comparison"
            if math.isinf(value) and f.name != "convergence_tol":
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.convergence_tol < 0:
            raise ConfigError("convergence_tol must be non-negative")
        for name in ("seed", "clutter_patches", "distractors"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name in ("resolution", "cn_batch_size", "va_batch_size",
                     "pretrain_epochs", "phase_epochs", "max_phases",
                     "cn_width", "va_stages", "va_fc_width",
                     "va_bottleneck_channels", "image_size", "lr_decay_epochs",
                     "n_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        # VaNet's va_stages ceil-mode halvings must leave a grid of at
        # least 2x2, i.e. resolution > 2**va_stages
        if (self.resolution - 1) >> self.va_stages == 0:
            raise ConfigError(f"resolution {self.resolution} must exceed "
                              f"2**va_stages = 2**{self.va_stages}")
        for name in ("va_channels", "va_dec_channels"):
            widths = self._int_list(getattr(self, name))
            if len(widths) != self.va_stages:
                raise ConfigError(f"{name} must list one width per stage")
            if min(widths) < 1:
                raise ConfigError(f"{name} widths must be at least 1")
        try:
            self.vocab()
        except ValueError as exc:
            raise ConfigError(f"vocabulary {self.vocabulary!r}: {exc}") from exc

    @staticmethod
    def _int_list(raw: str) -> tuple[int, ...]:
        try:
            return tuple(int(v) for v in raw.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"expected comma-separated integers, got {raw!r}") \
                from exc

    def vocab(self) -> ColorVocabulary:
        return get_vocabulary(self.vocabulary)

    def va_channel_list(self) -> tuple[int, ...]:
        return self._int_list(self.va_channels)

    def va_dec_channel_list(self) -> tuple[int, ...]:
        return self._int_list(self.va_dec_channels)
