"""What the benchmark measures: workloads, end-to-end metrics and layers.

This module is the single source of ``BENCHMARK.json``
(``python3 perfbench/run.py --write-spec`` renders it), so the workloads,
bounds and per-layer metric names cannot drift from the code that
produces them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# The synthetic6 default config (64 px, cn_width 72, VA 16/32/64,
# 240/60/120 images) on a shortened schedule: one epoch of each phase kind.
TRAIN_SCHEDULE = {"pretrain_epochs": 1, "phase_epochs": 1, "max_phases": 2}
# The checkpoint that eval and infer read is trained during set-up on a
# 24-image dataset: it only has to be produced by the code under test, and
# eval/infer cost does not depend on how well it was trained.
CHECKPOINT_SCHEDULE = {"pretrain_epochs": 1, "phase_epochs": 1,
                       "max_phases": 1, "n_per_class": 4, "cn_batch_size": 24}
SETUP_REPEATS = 3

WORKLOADS = [
    ("train", "chroma train, one PRETRAIN+VA+CN epoch on 240 images: fwd+bwd, "
              "online batchnorm, sgd_step, saliency, checkpoint writes; "
              "batch 32 (PRETRAIN, CN) and batch 6 (VA)"),
    ("eval", "chroma eval over the 120 masked test images: forward only under "
             "no_grad with eval batchnorm plus a native CN pass; kernel gains "
             "show, graph/backward gains do not"),
    ("infer", "closed loop, one client, chroma infer per test image, checkpoint "
              "reloaded each call: load_model, build_networks and netpbm "
              "dominate; batch is one image"),
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


# Timing bounds are the 0.25 maximum. On a shared 2-vCPU x86 virtual
# machine the speed drifts by about 8% over tens of seconds (a fixed numpy
# kernel ran between 12.6 and 18.5 ms within one minute). Over ten seeds,
# the quartile distance of each timing metric was 0.04 to 0.17 of its
# median, and two sets of ten runs had medians up to 0.22 apart (infer p95).
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("img_s", "img/s", "higher", 0.25),
    Metric("p50_ms", "ms", "lower", 0.25),
    Metric("p95_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("success_rate", "ratio", "higher", 0.01),
]


@dataclass(frozen=True)
class Layer:
    """One traced layer.

    ``targets`` are ``module:qualname`` strings. A module-level function
    is replaced wherever a chroma module has bound it; a method is
    replaced on its class. ``bwd`` names the span of the backward
    closure of each node the call returns. ``nbytes`` says how a call's
    bytes are counted: ``result`` (output array), ``params`` (parameter
    arrays updated), ``path`` (size of the file named by the first
    argument), or None. ``self_metric`` reports the span's self time
    under that name. Layers with ``report=False`` are traced only so
    their backward time is not counted as ``Tensor.backward`` overhead.
    ``phase`` is the part of a run whose spans the metrics count.
    ``moves`` is the end-to-end metric the layer should move.
    """

    name: str
    targets: tuple[str, ...]
    moves: str = ""
    nbytes: str | None = None
    bwd: str | None = None
    self_metric: str | None = None
    report: bool = True
    phase: str = "measure"


_OP_MOVES = "img_s, p50_ms, p95_ms on train; the fwd part also img_s on eval"
_OPS = ("conv2d", "deconv2d", "maxpool2d", "batchnorm", "relu",
        "fully_connected", "concat_channels", "channel_softmax",
        "crop_spatial", "cross_entropy")
_UNREPORTED_OPS = (("chroma.tensor", "reshape"), ("chroma.tensor", "global_avgpool"),
                   ("chroma.tensor", "vector_softmax"), ("chroma.tensor", "tensor_sum"),
                   ("chroma.tensor", "slice_channels"),
                   ("chroma.networks", "masked_nll_loss"))

LAYERS = [
    *(Layer(f"tensor.{op}.fwd", (f"chroma.tensor:{op}",), _OP_MOVES,
            nbytes="result", bwd=f"tensor.{op}.bwd") for op in _OPS),
    *(Layer(f"tensor.{fn}.fwd", (f"{mod}:{fn}",), nbytes="result",
            bwd=f"tensor.{fn}.bwd", report=False) for mod, fn in _UNREPORTED_OPS),
    Layer("tensor.backward", ("chroma.tensor:Tensor.backward",),
          "img_s on train; 0 on eval and infer",
          self_metric="tensor.backward.overhead_s"),
    Layer("tensor.sgd_step", ("chroma.tensor:sgd_step",),
          "img_s on train, most through the VA epoch (40 steps over fc1)",
          nbytes="params"),
    Layer("modulation.modulate", ("chroma.modulation:modulate",),
          "img_s on train (VA and CN epochs)", nbytes="result",
          bwd="modulation.modulate.bwd"),
    Layer("modulation.aggregate_scores", ("chroma.modulation:aggregate_scores",),
          "img_s on train (VA and CN epochs)"),
    Layer("networks.cn_forward", ("chroma.networks:CnNet.forward",),
          "img_s on eval, p50_ms on infer",
          self_metric="networks.cn_forward.self_s"),
    Layer("networks.va_forward", ("chroma.networks:VaNet.forward",),
          "img_s on eval, p50_ms on infer",
          self_metric="networks.va_forward.self_s"),
    Layer("saliency.compute", ("chroma.saliency:compute_saliency",),
          "wall_s on train"),
    Layer("checkpoint.write", ("chroma.checkpoint:write_checkpoint",),
          "wall_s on train", nbytes="path"),
    Layer("checkpoint.read", ("chroma.checkpoint:read_checkpoint",),
          "p50_ms on infer", nbytes="path"),
    Layer("training.build_networks", ("chroma.training:build_networks",),
          "p50_ms on infer"),
    Layer("netpbm.read", ("chroma.netpbm:read_ppm", "chroma.netpbm:read_pgm"),
          "p50_ms on infer", nbytes="path"),
    Layer("netpbm.write", ("chroma.netpbm:write_ppm", "chroma.netpbm:write_pgm"),
          "p50_ms on infer", nbytes="path"),
    Layer("data.synth", ("chroma.data:synth_generate", "chroma.data:write_dataset"),
          "setup_s", phase="setup"),
    Layer("data.load", ("chroma.data:load_weak_dataset", "chroma.data:load_eval_dataset"),
          "setup_s; wall_s on train and eval"),
]

# tracing's own cost, from the traced run's untraced and traced halves
TRACE_METRICS = [Metric("trace.overhead", "ratio", "lower"),
                 Metric("trace.spans", "count", "lower")]


def layer_metrics(layer: Layer) -> list[Metric]:
    """Per-layer metrics of one layer: ``_s``, ``.calls`` and ``.bytes``
    for its forward span and, if it has one, its backward span."""
    if not layer.report:
        return []
    out = []
    for span in (layer.name, layer.bwd):
        if span is None:
            continue
        out.append(Metric(f"{span}_s", "s", "lower"))
        out.append(Metric(f"{span}.calls", "count", "lower"))
        if layer.nbytes is not None:
            out.append(Metric(f"{span}.bytes", "B", "lower"))
    if layer.self_metric:
        out.append(Metric(layer.self_metric, "s", "lower"))
    return out


PER_LAYER = [m for layer in LAYERS for m in layer_metrics(layer)] + TRACE_METRICS


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
