"""Seed sweep of the reduced acceptance config.

    python tests/sweep.py SRC [--seeds 11-13] [--ablations LIST] [--presets LIST]

``SRC`` is the ``src`` directory of one source tree. For each preset and
seed, ``chroma synth`` runs once, then ``chroma train`` and ``chroma
eval`` for each ablation, at the reduced config of criterion 7
(``REDUCED_CFG`` in ``tests/test_acceptance.py``, with the preset as its
vocabulary). Every command runs in a subprocess of that tree with
``CHROMA_THREADS=1``, at most two at a time, in a fresh temporary
directory. Seeds are a comma-separated list of numbers and ranges
(``11-24``); ablations and presets are comma-separated names.

It prints, per preset:

- one row per seed and ablation: image accuracy, pixel accuracy and the
  fraction of test images whose attention ratio is at least 2;
- per ablation, the mean and sample SD of image accuracy over the seeds;
- the seeds where full (``none``) < ``no-alternation``;
- how many three-seed windows (every set of three of the seeds) meet
  criterion 7: mean full >= mean no-alternation >= mean no-attention,
  and full - no-attention >= 0.05.

The last two need the ablations they compare. At seeds 11-13 the means
of ``none``, ``no-alternation`` and ``no-attention`` are the values
criterion 7 reports.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
WORKERS = 2
COLUMNS = ("image_accuracy", "pixel_accuracy", "attention_ratio_ge_2_fraction")
CRITERION7 = ("none", "no-alternation", "no-attention")


def reduced_config() -> str:
    """``REDUCED_CFG`` of the acceptance suite, read without importing it."""
    for node in ast.parse(ACCEPTANCE.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["REDUCED_CFG"]):
            return ast.literal_eval(node.value)
    sys.exit(f"{ACCEPTANCE} defines no REDUCED_CFG")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(src: Path, *args) -> None:
    """One ``chroma`` command of the tree at ``src``; it must succeed."""
    env = dict(os.environ, PYTHONPATH=str(src), CHROMA_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "chroma.cli", *map(str, args)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: chroma {' '.join(map(str, args))} exited "
                           f"{proc.returncode}:\n{proc.stderr}")


def read_metrics(path: Path) -> dict[str, float]:
    metrics = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            metrics[key.strip()] = float(value)
    return metrics


def meets_criterion7(means: dict[str, float]) -> bool:
    full, no_alt, no_attn = (means[a] for a in CRITERION7)
    return full >= no_alt >= no_attn and full - no_attn >= 0.05


def report(preset: str, seeds: list[int], ablations: list[str],
           results: dict) -> None:
    print(f"\npreset {preset}")
    print(f"{'seed':>5}  {'ablation':<15}  {'image':>6}  {'pixel':>6}  "
          f"{'ratio>=2':>8}")
    for seed in seeds:
        for ablation in ablations:
            row = results[preset, seed, ablation]
            print(f"{seed:>5}  {ablation:<15}  " + "  ".join(
                f"{row[c]:>{w}.4f}" if c in row else f"{'-':>{w}}"
                for c, w in zip(COLUMNS, (6, 6, 8))))
    acc = {a: [results[preset, s, a]["image_accuracy"] for s in seeds]
           for a in ablations}
    print(f"{'ablation':<15}  {'mean':>6}  {'sd':>6}  (image accuracy over "
          f"{len(seeds)} seeds)")
    for ablation, values in acc.items():
        sd = statistics.stdev(values) if len(values) > 1 else float("nan")
        print(f"{ablation:<15}  {statistics.mean(values):>6.3f}  {sd:>6.3f}")
    if "none" in acc and "no-alternation" in acc:
        worse = [s for s, full, alt in zip(seeds, acc["none"],
                                           acc["no-alternation"]) if full < alt]
        print(f"full < no-alternation on {len(worse)} of {len(seeds)} seeds: "
              f"{' '.join(map(str, worse)) or '-'}")
    if all(a in acc for a in CRITERION7) and len(seeds) >= 3:
        windows = list(itertools.combinations(range(len(seeds)), 3))
        met = sum(meets_criterion7({a: statistics.mean(acc[a][i] for i in w)
                                    for a in CRITERION7}) for w in windows)
        print(f"criterion 7 met by {met} of {len(windows)} three-seed windows")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--seeds", default="11-13", type=seed_list)
    parser.add_argument("--ablations", default=",".join(CRITERION7))
    parser.add_argument("--presets", default="synthetic6")
    args = parser.parse_args()
    src = args.src.resolve()
    ablations = args.ablations.split(",")
    presets = args.presets.split(",")
    template = reduced_config()
    work = Path(tempfile.mkdtemp(prefix="chroma-sweep-"))
    try:
        configs = {}
        for preset, seed in itertools.product(presets, args.seeds):
            base = work / f"{preset}-{seed}"
            base.mkdir()
            cfg = base / "run.cfg"
            cfg.write_text(template.format(root=base / "data", out=base / "run",
                                           seed=seed)
                           + f"vocabulary = {preset}\n")
            configs[preset, seed] = cfg

        def synth(key):
            run(src, "synth", "--config", configs[key], "--out",
                configs[key].parent / "data")

        def train(key):
            preset, seed, ablation = key
            out = configs[preset, seed].parent / ablation
            run(src, "train", "--config", configs[preset, seed], "--ablation",
                ablation, "--out", out)
            run(src, "eval", "--checkpoint", out / "final.ckpt", "--out",
                out / "eval")
            return read_metrics(out / "eval" / "metrics.txt")

        keys = list(itertools.product(presets, args.seeds, ablations))
        with ThreadPoolExecutor(WORKERS) as pool:
            list(pool.map(synth, configs))
            results = dict(zip(keys, pool.map(train, keys)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for preset in presets:
        report(preset, args.seeds, ablations, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
