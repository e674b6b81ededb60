"""Set-up, units of work and output checks of the three workloads.

Every call into the program goes through ``chroma.cli.main`` in this
process, exactly as ``chroma <subcommand>`` would run it. Inputs come only
from ``chroma synth --seed``. A workload repeats its unit of work (one
``chroma train``, one ``chroma eval`` pass, one ``chroma infer`` call)
until the measuring time is spent, and always completes at least one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from benchspec import CHECKPOINT_SCHEDULE, SETUP_REPEATS, TRAIN_SCHEDULE
from benchstats import tail

PHASE_KINDS = ("PRETRAIN", "VA", "CN")
OUTPUT_ERRORS = (OSError, ValueError, KeyError, IndexError)


@dataclass
class Unit:
    """One unit of work: its wall time and per-image latency samples."""

    wall_s: float
    item_ms: list[float]
    images: int
    busy_s: float
    digest: str = ""
    phase_images: dict[str, int] = field(default_factory=dict)
    phase_s: dict[str, float] = field(default_factory=dict)


def _write_config(path: Path, **keys) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))


def _read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _ppm_size(path: Path) -> tuple[int, int]:
    magic, width, height = path.read_bytes()[:32].split()[:3]
    if magic != b"P6":
        raise ValueError(f"{path} is not a binary PPM")
    return int(width), int(height)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """One benchmark run of one workload in a work directory it owns."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = root / ".perfbench" / f"work-{workload}-seed{seed}"
        self.setup_dir = self.work / "setup"
        self.n_train = 0
        self.test_images: list[Path] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._first_eval_text: str | None = None
        self.reference: dict[Path, tuple[str, dict[str, float]]] = {}

    # -- plumbing -----------------------------------------------------

    def cli(self, *argv) -> tuple[int, float]:
        """Run ``chroma <argv>`` in this process; (exit code, seconds)."""
        import chroma.cli
        args = [str(a) for a in argv]
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = chroma.cli.main(args)
        except Exception:  # a crash is a failed call; keep measuring
            traceback.print_exc(file=sys.stderr)
            rc = -1
        return rc, perf_counter() - t0

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            message = f"{what}: " + "; ".join(problems)
            self.failures.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    @property
    def full_cfg(self) -> Path:
        return self.setup_dir / "full.cfg"

    @property
    def checkpoint(self) -> Path:
        return self.setup_dir / "ckpt" / "final.ckpt"

    # -- set-up -------------------------------------------------------

    def setup_once(self) -> tuple[float, list[int]]:
        """Synthesize the dataset and train the eval/infer checkpoint.

        Always in the same directory, so the checkpoint (which embeds its
        dataset path) is byte-comparable across repeats.
        """
        d = self.setup_dir
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
        _write_config(self.full_cfg, dataset_root=d / "data", out_dir=d / "run",
                      **TRAIN_SCHEDULE)
        _write_config(d / "tiny.cfg", dataset_root=d / "tiny", out_dir=d / "ckpt",
                      **CHECKPOINT_SCHEDULE)
        t0 = perf_counter()
        rcs = [self.cli("synth", "--config", self.full_cfg, "--out", d / "data",
                        "--seed", self.seed)[0],
               self.cli("synth", "--config", d / "tiny.cfg", "--out", d / "tiny",
                        "--seed", self.seed)[0],
               self.cli("train", "--config", d / "tiny.cfg", "--seed", self.seed)[0]]
        return perf_counter() - t0, rcs

    def setup(self, repeats: int = SETUP_REPEATS) -> list[float]:
        """Set up ``repeats`` times; synth output and checkpoint must be
        byte-identical each time (same code, same seed). A failed call
        leaves nothing to measure and raises."""
        times, first = [], None
        for k in range(repeats):
            t, rcs = self.setup_once()
            times.append(t)
            failed = [f"exit {rc}" for rc in rcs if rc != 0]
            if failed:
                self.check(f"set-up {k}", failed)
                raise RuntimeError(f"set-up failed: {failed}")
            digests = (_tree_digest(self.setup_dir / "data"),
                       _file_digest(self.checkpoint))
            first = first or digests
            self.check(f"set-up {k}", [
                f"{what} differs from the first set-up"
                for what, now, then in zip(("synth output", "final.ckpt"),
                                           digests, first) if now != then])
        data = self.setup_dir / "data"
        self.n_train = len(list((data / "train").rglob("*.ppm")))
        self.test_images = sorted((data / "test").rglob("*.ppm"))
        return times

    # -- units of work --------------------------------------------------

    def unit(self, i: int) -> Unit:
        return getattr(self, f"_{self.workload}_unit")(i)

    def _train_unit(self, i: int) -> Unit:
        out = self.work / f"train{i}"
        rc, t = self.cli("train", "--config", self.full_cfg, "--seed", self.seed,
                         "--out", out)
        unit = Unit(wall_s=t, item_ms=[], images=0, busy_s=0.0)
        problems = [] if rc == 0 else [f"exit {rc}"]
        if rc == 0:
            try:
                self._read_trainlog(out, unit, problems)
                unit.digest = _file_digest(out / "final.ckpt")
            except OUTPUT_ERRORS as exc:
                problems.append(f"unreadable output: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        self.check(f"train run {i}", problems)
        return unit

    def _read_trainlog(self, out: Path, unit: Unit, problems: list[str]) -> None:
        log = _read_kv(out / "trainlog.kv")
        for e in sorted({int(k.split(".")[1]) for k in log}):
            phase = log[f"epoch.{e}.phase"]
            loss = float(log[f"epoch.{e}.loss"])
            wall = float(log[f"epoch.{e}.wall_time"])
            if not math.isfinite(loss):
                problems.append(f"epoch {e} loss {loss}")
            unit.item_ms.append(1000.0 * wall / self.n_train)
            unit.images += self.n_train
            unit.busy_s += wall
            unit.phase_images[phase] = unit.phase_images.get(phase, 0) + self.n_train
            unit.phase_s[phase] = unit.phase_s.get(phase, 0.0) + wall
        missing = [p for p in PHASE_KINDS if p not in unit.phase_images]
        if missing:
            problems.append(f"no {'/'.join(missing)} epoch logged")

    def _eval_unit(self, i: int) -> Unit:
        out = self.work / "eval"
        rc, t = self.cli("eval", "--checkpoint", self.checkpoint,
                         "--config", self.full_cfg, "--out", out)
        n = len(self.test_images)
        problems = [] if rc == 0 else [f"exit {rc}"]
        if rc == 0:
            try:
                text = (out / "metrics.txt").read_text()
                metrics = _read_kv(out / "metrics.txt")
                if metrics.get("n_images") != str(n):
                    problems.append(f"n_images {metrics.get('n_images')} != {n}")
                for key, value in metrics.items():
                    if "accuracy" in key or "fraction" in key or "iou" in key:
                        if not 0.0 <= float(value) <= 1.0:
                            problems.append(f"{key} = {value} outside [0, 1]")
                self._first_eval_text = self._first_eval_text or text
                if text != self._first_eval_text:
                    problems.append("metrics differ from the first pass")
            except OUTPUT_ERRORS as exc:
                problems.append(f"unreadable output: {exc!r}")
        self.check(f"eval pass {i}", problems)
        return Unit(wall_s=t, item_ms=[1000.0 * t / n], images=n, busy_s=t)

    def _infer_unit(self, i: int) -> Unit:
        image = self.test_images[i % len(self.test_images)]
        out = self.work / "infer"
        rc, t = self.cli("infer", image, "--checkpoint", self.checkpoint, "--out", out)
        problems = [] if rc == 0 else [f"exit {rc}"]
        if rc == 0:
            try:
                expected, probs = self.reference[image]
                printed = _read_kv(out / "prediction.txt")
                if printed.get("predicted") != expected:
                    problems.append(f"predicted {printed.get('predicted')}, "
                                    f"load_model forward gives {expected}")
                for name, p in probs.items():
                    if abs(float(printed[f"p.{name}"]) - p) > 1e-5:
                        problems.append(f"p.{name} = {printed[f'p.{name}']}, "
                                        f"load_model forward gives {p:.6f}")
                for name in ("attention.ppm", "color_names.ppm"):
                    size = _ppm_size(out / name)
                    if size != (64, 64):
                        problems.append(f"{name} is {size[0]}x{size[1]}, not 64x64")
            except OUTPUT_ERRORS as exc:
                problems.append(f"unreadable output: {exc!r}")
        self.check(f"infer call {i} on {image.name}", problems)
        return Unit(wall_s=t, item_ms=[1000.0 * t], images=1, busy_s=t)

    def prepare(self) -> None:
        """Work a workload's checks need before measuring: for infer, the
        class and class probabilities each test image gets from an
        in-process ``load_model`` forward."""
        if self.workload != "infer":
            return
        import numpy as np
        from chroma.netpbm import read_ppm
        from chroma.networks import full_forward
        from chroma.tensor import no_grad
        from chroma.training import load_model
        cn, va, cfg, _ = load_model(self.checkpoint)
        for image in self.test_images:
            pixels = read_ppm(image).astype(np.float32)
            with no_grad():
                _, _, score = full_forward(cn, va, pixels)
            names = cfg.vocab().names
            self.reference[image] = (names[score.argmax()],
                                     dict(zip(names, map(float, score.probabilities()))))

    def measure(self) -> list[Unit]:
        units: list[Unit] = []
        t0 = perf_counter()
        while not units or perf_counter() - t0 < self.seconds:
            units.append(self.unit(len(units)))
        return units

    # -- results --------------------------------------------------------

    @property
    def failed(self) -> int:
        return len(self.failures)

    def end_to_end(self, setup_times: list[float], units: list[Unit]) -> dict:
        """Every end-to-end metric, plus workload-specific names for the
        ones this workload measures (``aliases``) and sample counts."""
        items = [ms for u in units for ms in u.item_ms]
        if not items:
            raise RuntimeError("no unit of work completed")
        tail_ms, tail_pct, n = tail(items)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(u.wall_s for u in units),
            "img_s": sum(u.images for u in units) / sum(u.busy_s for u in units),
            "p50_ms": statistics.median(items),
            "p95_ms": tail_ms,
            "peak_rss_mb": peak_rss_mb(),
            "success_rate": 1.0 - self.failed / self.attempted,
        }
        aliases = {"error_rate": self.failed / self.attempted}
        if self.workload == "train":
            aliases["train_s"] = metrics["wall_s"]
            for phase in PHASE_KINDS:
                images = sum(u.phase_images.get(phase, 0) for u in units)
                secs = sum(u.phase_s.get(phase, 0.0) for u in units)
                aliases[f"{phase.lower()}_img_s"] = images / secs if secs else 0.0
        elif self.workload == "eval":
            aliases["eval_img_s"] = metrics["img_s"]
        else:
            aliases["infer_p50_ms"] = metrics["p50_ms"]
            aliases[f"infer_p{tail_pct}_ms"] = metrics["p95_ms"]
        samples = {"setups": len(setup_times), "units": len(units),
                   "latency_samples": n, "tail_percentile": tail_pct}
        return {"metrics": metrics, "aliases": aliases, "samples": samples}

    def check_same_checkpoint(self, units: list[Unit], what: str) -> None:
        digests = {u.digest for u in units if u.digest}
        self.check(what, [] if len(digests) <= 1 else
                   ["final.ckpt differs between runs with the same seed"])

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
