"""Byte-identity check of a change against its parent.

    python tests/identity_check.py PARENT_SRC CHANGE_SRC

Each argument is the ``src`` directory of one source tree. Every command
runs in a subprocess of that tree with ``CHROMA_THREADS=1``, in a fresh
temporary directory: ``synth`` with a tiny config, ``train`` for each
ablation at each (``max_phases``, ``convergence_tol``) schedule, with
both sides training on the parent's dataset (one path, so the configs
embedded in the checkpoints agree), ``eval`` and ``infer`` on each
``final.ckpt``, and a resume of the change from every checkpoint the
parent wrote. At 16 px every parameter fits in one of ``sgd_step``'s
row blocks, so one more ``train`` runs at the default size (64 px,
the default dataset, one pretraining and one epoch in each of two
phases) on both sides, and its four checkpoints are compared too. The
default dataset is synthesized by both sides and the two trees are
compared; both sides train on the parent's.

One line per output says ``identical`` or ``differs``. A checkpoint is
reported as two outputs, its records (everything but the config text)
and its config text. Under a differing one are listed the largest
absolute difference of each record that differs, or the config lines
that differ; under a differing ``metrics.txt``, ``trainlog.kv`` or
``prediction.txt``, the lines that differ. ``trainlog.kv`` is compared
without its ``wall_time`` lines. A resumed
run is compared with the parent's uninterrupted ``final.ckpt``. Exit
status 0 means every output is identical.

For each ``train`` of both sides, and for the default-size ``synth``,
an ``rss`` line reports the peak resident set size of the parent's and
the change's subprocess side by side (from ``os.wait4``), and for each
``infer`` a ``time`` line the
wall time of both subprocesses, start-up included. They are reports
only: they count toward no verdict and leave the exit status alone.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

TINY_CFG = """\
dataset_root = {root}
resolution = 16
image_size = 16
cn_width = 8
va_stages = 2
va_channels = 4,6
va_fc_width = 24
va_bottleneck_channels = 2
va_dec_channels = 6,4
cn_batch_size = 8
va_batch_size = 4
pretrain_epochs = 2
phase_epochs = 1
max_phases = {max_phases}
convergence_tol = {tol}
n_per_class = 4
seed = 2
"""
DEFAULT_SIZE_CFG = """\
dataset_root = {root}
pretrain_epochs = 1
phase_epochs = 1
max_phases = 2
seed = 5
"""
ABLATIONS = ("none", "no-attention", "no-prior", "no-alternation")
SCHEDULES = ((2, "0.01"), (3, "0"), (5, "inf"))
INFER_OUTPUTS = ("prediction.txt", "attention.ppm", "color_names.ppm")


def run(src: Path, *args) -> tuple[float, float]:
    """One ``chroma`` command of the tree at ``src``; it must succeed.
    Returns the subprocess's peak resident set size in MB and its wall
    time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(src), CHROMA_THREADS="1")
    with tempfile.TemporaryFile() as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "chroma.cli",
                                 *map(str, args)], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.exit(f"{src}: chroma {' '.join(map(str, args))} exited "
                     f"{proc.returncode}:\n{err.read().decode()}")
    return usage.ru_maxrss / 1024.0, seconds  # KB on Linux


def check_import(src: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    found = subprocess.run([sys.executable, "-c",
                            "import chroma; print(chroma.__file__)"],
                           env=env, capture_output=True, text=True).stdout
    if Path(found.strip()).resolve().parent != (src / "chroma").resolve():
        sys.exit(f"{src} does not provide the chroma package (got {found!r})")


def split_checkpoint(path: Path) -> tuple[bytes, str]:
    """(everything but the config text, the config text) of a file."""
    raw = path.read_bytes()

    def u32(at: int) -> int:
        return struct.unpack_from("<I", raw, at)[0]

    pos = len(b"CNATTN1") + 4
    for _ in range(u32(pos - 4)):  # the vocabulary names
        pos += 4 + u32(pos)
    end = pos + 4 + u32(pos)
    return raw[:pos] + raw[end:], raw[pos + 4:end].decode()


def parse_records(raw: bytes) -> dict[str, tuple[tuple[int, ...], tuple]]:
    """Name -> (shape, values) of each parameter record, from the first
    part ``split_checkpoint`` returns."""
    def u32(at: int) -> int:
        return struct.unpack_from("<I", raw, at)[0]

    pos = len(b"CNATTN1") + 4
    for _ in range(u32(pos - 4)):  # the vocabulary names
        pos += 4 + u32(pos)
    records = {}
    pos += 4
    for _ in range(u32(pos - 4)):
        name = raw[pos + 4:pos + 4 + u32(pos)].decode()
        pos += 4 + u32(pos)
        shape = struct.unpack_from(f"<{u32(pos)}I", raw, pos + 4)
        pos += 4 + 4 * len(shape)
        count = 1
        for d in shape:
            count *= d
        records[name] = shape, struct.unpack_from(f"<{count}f", raw, pos)
        pos += 4 * count
    return records


def record_differences(a: bytes, b: bytes) -> list[str]:
    """One line per record whose values differ between two checkpoints:
    its largest absolute difference, or why none can be taken."""
    ra, rb = parse_records(a), parse_records(b)
    out = [f"{name}: only in {'parent' if name in ra else 'change'}"
           for name in sorted(ra.keys() ^ rb.keys())]
    for name in (n for n in ra if n in rb and ra[n] != rb[n]):
        (shape_a, va), (shape_b, vb) = ra[name], rb[name]
        if shape_a != shape_b:
            out.append(f"{name}: shape {shape_a} vs {shape_b}")
        else:
            diff = max(abs(x - y) for x, y in zip(va, vb))
            out.append(f"{name}: largest absolute difference {diff:.3g}")
    return out


def changed_lines(a: list[str], b: list[str]) -> list[str]:
    """The lines of ``a`` and ``b`` that differ, as -/+ diff lines."""
    return [d for d in difflib.unified_diff(a, b, lineterm="", n=0)
            if d[:1] in "+-" and d[:3] not in ("---", "+++")]


class Report:
    def __init__(self):
        self.differs = 0

    def line(self, same: bool, label: str, detail=()) -> None:
        self.differs += not same
        print(f"{'identical' if same else 'differs':<9}  {label}")
        for text in detail:
            print(f"             {text}")

    def checkpoint(self, a: Path, b: Path, label: str) -> None:
        records_a, config_a = split_checkpoint(a)
        records_b, config_b = split_checkpoint(b)
        same = records_a == records_b
        self.line(same, f"{label} records",
                  () if same else record_differences(records_a, records_b))
        self.line(config_a == config_b, f"{label} config",
                  changed_lines(config_a.splitlines(), config_b.splitlines()))

    def text(self, a: Path, b: Path, label: str, drop: str | None = None
             ) -> None:
        """Compare two text files, without the lines containing ``drop``
        when given (else byte for byte), and list the lines that differ."""
        lines = [[line for line in p.read_text().splitlines()
                  if drop is None or drop not in line] for p in (a, b)]
        same = (lines[0] == lines[1] if drop is not None
                else a.read_bytes() == b.read_bytes())
        self.line(same, label, () if same else changed_lines(*lines))

    def files(self, a: Path, b: Path, label: str) -> None:
        self.line(a.read_bytes() == b.read_bytes(), label)

    def trees(self, a: Path, b: Path, label: str) -> None:
        """Compare two directory trees file for file."""
        names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        same = names == sorted(p.relative_to(b) for p in b.rglob("*")
                               if p.is_file())
        self.line(same and all((a / n).read_bytes() == (b / n).read_bytes()
                               for n in names), f"{label} ({len(names)} files)")


def default_size(sides: dict[str, Path], work: Path, report: Report) -> None:
    """Synthesize the default dataset on both sides and compare the trees,
    then train both sides at the default size on the parent's dataset
    and compare the checkpoints they write."""
    cfg = work / "default.cfg"
    work.mkdir()
    cfg.write_text(DEFAULT_SIZE_CFG.format(root=work / "data"))
    rss = {side: run(src, "synth", "--config", cfg, "--out",
                     work / "data" if side == "parent" else work / "change-data")[0]
           for side, src in sides.items()}
    print(f"{'rss':<9}  default-size synth peak RSS: parent "
          f"{rss['parent']:.1f} MB, change {rss['change']:.1f} MB")
    report.trees(work / "data", work / "change-data", "default-size synth dataset")
    rss = {side: run(src, "train", "--config", cfg, "--out", work / side)[0]
           for side, src in sides.items()}
    print(f"{'rss':<9}  default-size train peak RSS: parent "
          f"{rss['parent']:.1f} MB, change {rss['change']:.1f} MB")
    ckpts = sorted(p.name for p in (work / "parent").glob("*.ckpt"))
    report.line(ckpts == sorted(p.name for p in (work / "change").glob("*.ckpt")),
                f"default-size checkpoint set {' '.join(ckpts)}")
    for ckpt in ckpts:
        if (work / "change" / ckpt).exists():
            report.checkpoint(work / "parent" / ckpt, work / "change" / ckpt,
                              f"default-size/{ckpt}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args()
    sides = {"parent": args.parent_src.resolve(),
             "change": args.change_src.resolve()}
    for src in sides.values():
        check_import(src)
    report = Report()
    work = Path(tempfile.mkdtemp(prefix="chroma-identity-"))
    try:
        data = work / "data"  # the parent's dataset, shared by both sides
        configs = {}
        for max_phases, tol in SCHEDULES:
            cfg = work / f"p{max_phases}-tol{tol}.cfg"
            cfg.write_text(TINY_CFG.format(root=data, max_phases=max_phases,
                                           tol=tol))
            configs[max_phases, tol] = cfg
        first_cfg = configs[SCHEDULES[0]]
        run(sides["parent"], "synth", "--config", first_cfg, "--out", data)
        run(sides["change"], "synth", "--config", first_cfg, "--out",
            work / "change-data")
        report.trees(data, work / "change-data", "synth dataset")
        image = sorted(data.glob("test/*/*.ppm"))[0]

        for ablation in ABLATIONS:
            for schedule, cfg in configs.items():
                name = f"{ablation}.p{schedule[0]}.tol{schedule[1]}"
                runs = {side: work / side / name for side in sides}
                rss, infer_s = {}, {}
                for side, src in sides.items():
                    out = runs[side]
                    rss[side] = run(src, "train", "--config", cfg,
                                    "--ablation", ablation, "--out", out)[0]
                    run(src, "eval", "--checkpoint", out / "final.ckpt",
                        "--out", out / "eval")
                    infer_s[side] = run(src, "infer", image, "--checkpoint",
                                        out / "final.ckpt",
                                        "--out", out / "infer")[1]
                print(f"{'rss':<9}  {name} train peak RSS: parent "
                      f"{rss['parent']:.1f} MB, change {rss['change']:.1f} MB")
                print(f"{'time':<9}  {name} infer wall time: parent "
                      f"{infer_s['parent']:.3f} s, change "
                      f"{infer_s['change']:.3f} s")
                parent, change = runs["parent"], runs["change"]
                ckpts = sorted(p.name for p in parent.glob("*.ckpt"))
                report.line(ckpts == sorted(p.name for p in change.glob("*.ckpt")),
                            f"{name} checkpoint set {' '.join(ckpts)}")
                for ckpt in ckpts:
                    if (change / ckpt).exists():
                        report.checkpoint(parent / ckpt, change / ckpt,
                                          f"{name}/{ckpt}")
                report.text(parent / "trainlog.kv", change / "trainlog.kv",
                            f"{name}/trainlog.kv without wall_time", ".wall_time")
                report.text(parent / "eval" / "metrics.txt",
                            change / "eval" / "metrics.txt",
                            f"{name}/eval/metrics.txt")
                for output in INFER_OUTPUTS:
                    compare = (report.text if output.endswith(".txt")
                               else report.files)
                    compare(parent / "infer" / output, change / "infer" / output,
                            f"{name}/infer/{output}")
                for ckpt in ckpts:
                    out = work / "resumed" / name / ckpt
                    run(sides["change"], "train", "--config", cfg,
                        "--checkpoint", parent / ckpt, "--out", out)
                    report.checkpoint(parent / "final.ckpt", out / "final.ckpt",
                                      f"{name}: change resumed from parent "
                                      f"{ckpt} -> final.ckpt")
        default_size(sides, work / "default-size", report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{report.differs} output(s) differ")
    return 1 if report.differs else 0


if __name__ == "__main__":
    sys.exit(main())
