"""Benchmark of the chroma pipeline: train, eval and infer workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

It measures the package under ``src/`` of that checkout in this one
process with ``CHROMA_THREADS=1``. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` makes one traced set-up and then alternates untraced
and traced units, and reports per-layer metrics plus the tracing
overhead between the two. The last line of standard output is the
result as one JSON object; the lines before it print each metric by
name and unit, workload-specific names of the workload's own figures, and
the environment. A result file (and, when traced, every span) is written
under ``.perfbench/`` in the checkout.

``python3 perfbench/run.py --write-spec`` writes ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("CHROMA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
EXIT_NO_PROGRAM = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("train", "eval", "infer"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json at the checkout root and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        src.update(str(p.relative_to(root)).encode())
        src.update(p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "CHROMA_THREADS": os.environ.get("CHROMA_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def per_layer(tracer, untraced, traced) -> dict:
    from benchspec import LAYERS
    summaries = {phase: tracer.summarize(phase) for phase in ("setup", "measure")}
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0}
    out = {}
    for layer in LAYERS:
        if not layer.report:
            continue
        summary = summaries[layer.phase]
        for span in (layer.name, layer.bwd):
            if span is None:
                continue
            s = summary.get(span, zero)
            out[f"{span}_s"] = s["s"]
            out[f"{span}.calls"] = s["calls"]
            if layer.nbytes is not None:
                out[f"{span}.bytes"] = s["bytes"]
        if layer.self_metric:
            out[layer.self_metric] = summary.get(layer.name, zero)["self_s"]
    ratio = (statistics.median(u.wall_s for u in traced)
             / statistics.median(u.wall_s for u in untraced))
    out["trace.overhead"] = ratio - 1.0
    out["trace.spans"] = sum(s["calls"] for s in summaries["measure"].values())
    return out


def measure_traced(bench, tracer) -> tuple[list, list]:
    """Alternate untraced and traced units for twice the measuring time,
    so drift in machine speed affects both halves alike."""
    untraced, traced = [], []
    tracer.phase = "measure"
    t0 = perf_counter()
    while not traced or perf_counter() - t0 < 2 * bench.seconds:
        if len(untraced) == len(traced):
            untraced.append(bench.unit(len(untraced)))
        else:
            tracer.unit = len(traced)
            with tracer:
                traced.append(bench.unit(len(traced)))
    return untraced, traced


def run(args) -> int:
    from benchspec import END_TO_END, LAYERS, PER_LAYER
    from tracer import Tracer
    from workloads import Bench

    bench = Bench(ROOT, args.workload, args.seed, args.seconds)
    env = environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env}
    spans = None
    try:
        if args.trace:
            tracer = Tracer(LAYERS)
            with tracer:
                bench.setup(repeats=1)
            bench.prepare()
            untraced, traced = measure_traced(bench, tracer)
            if args.workload == "train":
                bench.check_same_checkpoint(untraced + traced,
                                            "train untraced vs traced")
            values = per_layer(tracer, untraced, traced)
            record.update(missing_targets=tracer.missing,
                          samples={"untraced_units": len(untraced),
                                   "traced_units": len(traced)})
            spans = tracer.dump()
            wanted = PER_LAYER
        else:
            setup_times = bench.setup()
            bench.prepare()
            units = bench.measure()
            summary = bench.end_to_end(setup_times, units)
            values = summary["metrics"]
            record.update(aliases=summary["aliases"], samples=summary["samples"])
            wanted = END_TO_END
    except RuntimeError as exc:  # nothing could be measured
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.cleanup()

    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in wanted}
    for name, m in metrics.items():
        print(f"metric {name:<36} {m['value']:.6g} {m['unit']}")
    for name, value in record.get("aliases", {}).items():
        print(f"alias  {name:<36} {value:.6g}")
    print("samples " + json.dumps(record["samples"], sort_keys=True))
    for failure in bench.failures:
        print(f"failed {failure}")
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    record["result"] = result
    write_record(record, spans)
    print(json.dumps(result))
    return 0


def write_record(record: dict, spans: dict | None) -> None:
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        (out / f"{stem}.spans.json").write_text(json.dumps(spans))


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.write_spec:
        from benchspec import render
        (ROOT / "BENCHMARK.json").write_text(render())
        return 0
    src = ROOT / "src"
    if not (src / "chroma" / "__init__.py").is_file():
        print(f"error: no chroma package under {src}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import chroma
    if Path(chroma.__file__).resolve().parent != (src / "chroma").resolve():
        print(f"error: imported chroma from {chroma.__file__}, not {src}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
