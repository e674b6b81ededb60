"""Self-tests of the benchmark's own code (no training is run).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import benchspec  # noqa: E402
from benchspec import END_TO_END, LAYERS, PER_LAYER, WORKLOADS  # noqa: E402
from benchstats import tail, valid_name, valid_unit  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- the percentile rule ------------------------------------------------

@pytest.mark.parametrize("n, pct, value", [
    (250, 95, 238), (200, 95, 190), (150, 93, 140), (11, 9, 1)])
def test_tail_is_p95_or_highest_percentile_with_ten_beyond(n, pct, value):
    assert tail(range(1, n + 1)) == (value, pct, n)


def test_tail_always_leaves_ten_samples_beyond():
    for n in range(11, 400):
        value, pct, _ = tail(range(n))
        beyond = n - 1 - value
        assert beyond >= 10
        if pct < 95:  # one percentile higher would leave fewer than ten
            assert n - max(1, -(-(pct + 1) * n // 100)) < 10


def test_tail_of_ten_or_fewer_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100, 3)
    assert tail(range(10)) == (9, 100, 10)
    with pytest.raises(ValueError):
        tail([])


# -- metric names and BENCHMARK.json ------------------------------------

def test_metric_names_and_units_are_valid_and_unique():
    metrics = END_TO_END + PER_LAYER
    names = [m.name for m in metrics] + [name for name, _ in WORKLOADS]
    assert all(valid_name(n) for n in names), [n for n in names if not valid_name(n)]
    assert len({m.name for m in metrics}) == len(metrics)
    assert len({n for n, _ in WORKLOADS}) == len(WORKLOADS)
    assert all(valid_unit(m.unit) for m in metrics)
    assert all(m.better in ("lower", "higher") for m in metrics)
    assert 1 <= len(PER_LAYER) <= 128 and 1 <= len(END_TO_END) <= 16
    assert 2 <= len(WORKLOADS) <= 8
    assert all(len(why) <= 200 and "\n" not in why for _, why in WORKLOADS)


def test_end_to_end_bounds_and_setup_metric():
    bounds = {m.name: m.bound for m in END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(bounds.values())


def test_names_match_bad_examples():
    assert not valid_name("_leading_underscore")
    assert not valid_name("has space")
    assert not valid_name("x" * 65)
    assert not valid_unit("seconds per call")


def test_benchmark_json_is_rendered_from_the_spec():
    on_disk = (ROOT / "BENCHMARK.json").read_text()
    assert on_disk == benchspec.render()
    spec = json.loads(on_disk)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len(on_disk.encode()) <= 64 * 1024


def test_every_reported_layer_says_what_it_should_move():
    assert all(layer.moves for layer in LAYERS if layer.report)


def test_producers_emit_exactly_the_listed_metrics(tmp_path):
    import run
    from workloads import Bench, Unit

    tracer = Tracer(LAYERS)
    units = [Unit(wall_s=1.0, item_ms=[5.0], images=1, busy_s=1.0)]
    assert set(run.per_layer(tracer, units, units)) == {m.name for m in PER_LAYER}
    for workload, _ in WORKLOADS:
        bench = Bench(tmp_path, workload, 0, 1.0)
        bench.attempted = 2
        summary = bench.end_to_end([2.0, 1.0, 3.0], units)
        assert set(summary["metrics"]) == {m.name for m in END_TO_END}
        assert summary["metrics"]["setup_s"] == 2.0


# -- the tracer ---------------------------------------------------------

def _bindings():
    """Every function object bound in a chroma module or traced class."""
    import chroma.networks
    import chroma.tensor
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "chroma" or name.startswith("chroma.")):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    for cls in (chroma.tensor.Tensor, chroma.networks.CnNet, chroma.networks.VaNet):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def test_tracer_wraps_every_binding_and_restores_it():
    import chroma.cli
    import chroma.modulation
    import chroma.networks
    import chroma.tensor as T

    before = _bindings()
    tracer = Tracer(LAYERS)
    with tracer:
        assert tracer.missing == []
        assert chroma.networks.conv2d is not before[("chroma.tensor", "conv2d")]
        assert chroma.networks.conv2d is T.conv2d
        assert chroma.cli.modulate_op is chroma.modulation.modulate
        assert chroma.cli.modulate_op is not before[("chroma.modulation", "modulate")]
        assert T.Tensor.backward is not before[("Tensor", "backward")]
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.random((5, 5, 2)), requires_grad=True)
        k = T.Tensor(rng.random((3, 3, 2, 4)), requires_grad=True)
        b = T.Tensor(np.zeros(4), requires_grad=True)
        T.tensor_sum(T.relu(T.conv2d(x, k, b))).backward()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []

    summary = tracer.summarize("setup")
    for span in ("tensor.conv2d.fwd", "tensor.conv2d.bwd", "tensor.relu.fwd",
                 "tensor.relu.bwd", "tensor.tensor_sum.bwd", "tensor.backward"):
        assert summary[span]["calls"] == 1, span
    assert summary["tensor.conv2d.fwd"]["bytes"] == 3 * 3 * 4 * 8
    backward = summary["tensor.backward"]
    closures = sum(summary[s]["s"] for s in summary if s.endswith(".bwd"))
    assert backward["self_s"] == pytest.approx(backward["s"] - closures)


def test_tracer_restores_after_an_exception():
    import chroma.tensor as T

    before = _bindings()
    tracer = Tracer(LAYERS)
    with pytest.raises(T.ShapeError):
        with tracer:
            T.conv2d(T.Tensor(np.ones((2, 2))), T.Tensor(np.ones((1, 1, 1, 1))),
                     T.Tensor(np.ones(1)))
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []
    assert tracer.names == ["tensor.conv2d.fwd"]


def test_self_time_subtracts_children_and_recursion_is_counted_once():
    ticks = iter(range(100))
    tracer = Tracer([], clock=lambda: float(next(ticks)))
    outer = tracer._open("a")        # t=0
    inner = tracer._open("a")        # t=1
    leaf = tracer._open("b")         # t=2
    tracer._close(leaf)              # t=3
    tracer._close(inner)             # t=4
    tracer._close(outer)             # t=5
    s = tracer.summarize("setup")
    assert s["a"]["s"] == 5.0        # outermost span only
    assert s["a"]["self_s"] == (5 - 3) + (3 - 1)
    assert s["b"] == {"s": 1.0, "self_s": 1.0, "calls": 1, "bytes": 0}


# -- running without the program ---------------------------------------

def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench").exists()
