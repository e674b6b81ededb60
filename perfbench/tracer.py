"""Outside-in tracer: times calls into chroma's public functions.

A function target is replaced by a timing wrapper in every chroma module
that has bound it, so a name brought in with ``from chroma.x import f``
is caught as well as ``chroma.x.f``; a method target is replaced on its
class. When a layer names a backward span, the wrapper also replaces the
backward closure of the node the call returns, so ``Tensor.backward``
time is attributed to the op that built each node. Spans stay in memory
until the run ends; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter


def _count_bytes(how: str, args: tuple, result) -> int:
    if how == "result":
        return int(getattr(getattr(result, "data", None), "nbytes", 0))
    if how == "params":
        return sum(int(getattr(p.data, "nbytes", 0)) for p in args[0].values())
    if how == "path":
        try:
            return os.path.getsize(args[0])
        except (OSError, TypeError, IndexError):
            return 0
    raise ValueError(f"unknown byte count {how!r}")


class Tracer:
    """Records one span per call into a traced layer.

    A span has a name, start and end, the span open when it began
    (its parent), a phase tag and a unit id shared by every span of one
    unit of work, and a byte count.
    """

    def __init__(self, layers, clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.phase = "setup"
        self.unit = -1
        self.missing: list[str] = []
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.outer: list[bool] = []
        self.phases: list[str] = []
        self.units: list[int] = []
        self.nbytes: list[int] = []
        self._stack: list[int] = []
        self._open_names: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._open_names[name] == 0)
        self.phases.append(self.phase)
        self.units.append(self.unit)
        self.nbytes.append(0)
        self.ends.append(0.0)
        self._open_names[name] += 1
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()
        self._open_names[self.names[idx]] -= 1

    # -- wrapping -----------------------------------------------------

    def _wrap(self, span: str, fn, nbytes: str | None, bwd: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if nbytes is not None:
                tracer.nbytes[idx] = _count_bytes(nbytes, args, result)
            if bwd is not None:
                tracer._wrap_backward(result, bwd)
            return result

        return traced

    def _wrap_backward(self, node, span: str) -> None:
        fn = getattr(node, "_backward_fn", None)
        if fn is None:
            return
        tracer = self

        def traced_backward(g):
            idx = tracer._open(span)
            try:
                return fn(g)
            finally:
                tracer._close(idx)
                tracer.nbytes[idx] = int(getattr(g, "nbytes", 0))

        node._backward_fn = traced_backward

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is
        listed in ``missing`` and its metrics read zero."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("chroma.cli")
        self.missing = []
        for layer in self.layers:
            for target in layer.targets:
                modname, _, qualname = target.partition(":")
                try:
                    owner = importlib.import_module(modname)
                    *path, attr = qualname.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(layer.name, original, layer.nbytes, layer.bwd)
                if path:  # a method: patch the class that defines it
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in self._chroma_modules():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)

    @staticmethod
    def _chroma_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "chroma" or n.startswith("chroma."))]

    def uninstall(self) -> None:
        """Restore every original and check that none is left wrapped."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            if original is None:  # a method the class inherited
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patches
                if vars(o).get(a) is not orig]
        if left:
            raise RuntimeError(f"tracer left wrapped: {left}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ----------------------------------------------------

    def summarize(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name over one phase: inclusive seconds (outermost
        spans only, so recursion is not counted twice), self seconds
        (duration minus the time its child spans cover), calls, bytes."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            if self.phases[i] != phase:
                continue
            dur = self.ends[i] - self.starts[i]
            s = out.setdefault(self.names[i],
                               {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0})
            if self.outer[i]:
                s["s"] += dur
            s["self_s"] += dur - child[i]
            s["calls"] += 1
            s["bytes"] += self.nbytes[i]
        return out

    def dump(self) -> dict:
        """Every span as columns; times are seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "name": [index[n] for n in self.names],
            "start": [round(t - t0, 9) for t in self.starts],
            "end": [round(t - t0, 9) for t in self.ends],
            "parent": self.parents,
            "phase": self.phases,
            "unit": self.units,
            "bytes": self.nbytes,
        }
