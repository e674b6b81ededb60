"""Summary statistics and name rules shared by the benchmark and its tests."""

from __future__ import annotations

import math
import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")
TAIL_BEYOND = 10
TAIL_PERCENTILE = 95


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def tail(values) -> tuple[float, int, int]:
    """(value, percentile, sample count) of the latency tail.

    The percentile is 95, or the highest lower whole percentile that
    still has at least ten samples beyond it. With ten samples or fewer
    no percentile has ten beyond, so the slowest sample is reported as
    percentile 100. Ranks are nearest-rank.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, n
    pct = min(TAIL_PERCENTILE, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n
