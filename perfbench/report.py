"""Percentiles, metric names and the result line of a run."""
from __future__ import annotations

import json
import math
import re

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, level: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile``'s default)."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    pos = (len(s) - 1) * level / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(n: int, level: float) -> int:
    """Samples strictly above the interpolation position of the ``level``
    percentile of ``n`` samples (see ``percentile``)."""
    if n < 1:
        return 0
    return (n - 1) - math.floor((n - 1) * level / 100.0 + 1e-9)


def tail_level(n: int, grid=TAIL_GRID) -> float | None:
    """Highest percentile of ``grid`` with at least ten samples beyond it,
    or None when ``n`` is too small for any."""
    ok = [lv for lv in grid if samples_beyond(n, lv) >= 10]
    return max(ok) if ok else None


def tail(values, cap: float = 100.0):
    """(value, level, n): the percentile at ``tail_level(n)``, capped at
    ``cap``, or the maximum (level 100) when ``n`` supports no level."""
    n = len(values)
    level = tail_level(n)
    if level is None:
        return max(values), 100.0, n
    level = min(level, cap)
    return percentile(values, level), level, n


def median(values) -> float:
    return percentile(values, 50.0)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    """The final stdout line: ``metrics`` maps name → (value, unit)."""
    for name in metrics:
        if not NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})
