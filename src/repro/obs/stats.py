"""Shared statistical helpers of the telemetry plane.

One quantile rule for the whole codebase.  Per-session metrics
(:class:`repro.service.SessionMetrics`), the server-wide aggregate and
the trace reports all give percentiles; every caller routes through
:func:`nearest_rank`, so "p95" means the same thing in every report.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["nearest_rank"]


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an **already sorted** sequence.

    ``q`` must lie in ``(0, 1]``; the result is always an element of the
    input (rank ``ceil(q * n)``, 1-based), and an empty input yields
    ``0.0`` — absent data reads as zero latency in every report, by
    convention.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be within (0, 1], got {q}")
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]
