"""Compare two ledger files: ``python3 -m ledger.compare a.json b.json``.

Both files come from ``python3 -m ledger --repeats N --out FILE`` (``a`` the
parent or first set, ``b`` the change or second set).  One row per workload
and end-to-end metric: both medians, how much worse ``b`` is, the bound
``BENCHMARK.json`` fixes, and a verdict —

* ``regressed``: ``b``'s median is worse than ``a``'s by more than the bound;
* ``unresolved``: a side's own spread (interquartile range over its median)
  is wider than the bound, so the runs cannot tell — unless every run of
  ``b`` reads better than every run of ``a``;
* ``ok`` otherwise.

Exits non-zero when any row is not ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from ledger import ROOT


def load_runs(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per untraced run]}}`` of one ledger file."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        per_metric = values.setdefault(run["info"]["workload"], {})
        for metric, entry in run["metrics"].items():
            per_metric.setdefault(metric, []).append(float(entry["value"]))
    return values


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """How much worse ``b`` is than ``a`` (share of ``a``'s median), and what to call it."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (median_b - median_a) / median_a
    if max(spread(a), spread(b)) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return worse, "ok" if all_better else "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    print(
        f"{'workload':<15}{'metric':<17}{'a median':>12}{'b median':>12}{'n':>6}"
        f"{'worse by':>10}{'spread':>8}{'bound':>7}  verdict"
    )
    bad = 0
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            a = runs_a.get(workload, {}).get(metric["name"], [])
            b = runs_b.get(workload, {}).get(metric["name"], [])
            if not a or not b:
                print(f"{workload:<15}{metric['name']:<17}  missing from one file")
                bad += 1
                continue
            worse, word = verdict(a, b, metric["better"], metric["bound"])
            bad += word != "ok"
            print(
                f"{workload:<15}{metric['name']:<17}{statistics.median(a):>12.5g}"
                f"{statistics.median(b):>12.5g}{f'{len(a)}/{len(b)}':>6}{worse:>+10.1%}"
                f"{max(spread(a), spread(b)):>8.1%}{metric['bound']:>7.0%}  {word}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
