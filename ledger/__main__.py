"""The ledger's one command.

``python3 -m ledger --seed 11`` runs all four workloads, untraced for the
end-to-end metrics and traced for the per-layer metrics, and prints every
metric by name with its unit and sample count.  Each run is a process of
its own, started exactly the way the benchmark driver starts it::

    python3 -m ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>

whose last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from ledger import ROOT
from ledger.harness import run_workload
from ledger.metrics import END_TO_END, PER_LAYER
from ledger.workloads import WORKLOAD_NAMES

#: Scratch space of running workloads; inside the checkout, git-ignored.
WORK_ROOT = ROOT / ".ledger-work"


def _run_seconds() -> int:
    return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict[str, object]:
    """Where the numbers were taken: they compare only within one of these."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }


def _print_result(result: dict, seconds: float, traced: bool) -> None:
    info = result["info"]
    print(
        f"ledger {info['workload']} seed={info['seed']} seconds={seconds:g} "
        f"trace={int(traced)} rounds={info['rounds']} ops_attempted={info['ops_attempted']} "
        f"ops_failed={info['ops_failed']} counters_digest={info['counters_digest']}"
    )
    for name, entry in result["metrics"].items():
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']}")
    print(
        f"  latency samples={info['latency_samples']} setup samples={info['setup_samples']} "
        f"gestures_per_s by round={info['round_gestures_per_s']}"
    )
    if info["first_failure"] is not None:
        print(f"  FAILED {info['first_failure']}")
    print("info " + json.dumps(info))


def run_one(args: argparse.Namespace) -> int:
    """Contract mode: one workload, one JSON object on the last line."""
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, workdir
    )
    _print_result(result, args.seconds, bool(args.trace))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def _spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [sys.executable, "-m", "ledger", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"ledger run failed: {' '.join(command)} (exit {done.returncode})")
    run = json.loads(lines[-1])
    run["info"] = json.loads(lines[-2].removeprefix("info "))
    run["trace"] = trace
    return run


def _print_table(title: str, catalogue: tuple, runs: dict[str, dict]) -> None:
    """One row per metric, one column per workload."""
    print(f"\n{title:<45}" + "".join(f"{name:>18}" for name in WORKLOAD_NAMES))
    for metric, unit, _ in catalogue:
        values = (runs[name]["metrics"][metric]["value"] for name in WORKLOAD_NAMES)
        print(f"{f'{metric} ({unit})':<45}" + "".join(f"{value:>18.6g}" for value in values))
    for key in ("latency_samples", "ops_attempted", "ops_failed", "counters_digest"):
        cells = (str(runs[name]["info"][key]) for name in WORKLOAD_NAMES)
        print(f"{key:<45}" + "".join(f"{cell:>18}" for cell in cells))


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced (``--repeats`` seeds) then traced (first seed)."""
    env = environment()
    print("ledger " + " ".join(f"{key}={value}" for key, value in env.items()))
    runs = []
    for workload in WORKLOAD_NAMES:
        for repeat in range(args.repeats):
            runs.append(_spawn(workload, args.seed + repeat, args.seconds, 0, args.smoke))
        runs.append(_spawn(workload, args.seed, args.seconds, 1, args.smoke))
    for title, catalogue, trace in (("end-to-end", END_TO_END, 0), ("per-layer", PER_LAYER, 1)):
        first_seed = {
            run["info"]["workload"]: run
            for run in runs
            if run["trace"] == trace and run["info"]["seed"] == args.seed
        }
        _print_table(f"{title} metrics, seed {args.seed}", catalogue, first_seed)
    if args.out is not None:
        Path(args.out).write_text(json.dumps({"env": env, "runs": runs}, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m ledger", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run only this workload")
    parser.add_argument("--seed", type=int, default=11, help="the only source of randomness")
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, structure only")
    parser.add_argument("--repeats", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", help="write every run of the full ledger to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(_run_seconds())
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
