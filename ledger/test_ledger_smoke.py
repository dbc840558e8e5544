"""Structure-only smoke test of the ledger; no wall-clock value decides it.

Runs the whole ledger once at ``--smoke`` scale (tiny inputs, one fleet
worker) and checks that what it prints is what ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

from ledger import ROOT
from ledger.metrics import END_TO_END, PER_LAYER

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
IN_PROCESS = ("slide_inmem", "explore_paged", "ingest_mixed")


def test_ledger_smoke(tmp_path):
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, "-m", "ledger", "--smoke", "--seed", "11", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = json.loads(out.read_text())

    # BENCHMARK.json and the catalogue name the same metrics
    declared = {
        "end_to_end": [(m["name"], m["unit"], m["better"]) for m in benchmark["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]],
    }
    assert declared["end_to_end"] == list(END_TO_END)
    assert declared["per_layer"] == list(PER_LAYER)
    assert benchmark["paths"] == ["ledger"]
    assert {"nproc", "python", "numpy", "commit"} <= set(ledger["env"])

    runs = {(run["info"]["workload"], run["trace"]): run for run in ledger["runs"]}
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        assert NAME.fullmatch(workload)
        for trace, catalogue in ((0, END_TO_END), (1, PER_LAYER)):
            run = runs[(workload, trace)]
            assert list(run["metrics"]) == [name for name, _, _ in catalogue]
            for name, unit, _ in catalogue:
                assert NAME.fullmatch(name)
                assert name in done.stdout
                assert run["metrics"][name]["unit"] == unit
                assert isinstance(run["metrics"][name]["value"], float)
            assert run["correct"] is True
            assert run["failed"] == 0 and run["attempted"] >= 1
            assert re.fullmatch(r"[0-9a-f]{16}", run["info"]["counters_digest"])
        assert runs[(workload, 1)]["metrics"]["service.failed_frac"]["value"] == 0.0
        # the same seed did the same work in both runs
        assert (
            runs[(workload, 0)]["info"]["counters_digest"]
            == runs[(workload, 1)]["info"]["counters_digest"]
        )

    # self times account for the traced ops: nothing measured twice or lost
    for workload in IN_PROCESS:
        info = runs[(workload, 1)]["info"]
        assert info["traced_op_total_s"] > 0.0
        assert abs(info["traced_self_sum_s"] - info["traced_op_total_s"]) <= (
            0.1 * info["traced_op_total_s"]
        )
