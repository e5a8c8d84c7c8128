"""The benchmark's own tests: tiny smoke runs and the shape of BENCHMARK.json.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from run import tail

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# Per-layer counts that must repeat exactly between traced runs of one seed.
EXACT = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["name"].endswith(".calls")
    or m["name"] in ("randgen.words", "fuzzer.search.candidates", "trace.ops")
]


def run(workload: str, trace: int, seed: int = 3, seconds: float = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_run_reports_every_end_to_end_metric(workload):
    result = run(workload, trace=0)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_counts_repeat(workload):
    first, second = run(workload, trace=1), run(workload, trace=1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units(SPEC["per_layer"])
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["cli.main.calls"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_failure_counts_do_not_depend_on_run_length(workload):
    # Repeated inputs count once, so only the seed sets attempted and
    # failed on workloads whose inputs cycle.
    short, long = run(workload, trace=0, seconds=0.5), run(workload, trace=0, seconds=2)
    assert short["failed"] == long["failed"]
    if workload != "search_seeds":  # every search has a seed of its own
        assert short["attempted"] == long["attempted"]


def test_metric_and_workload_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))


def test_metric_counts_stay_within_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_spec_shape_and_bounds():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_tail_has_ten_samples_beyond_it():
    value, pct = tail([float(x) for x in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    assert tail([1.0, 2.0]) == (2.0, 100.0)
