"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

Runs every workload untraced and traced and checks that every metric named
in BENCHMARK.json is printed with its unit, that all outputs pass their
checks, and that fail_rate is 0 except for the documented failing
``audit l3 --level 3`` command of the cli workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, KNOWN_FAILING_CLI, PER_LAYER, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.05", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("report ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("report "):])


def test_spec_matches_metric_definitions():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    result, report = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0, report["errors"]
    assert result["attempted"] >= 20
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    known = report["ops_by_kind"].get(f"cli:{KNOWN_FAILING_CLI}", 0)
    assert (workload == "cli") == (known > 0)
    assert report["fail_rate"] == known / result["attempted"]
    assert report["op_tail_samples"] == result["attempted"]
    for key in ("nproc", "cpu", "python", "numpy", "seed"):
        assert key in report["stamp"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    result, report = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0, report["errors"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(report["moves"]) == set(result["metrics"])
    assert report["work"], "work counts are recorded"
