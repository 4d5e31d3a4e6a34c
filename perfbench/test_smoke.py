"""Reduced-size smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a tiny size, traced and untraced, and checks that
every metric named in BENCHMARK.json is reported with its unit, and that
the output checks flag corrupted results.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hdqkd.scenario import parse_config  # noqa: E402
from hdqkd.sweep import MAX_SEARCH_KM, max_distance, run_point, sweep_distance  # noqa: E402

PRESETS = ("fig2b", "fig3e")
SIZES = {
    "full": {
        "step_km": 30.0,
        "search_pulses": ("1e12", "inf"),
        "points": 20,
        "frames": 2 * 10**5,
        "coverage_pulses": 5 * 10**4,
    },
    "small": {
        "step_km": 100.0,
        "search_pulses": ("inf",),
        "points": 10,
        "frames": 10**5,
        "coverage_pulses": 5 * 10**4,
    },
}


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_unit(workload, trace):
    result, _sizes, report = run.run(
        workload, 3, 0.0, trace, presets=PRESETS, sizes=SIZES, setup_repeats=1
    )
    assert result["correct"] and result["failed"] == 0, report
    assert result["attempted"] > 0
    expected = declared("per_layer" if trace else "end_to_end")
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), name
    if trace and workload == "sweep_dense":
        accounted = result["metrics"]["trace.run_point.accounted_share"]["value"]
        assert accounted == pytest.approx(1.0, abs=1e-9)


def test_checker_flags_corrupted_row():
    scenario = parse_config("[protocol]\nn_pulses = 1e12\n", preset="fig3b")
    rows = sweep_distance(scenario, 0.0, 300.0, 30.0)
    assert checks.check_sweep(rows, 0.0, 300.0, 30.0) == []
    keyed = next(i for i, row in enumerate(rows) if row.positive)
    for change in (
        {"delta_i": rows[keyed].delta_i + 1e-6},
        {"kmu_lb": 1.5},
        {"positive": False},
    ):
        corrupted = list(rows)
        corrupted[keyed] = dataclasses.replace(rows[keyed], **change)
        assert checks.check_sweep(corrupted, 0.0, 300.0, 30.0), change
    assert checks.check_sweep(rows[::-1], 0.0, 300.0, 30.0)
    assert checks.check_sweep(rows[:-1], 0.0, 300.0, 30.0)


def test_checker_flags_corrupted_max_distance():
    scenario = parse_config("[protocol]\nn_pulses = 1e12\n", preset="fig3b")
    distance = max_distance(scenario, tol_km=0.1)

    def capacity(length):
        return run_point(scenario, length).delta_i

    assert 0.0 < distance < MAX_SEARCH_KM
    assert checks.check_max_distance(capacity, distance, 0.1, MAX_SEARCH_KM) == []
    for wrong in (distance + 5.0, distance - 5.0, math.inf, 0.0):
        assert checks.check_max_distance(capacity, wrong, 0.1, MAX_SEARCH_KM), wrong


def test_refuses_to_run_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "query_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
