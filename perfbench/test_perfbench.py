"""Self-tests of the repository benchmark, on the tiny mode of each workload.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from functools import lru_cache

import pytest

from common import MIN_BEYOND, ROOT, SELF_TIME_METRICS, load_spec, tail_index, tail_percentile

WORKLOADS = ("reverse-k", "serve-repeat")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int) -> dict:
    """The final JSON line of one tiny run (cached across tests)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--tiny",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_is_well_formed():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    layer = {m["name"] for m in spec["per_layer"]}
    assert set(SELF_TIME_METRICS) | {"unattributed_s", "trace.wall_s"} <= layer


@pytest.mark.parametrize("n", range(1, 260))
def test_tail_percentile_leaves_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)]
    index = tail_index(n, 0.9)
    value, used = tail_percentile(samples, 0.9)
    if index is None:
        assert used == 0.5 and n < 2 * MIN_BEYOND + 1
    else:
        assert sum(s > value for s in samples) >= MIN_BEYOND
        assert used <= 0.9
    if n >= 100:
        assert used == pytest.approx(0.9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_units(workload):
    result = tiny_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_add_up_to_wall_time(workload):
    result = tiny_run(workload, 1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["unattributed_s"] >= 0
    layers = sum(values[name] for name in SELF_TIME_METRICS)
    assert layers + values["unattributed_s"] == pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert values["trace.overhead_ratio"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reverse-k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
