"""The fleet probe: the ``runtime`` and ``can.noise`` layers of a traced run.

One ``repro fleet-run --cars B C E J L Q --workers 2 --noise-profile
default --noise-seed 7`` sweep, run once by the traced ``reverse-k`` run.
It is not timed end to end: one sweep takes ~25 s, so a run has room for
a single sample, and single sweeps spread too much from run to run to
hold any bound the benchmark may set (see ``README.md``).

The six cars cover all three CAN transports, enum-heavy and ECR-heavy
cars and one imperfect car (Q, 17/18); job costs are uneven (C ~0.5 s,
L ~15 s), so scheduler placement shows, and noise sends decode down the
event path.  The noise seed is fixed because GP cost depends on the noisy
data.

The sweep writes to a fresh ``--resume`` directory (a reused one skips
jobs).  Its ``run_report.json`` carries the per-car scores, which
:func:`repro.runtime.run_job` computes with ``check_formula`` against
``ground_truth_formulas``; the probe checks every job finished, every
score is consistent with its ESV rows and every correct ESV is a real
ground-truth identifier.  Per-job stage timings come from the same report
and the scheduler's timeline from ``events.jsonl``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.can import FaultCounts, apply_noise
from repro.runtime import fleet_job_specs
from repro.vehicle import build_car, ground_truth_formulas

import pipeline
from common import run_cli

CARS = ("B", "C", "E", "J", "L", "Q")
#: Tiny mode: the two cheapest cars with 8 s reads.
TINY_CARS, TINY_READ_S = ("B", "C"), 8.0
READ_S = 30.0
WORKERS = 2
NOISE = "default"
NOISE_SEED = 7
RUN_TIMEOUT_S = 170.0
#: Job stages the probe reports -> metric.  Each is the stage's summed job
#: seconds over the worker count: its share of the sweep's wall time.
STAGE_METRICS = {"collect": "collect.s", "noise": "noise.s"}


def sweep_args(cars, resume: Path, tiny: bool) -> List[str]:
    args = ["fleet-run", "--cars", *cars, "--workers", str(WORKERS), "--noise-profile", NOISE]
    args += ["--noise-seed", str(NOISE_SEED), "--resume", str(resume)]
    if tiny:
        args += ["--duration", str(TINY_READ_S)]
    return args


def check_report(report: dict, cars, truth: Dict[str, set]) -> List[str]:
    """One problem line per car whose result is missing or inconsistent."""
    problems = []
    by_car = {result["car_key"]: result for result in report["results"]}
    for key in cars:
        result = by_car.get(key)
        if result is None or result["status"] != "ok":
            problems.append(f"car {key}: job did not finish ok")
            continue
        formulas = [row for row in result["esvs"] if not row["is_enum"] and row["formula"]]
        correct = [row for row in formulas if row.get("correct")]
        if (
            len(formulas) != result["n_formula_esvs"]
            or len(correct) != result["n_correct"]
            or any(row["identifier"] not in truth[key] for row in correct)
        ):
            problems.append(f"car {key}: score inconsistent with its ESV rows")
    return problems


def probe(work: Path, tiny: bool) -> Tuple[Dict[str, float], List[str], int]:
    """One sweep: ``(metrics, one problem per failed car, cars attempted)``."""
    cars = TINY_CARS if tiny else CARS
    truth = {key: set(ground_truth_formulas(build_car(key))) for key in cars}
    resume = work / "sweep"
    run = run_cli(sweep_args(cars, resume, tiny), work, RUN_TIMEOUT_S)
    report_path = resume / "run_report.json"
    if not run.ok or not report_path.is_file():
        return {}, [f"fleet probe: sweep exited {run.returncode}"], len(cars)
    report = json.loads(report_path.read_text())
    events = [
        json.loads(line) for line in (resume / "events.jsonl").read_text().splitlines() if line
    ]
    metrics = schedule_metrics(report, events)
    for metric in STAGE_METRICS.values():
        metrics[metric] = 0.0
    for result in report["results"]:
        for stage, seconds in result["stage_seconds"].items():
            if stage in STAGE_METRICS:
                metrics[STAGE_METRICS[stage]] += seconds / WORKERS
    metrics["noise.faults"] = injected_faults(cars, tiny)
    return metrics, check_report(report, cars, truth), len(cars)


def schedule_metrics(report: dict, events: List[dict]) -> Dict[str, float]:
    """``sched.*`` from the run report and the scheduler's event log."""
    results = report["results"]
    job_walls = [result["wall_seconds"] for result in results]
    wall = report["wall_seconds"]
    return {
        "sched.jobs": len(results),
        "sched.retries": report["metrics"]["counters"].get("jobs_retried", 0),
        "sched.job_max_s": max(job_walls, default=0.0),
        "sched.busy_ratio": sum(job_walls) / (WORKERS * wall) if wall else 0.0,
        "sched.tail_s": schedule_tail(events, WORKERS),
    }


def schedule_tail(events: List[dict], workers: int) -> float:
    """Run end minus the moment the first worker found no job left.

    Jobs are dequeued first-in first-out, so the last queued job starts
    when the ``n - workers``-th job finishes; the next finish frees a
    worker that finds the queue empty.
    """
    started = next(e["t"] for e in events if e["event"] == "run_started")
    finished_run = next(e["t"] for e in events if e["event"] == "run_finished")
    finishes = sorted(e["t"] for e in events if e["event"] == "job_finished")
    idle_at = finishes[len(finishes) - workers] if len(finishes) > workers else started
    return finished_run - idle_at


def injected_faults(cars, tiny: bool) -> int:
    """Faults the sweep's noise profile injects, re-applied in-process.

    Each car's capture is collected again and passed through
    :func:`repro.can.apply_noise` with the job's own derived profile.
    """
    read_s = TINY_READ_S if tiny else READ_S
    specs = fleet_job_specs(
        list(cars), read_duration_s=read_s, noise_spec=NOISE, noise_seed=NOISE_SEED
    )
    faults = 0
    for spec in specs:
        _, capture = pipeline.collect_capture(spec.car_key, read_s)
        counts = FaultCounts()
        apply_noise(capture.can_log, spec.noise_profile(), counts)
        faults += (
            counts.dropped + counts.duplicated + counts.reordered
            + counts.bit_errors + counts.truncated + counts.foreign
        )
    return faults
