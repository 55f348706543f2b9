"""Workload ``reverse-k``: one analyst waiting for one report.

``repro reverse --gp-workers 2`` on a saved car-K capture (KWP 2000 over
VW TP 2.0, 41 formula ESVs, 30 s reads), repeated until ``--seconds``
have passed (at least once).  Formula inference is ~95% of the wall
time, so a GP-loop or execution-backend change shows here.  The workload
seed does not enter: the input is the fixed car-K capture.

Each run of the command reverses a capture collected and saved just
before it (the set-up, done four times per run of the command) and gets
a fresh ``--gp-memo`` directory.  Every lookup misses, so GP runs in
full, and the memo records each inferred formula exactly.  After the
timed runs, the benchmark recalls the first run's formulas in-process
from its memo (no GP), checks that the recalled report is byte-identical
to what the command printed, and scores it with ``check_formula``
against ``ground_truth_formulas``.  Every later run must print the same
bytes.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from statistics import mean, median
from typing import Dict, List

from repro.persistence import load_capture, save_capture

import fleet_probe
import pipeline
from common import Result, SpanRecorder, run_cli, tail_percentile

CAR, READ_S = "K", 30.0
#: Tiny mode (the benchmark's self-tests): car C's five formulas, 8 s reads.
TINY_CAR, TINY_READ_S = "C", 8.0
GP_WORKERS = 2
RUN_TIMEOUT_S = 150.0
#: Set-ups before each ``repro reverse``, taking turns on the host's CPUs;
#: the last one's capture is reversed.
SETUPS_PER_REVERSE = 4


def set_up(work: Path, tiny: bool, index: int):
    """Collect and save the capture: ``(car, capture directory, seconds)``."""
    key, read_s = (TINY_CAR, TINY_READ_S) if tiny else (CAR, READ_S)
    start = time.perf_counter()
    car, capture = pipeline.collect_capture(key, read_s)
    capture_dir = save_capture(capture, work / f"capture-{index}")
    return car, capture_dir, time.perf_counter() - start


def reverse_args(capture_dir: Path, memo: Path):
    return [
        "reverse",
        str(capture_dir),
        "--gp-workers",
        str(GP_WORKERS),
        "--gp-memo",
        str(memo),
        "--format",
        "json",
    ]


def set_up_on(cpu: int, work: Path, tiny: bool, index: int):
    """:func:`set_up` with this process pinned to ``cpu``; the affinity is
    restored after, so the program under test is never pinned."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return set_up(work, tiny, index)
    finally:
        os.sched_setaffinity(0, allowed)


def measure(work: Path, tiny: bool, seconds: float, metrics: dict) -> Result:
    """Set up and reverse, in turn, until ``--seconds`` have passed.

    The set-ups are spread through the run like the reverses, so both
    medians see the same host.  They take turns on the host's CPUs, and
    ``setup_s`` is the mean over CPUs of each CPU's median: a
    single-threaded set-up runs on one CPU, and on a shared host one CPU
    can be slower than another for minutes, so an unpinned set-up would
    measure where the scheduler happened to put this process.
    """
    cpus = sorted(os.sched_getaffinity(0))
    setup_times: Dict[int, List[float]] = {cpu: [] for cpu in cpus}
    capture_dirs, runs = [], []
    n_setups = 0
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        for _ in range(SETUPS_PER_REVERSE):
            cpu = cpus[n_setups % len(cpus)]
            car, capture_dir, elapsed = set_up_on(cpu, work, tiny, n_setups)
            setup_times[cpu].append(elapsed)
            n_setups += 1
        capture_dirs.append(capture_dir)
        memo = work / f"memo-{len(runs)}"
        runs.append(run_cli(reverse_args(capture_dir, memo), work, RUN_TIMEOUT_S))

    # Recall the first run's report from its memo and score it.
    first = runs[0]
    score = pipeline.Score(0, 0)
    notes = []
    if first.ok:
        recalled = pipeline.reverser(gp_memo_dir=str(work / "memo-0"))
        report = recalled.reverse_engineer(load_capture(capture_dirs[0]))
        if report.to_json() + "\n" == first.stdout:
            score = pipeline.score_report(report, car)
        else:
            notes.append("the recalled report differs from the printed one")
    failed = sum(
        not run.ok or run.stdout != first.stdout or not score.n_formulas for run in runs
    )
    if failed:
        notes.append(f"{failed} reverse run(s) failed or printed another report")
    attempted = len(runs)
    walls = [run.wall_s for run in runs]
    ok_runs = attempted - failed
    metrics.update(
        {
            "setup_s": mean(median(times) for times in setup_times.values() if times),
            "peak_rss_mb": max(run.peak_rss_mb for run in runs),
            "ok_ratio": ok_runs / attempted,
            "formulas_correct": score.n_correct,
            "formula_precision": score.precision if score.n_formulas else 0.0,
            "reverse_s": median(walls),
            "formulas_per_s": score.n_formulas * ok_runs / sum(walls),
            "session_p50_s": median(walls),
            "session_p90_s": tail_percentile(walls)[0],
            "sessions_per_s": ok_runs / sum(walls),
        }
    )
    notes.append(
        f"{attempted} reverse run(s), {n_setups} set-ups on {len(cpus)} CPU(s), "
        f"report {score.n_correct}/{score.n_formulas}"
    )
    return Result("reverse-k", failed == 0, attempted, failed, metrics, notes)


def traced(work: Path, tiny: bool, metrics: dict, recorder: SpanRecorder) -> Result:
    """The reverse in-process with spans around each layer's calls, then
    once more without them: the untraced baseline, which must produce the
    same report.  Last, the fleet probe measures the ``runtime`` and
    ``can.noise`` layers, outside the span tree."""
    _, capture_dir, _ = set_up(work, tiny, 0)
    with recorder.span("unattributed") as root:
        with recorder.span("persistence"):
            capture = load_capture(capture_dir)
        reverser = pipeline.reverser(gp_workers=GP_WORKERS, stage_hook=recorder.stage_hook)
        context = reverser.analyze(capture)
        report = reverser.infer(context)
    wall = root.end - root.start
    bare_start = time.perf_counter()
    bare = pipeline.reverser(gp_workers=GP_WORKERS).reverse_engineer(load_capture(capture_dir))
    untraced_s = time.perf_counter() - bare_start

    metrics.update(recorder.layer_metrics())
    counts = pipeline.PipelineCounts()
    counts.add(capture, context, report)
    counts.fill(metrics, recorder.esv_seconds, GP_WORKERS)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_ratio"] = wall / untraced_s
    same = report.to_json() == bare.to_json()
    notes = [] if same else ["the traced and untraced reports differ"]
    fleet, problems, cars = fleet_probe.probe(work, tiny)
    metrics.update(fleet)
    notes += problems
    failed = (not same) + len(problems)
    return Result("reverse-k", failed == 0, 2 + cars, failed, metrics, notes)


def run(work: Path, seed: int, seconds: float, trace: bool, tiny: bool,
        metrics: dict, recorder: SpanRecorder) -> Result:
    if trace:
        return traced(work, tiny, metrics, recorder)
    return measure(work, tiny, seconds, metrics)
