"""Calls into the program's public API shared by the workloads.

Collecting a fleet car's capture, building a reverser with the CLI's
defaults, scoring a report against ground truth the way
:func:`repro.runtime.run_job` does, and the report digest the service
sends with every report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from statistics import median
from typing import Callable, Optional, Tuple

from repro.core import DPReverser, GpConfig, ReverserConfig, ReverseReport, check_formula
from repro.cps import Capture, DataCollector
from repro.tools import make_tool_for_car
from repro.vehicle import build_car, ground_truth_formulas

from common import GP_SEED


def collect_capture(key: str, read_duration_s: float) -> Tuple[object, Capture]:
    """``(car, capture)``: one data-collection campaign on a fleet car."""
    car = build_car(key)
    tool = make_tool_for_car(key, car)
    return car, DataCollector(tool, read_duration_s=read_duration_s).collect()


def reverser_config(
    gp_workers: int = 1,
    gp_backend: str = "auto",
    gp_memo_dir: str = "",
    stage_hook: Optional[Callable[[str, float], None]] = None,
) -> ReverserConfig:
    """A reverser configuration with the CLI's defaults."""
    return ReverserConfig(
        gp_config=GpConfig(seed=GP_SEED),
        gp_workers=gp_workers,
        gp_backend=gp_backend,
        gp_memo_dir=gp_memo_dir,
        stage_hook=stage_hook,
    )


def reverser(**options) -> DPReverser:
    """A reverser configured as the CLI configures it."""
    return DPReverser(reverser_config(**options))


@dataclass(frozen=True)
class Score:
    """A report scored against the car's hidden formulas."""

    n_formulas: int
    n_correct: int

    @property
    def precision(self) -> float:
        return self.n_correct / self.n_formulas if self.n_formulas else 1.0


def score_report(report: ReverseReport, car) -> Score:
    """Tab. 6 scoring: a formula ESV is correct when its identifier has a
    ground-truth formula that :func:`check_formula` finds equivalent."""
    truth = ground_truth_formulas(car)
    correct = 0
    for esv in report.formula_esvs:
        expected = truth.get(esv.identifier)
        correct += int(
            expected is not None and check_formula(esv.formula, expected, esv.samples)
        )
    return Score(len(report.formula_esvs), correct)


def report_digest(report_json: str) -> str:
    """The digest ``repro serve`` attaches to a report."""
    return hashlib.sha256(report_json.encode()).hexdigest()


# ------------------------------------------------------ traced-run counters

#: Work counters a traced run sums over every report it produced.
PIPELINE_COUNTS = (
    "decode.frames",
    "decode.messages",
    "decode.messages_lost",
    "extract.observations",
    "screenshot.video_frames",
    "match.matched",
    "infer.generations",
    "ecr.procedures",
)


class PipelineCounts:
    """Counters read off one or more ``(capture, context, report)`` triples."""

    def __init__(self) -> None:
        self.counts = {name: 0 for name in PIPELINE_COUNTS}
        self.ocr_kept = 0
        self.ocr_read = 0

    def add(self, capture: Capture, context, report: ReverseReport) -> None:
        counts = self.counts
        counts["decode.frames"] += len(capture.can_log)
        counts["decode.messages"] += len(context.messages)
        if context.diagnostics is not None:
            counts["decode.messages_lost"] += context.diagnostics.stats.messages_lost
        counts["extract.observations"] += len(context.fields.observations)
        counts["screenshot.video_frames"] += len(capture.video)
        counts["match.matched"] += len(context.matches)
        counts["infer.generations"] += sum(
            esv.formula.generations for esv in report.formula_esvs
        )
        counts["ecr.procedures"] += len(report.ecrs)
        for filtered in context.filter_reports.values():
            self.ocr_kept += filtered.kept
            self.ocr_read += (
                filtered.kept + filtered.removed_range + filtered.removed_outlier
            )

    def fill(self, metrics: dict, esv_seconds, gp_workers: int) -> None:
        """Write the counters and the ratios derived from them and from the
        self times already in ``metrics``."""
        metrics.update(self.counts)
        decode_s = metrics["decode.s"]
        metrics["decode.frames_per_s"] = (
            self.counts["decode.frames"] / decode_s if decode_s else 0.0
        )
        metrics["screenshot.ocr_kept_ratio"] = (
            self.ocr_kept / self.ocr_read if self.ocr_read else 0.0
        )
        fill_esv_metrics(metrics, esv_seconds, gp_workers)


def fill_esv_metrics(metrics: dict, esv_seconds, gp_workers: Optional[int]) -> None:
    """Per-ESV inference task metrics from ``gp_formula`` samples; the
    pool's busy ratio only when ``gp_workers`` names a per-ESV pool."""
    metrics["infer.tasks"] = len(esv_seconds)
    if esv_seconds:
        metrics["infer.esv_p50_s"] = median(esv_seconds)
        metrics["infer.esv_max_s"] = max(esv_seconds)
    infer_s = metrics["infer.s"]
    if gp_workers and infer_s:
        metrics["infer.pool_busy_ratio"] = sum(esv_seconds) / (gp_workers * infer_s)
