"""Shared plumbing of the repository benchmark.

Paths and the system-under-test (SUT) subprocess runner, the percentile
rule, the benchmark-side span recorder used by traced runs, the metric
catalogue (read from ``BENCHMARK.json``) and result printing.

Nothing here imports :mod:`repro`; the workload modules do, after
:func:`require_source_tree` has put ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in: the parent of ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch state of a run (captures, memo, resume dirs); removed at exit.
WORK_ROOT = ROOT / ".perfbench_work"

#: The GP seed every workload runs with: the CLI default, so formula
#: precision stays comparable with the paper's Tab. 6.
GP_SEED = 2

#: The samples a reported tail percentile must leave beyond itself.
MIN_BEYOND = 10

#: Per-layer metrics that are self times of disjoint layers: together with
#: ``unattributed_s`` they add up to ``trace.wall_s``.
SELF_TIME_METRICS = (
    "persistence.load_s",
    "decode.s",
    "extract.s",
    "screenshot.s",
    "align.s",
    "match.s",
    "infer.s",
    "ecr.s",
    "wire.json.encode_s",
    "wire.batch.encode_s",
    "wire.json.decode_s",
    "wire.batch.decode_s",
    "session.ingest_s",
    "session.finalize_s",
)

#: Span layer -> the self-time metric it feeds.  The root span of a traced
#: run is the ``unattributed`` layer.
LAYER_METRIC = {
    "unattributed": "unattributed_s",
    "persistence": "persistence.load_s",
    "decode": "decode.s",
    "extract": "extract.s",
    "screenshot": "screenshot.s",
    "align": "align.s",
    "match": "match.s",
    "infer": "infer.s",
    "ecr": "ecr.s",
    "wire.json.encode": "wire.json.encode_s",
    "wire.batch.encode": "wire.batch.encode_s",
    "wire.json.decode": "wire.json.decode_s",
    "wire.batch.decode": "wire.batch.decode_s",
    "session.ingest": "session.ingest_s",
    "session.finalize": "session.finalize_s",
}

#: ``DPReverser`` stage-hook names -> span layers.  ``gp_formula`` is not a
#: span: it fires once per ESV inside ``infer_formulas`` and, on the
#: process backend, times work done in parallel in pool workers.
STAGE_LAYER = {
    "assemble": "decode",
    "extract_fields": "extract",
    "screenshot": "screenshot",
    "alignment": "align",
    "match": "match",
    "infer_formulas": "infer",
    "ecr": "ecr",
}


def require_source_tree() -> None:
    """Exit non-zero unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "cli.py").is_file() or not SPEC_PATH.is_file():
        raise SystemExit(
            f"perfbench: {ROOT} holds no repro source tree (src/repro) or no "
            "BENCHMARK.json; run it from the root of a repository checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def metric_units(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics one run must print, in spec order."""
    entries = load_spec()["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


# ------------------------------------------------------------------ SUT runs


def sut_env() -> Dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def repro_command(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


@contextmanager
def work_dir(label: str) -> Iterator[Path]:
    """A fresh scratch directory inside the checkout, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def start_sut(args: Sequence[str], cwd: Path, **popen_kwargs) -> subprocess.Popen:
    """Start ``repro <args>`` in its own process group."""
    return subprocess.Popen(
        repro_command(*args),
        cwd=cwd,
        env=sut_env(),
        start_new_session=True,
        **popen_kwargs,
    )


def wait_sut(proc: subprocess.Popen, timeout_s: float) -> Tuple[int, float, bool]:
    """Reap ``proc``; return ``(exit code, peak RSS in MB, timed out)``.

    ``os.wait4`` blocks without polling and returns the child's resource
    usage, whose ``ru_maxrss`` is the largest peak of the child and the
    descendants it reaped (pool workers).  A ``SIGALRM`` timer bounds the
    wait; on timeout the whole process group is killed.
    """

    def expire(_signo: int, _frame: object) -> None:
        raise TimeoutError

    reaped = None
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        reaped = os.wait4(proc.pid, 0)
    except TimeoutError:
        pass  # a late alarm after the reap changes nothing
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    timed_out = reaped is None
    if timed_out:
        kill_group(proc)
        reaped = os.wait4(proc.pid, 0)
    _, status, usage = reaped
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_group(proc)  # stray grandchildren of a crashed SUT
    return proc.returncode, usage.ru_maxrss / 1024.0, timed_out


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


@dataclass
class CliRun:
    """One finished ``repro`` command."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def run_cli(args: Sequence[str], cwd: Path, timeout_s: float) -> CliRun:
    """Run ``repro <args>`` to completion, timing it from launch to exit."""
    out_path, err_path = cwd / "cli.stdout", cwd / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = start_sut(args, cwd, stdout=out, stderr=err)
        code, rss_mb, timed_out = wait_sut(proc, timeout_s)
        wall = time.perf_counter() - start
    return CliRun(
        code,
        wall,
        rss_mb,
        timed_out,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


# --------------------------------------------------------------- statistics


def tail_index(n: int, q: float, min_beyond: int = MIN_BEYOND) -> Optional[int]:
    """Sorted-sample index of the ``q`` percentile, capped so that at least
    ``min_beyond`` samples lie beyond it; ``None`` when the cap falls below
    the median (too few samples for any tail percentile)."""
    index = min(math.ceil(q * n) - 1, n - 1 - min_beyond)
    return index if index >= (n - 1) // 2 else None


def tail_percentile(samples: Sequence[float], q: float = 0.9) -> Tuple[float, float]:
    """``(value, percentile used)`` by the percentile rule.

    The requested percentile when the sample leaves ten samples beyond it,
    the highest percentile that does otherwise, and the median (reported
    as percentile 0.5) when no tail percentile has ten samples beyond.
    """
    ordered = sorted(samples)
    index = tail_index(len(ordered), q)
    if index is None:
        return statistics.median(ordered), 0.5
    return ordered[index], min(q, (index + 1) / len(ordered))


# ------------------------------------------------------------------ tracing


class Span:
    __slots__ = ("layer", "start", "end", "parent")

    def __init__(self, layer: str, start: float, parent: Optional["Span"]):
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent


class SpanRecorder:
    """Spans recorded by the benchmark around its calls into the program.

    Spans are kept in memory; a layer's self time is its spans' durations
    minus the time their child spans cover.  The first span opened is the
    root: its self time is what no layer accounts for.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: Per-ESV inference seconds reported by ``gp_formula`` stage hooks.
        self.esv_seconds: List[float] = []

    @contextmanager
    def span(self, layer: str) -> Iterator[Span]:
        record = Span(layer, time.perf_counter(), self._current())
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def _current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def ended(self, layer: str, elapsed: float) -> None:
        """Record a span that just ended after ``elapsed`` seconds."""
        end = time.perf_counter()
        record = Span(layer, end - elapsed, self._current())
        record.end = end
        self.spans.append(record)

    def stage_hook(self, stage: str, elapsed: float) -> None:
        """``ReverserConfig.stage_hook`` adapter."""
        if stage == "gp_formula":
            self.esv_seconds.append(elapsed)
        elif stage in STAGE_LAYER:
            self.ended(STAGE_LAYER[stage], elapsed)

    def self_times(self) -> Dict[str, float]:
        covered: Dict[int, float] = {}
        for record in self.spans:
            if record.parent is not None:
                key = id(record.parent)
                covered[key] = covered.get(key, 0.0) + record.end - record.start
        totals: Dict[str, float] = {}
        for record in self.spans:
            own = record.end - record.start - covered.get(id(record), 0.0)
            totals[record.layer] = totals.get(record.layer, 0.0) + own
        return totals

    def layer_metrics(self) -> Dict[str, float]:
        """Self times under their metric names, every self-time metric set."""
        metrics = {name: 0.0 for name in SELF_TIME_METRICS}
        metrics["unattributed_s"] = 0.0
        for layer, seconds in self.self_times().items():
            metrics[LAYER_METRIC[layer]] += seconds
        return metrics


# ------------------------------------------------------------------- output


def stamp() -> dict:
    """Host and code identity printed with every result."""
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
        "python": platform.python_version(),
        "commit": _commit(),
    }


def _commit() -> str:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


@dataclass
class Result:
    """What one workload run reports."""

    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: List[str]

    def payload(self, units: Dict[str, str]) -> dict:
        unknown = sorted(set(self.metrics) - set(units))
        if unknown:
            raise RuntimeError(f"{self.workload}: metrics missing from the spec: {unknown}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }


def print_table(result: Result, units: Dict[str, str]) -> None:
    attempted = max(result.attempted, 1)
    print(f"== {result.workload}: correct={result.correct}")
    print(
        f"   failed_ratio = {result.failed / attempted:.4f} "
        f"({result.failed} failed of {result.attempted} attempted)"
    )
    for name, unit in units.items():
        print(f"   {name:<28} {result.metrics[name]:>14.6g} {unit}")
    for note in result.notes:
        print(f"   note: {note}")
