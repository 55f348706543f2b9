"""Workload ``serve-repeat``: the repeat-model streaming service.

``repro serve --gp-memo DIR --sessions N`` runs as a subprocess.  Set-up
collects captures of models B, C, D, E, G and I, builds each one's batch
``DPReverser`` report (which warms the memo the server reads), starts the
server and streams each model once so lazy start-up is paid before
timing.  GP then does no work: every lookup hits the memo, and the time
goes to the wire, decode, screenshot/OCR and matching.

The generator streams those captures in a seeded order, each model both
as per-frame JSON (the client default) and as ``frame-batch`` with 256
frames per batch, in two phases:

* open loop: sessions due at a fixed rate, timed from their due time, at
  most ``nproc`` connections in flight (a session held back by the cap
  still counts from its due time);
* closed loop: ``nproc`` clients (2 on a 2-core host) back to back, in
  two halves, one before and one after the open loop.

Every report must carry the digest of the batch report for its capture.
The server stops itself after ``N`` sessions, so it exits cleanly and,
in the traced run, writes its ``--metrics-out`` histograms.  The traced
run also replays each (model, format) pair in-process through the
service's public pieces (``capture_to_wire``, ``encode_message``,
``MessageDecoder.feed``, ``VehicleSession.ingest_*`` and
``VehicleSession.finalize``) with spans around each call.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import select
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import DPReverser
from repro.cps import Capture
from repro.service import (
    MessageDecoder,
    ProtocolError,
    ServiceClientError,
    VehicleSession,
    arrays_from_batch,
    capture_to_wire,
    encode_message,
    stream_capture_async,
)
from repro.service.protocol import (
    FRAME_BATCH,
    click_from_wire,
    frame_from_wire,
    segment_from_wire,
    video_from_wire,
)

import pipeline
from common import Result, SpanRecorder, kill_group, start_sut, tail_percentile, wait_sut

MODELS = ("B", "C", "D", "E", "G", "I")
READ_S = 30.0
#: Tiny mode: one model, 8 s reads, a handful of sessions.
TINY_MODELS, TINY_READ_S = ("C",), 8.0
FORMATS = ("json", "batch")
BATCH_FRAMES = 256
#: Open loop: 2 sessions/s (the backlog grows at ~6/s, the knee is ~4/s);
#: 100 sessions leave ten beyond the 90th percentile.
OPEN_RATE, OPEN_SESSIONS = 2.0, 100
TINY_OPEN_RATE, TINY_OPEN_SESSIONS = 4.0, 6
#: Closed-loop sessions per second of ``--seconds``: the phase has a fixed
#: amount of work, so a faster service finishes it sooner.
CLOSED_PER_SECOND = 1.0
SESSION_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 60.0
SERVER_EXIT_TIMEOUT_S = 60.0
#: Bytes per ``MessageDecoder.feed`` call in the replay (a TCP read size).
READ_CHUNK = 64 * 1024
GP_WORKERS = 2


@dataclass
class Reference:
    """A model's capture and its batch report's digest and score."""

    capture: Capture
    digest: str
    score: pipeline.Score


@dataclass
class Outcome:
    """One streamed session as the client saw it."""

    model: str
    ok: bool
    started: float
    finished: float
    due: float = 0.0
    n_formulas: int = 0

    @property
    def latency(self) -> float:
        """Due time to report; a failed session misses any latency limit."""
        latency = self.finished - self.due
        return latency if self.ok else max(latency, SESSION_TIMEOUT_S)


@dataclass
class LoadStats:
    outcomes: List[Outcome] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    inflight: int = 0
    max_inflight: int = 0
    wall_s: float = 0.0

    def extend(self, other: "LoadStats") -> None:
        """Fold in another phase of the same loop."""
        self.outcomes += other.outcomes
        self.lags += other.lags
        self.max_inflight = max(self.max_inflight, other.max_inflight)
        self.wall_s += other.wall_s


def session_plan(models: Sequence[str], seed: int, count: int) -> List[Tuple[str, str]]:
    """``count`` (model, wire format) pairs, cycling through every pair in
    a freshly shuffled order each cycle."""
    rng = random.Random(seed)
    pairs = [(model, fmt) for model in models for fmt in FORMATS]
    plan: List[Tuple[str, str]] = []
    while len(plan) < count:
        cycle = list(pairs)
        rng.shuffle(cycle)
        plan += cycle
    return plan[:count]


def build_references(models: Sequence[str], read_s: float, memo: Path) -> Dict[str, Reference]:
    """Collect each model and reverse it in batch, warming the memo."""
    references = {}
    for key in models:
        car, capture = pipeline.collect_capture(key, read_s)
        report = pipeline.reverser(
            gp_workers=GP_WORKERS, gp_memo_dir=str(memo)
        ).reverse_engineer(capture)
        references[key] = Reference(
            capture,
            pipeline.report_digest(report.to_json()),
            pipeline.score_report(report, car),
        )
    return references


class Server:
    """``repro serve`` as a subprocess that stops after ``sessions``."""

    def __init__(self, work: Path, memo: Path, sessions: int, metrics_out: Optional[Path]):
        args = ["serve", "--port", "0", "--gp-memo", str(memo), "--sessions", str(sessions)]
        if metrics_out is not None:
            args += ["--metrics-out", str(metrics_out)]
        self.stderr = open(work / "serve.stderr", "wb")
        self.proc = start_sut(args, work, stdout=subprocess.PIPE, stderr=self.stderr)
        self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        found = re.search(r"listening on [\d.]+:(\d+)", line)
        if found is None:
            self.kill()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return int(found.group(1))

    def wait(self) -> Tuple[int, float, bool]:
        """Wait for the self-stop; ``(exit code, peak RSS MB, timed out)``."""
        try:
            return wait_sut(self.proc, SERVER_EXIT_TIMEOUT_S)
        finally:
            self._close()

    def kill(self) -> None:
        if self.proc.returncode is None:
            kill_group(self.proc)
            self.proc.wait()
        self._close()

    def _close(self) -> None:
        self.proc.stdout.close()
        self.stderr.close()


async def stream_one(port: int, references: Dict[str, Reference], model: str, fmt: str) -> Outcome:
    reference = references[model]
    started = time.perf_counter()
    try:
        result = await asyncio.wait_for(
            stream_capture_async(
                "127.0.0.1",
                port,
                reference.capture,
                tenant=f"bench-{model}",
                batch_size=BATCH_FRAMES if fmt == "batch" else 0,
            ),
            SESSION_TIMEOUT_S,
        )
        ok = result.digest == reference.digest
    except (ServiceClientError, ProtocolError, OSError, asyncio.TimeoutError):
        ok = False
    finished = time.perf_counter()
    n_formulas = reference.score.n_formulas if ok else 0
    return Outcome(model, ok, started, finished, started, n_formulas)


async def warm_up(port: int, references: Dict[str, Reference]) -> List[Outcome]:
    return [await stream_one(port, references, model, "batch") for model in references]


async def open_loop(port, references, plan, rate: float, cap: int) -> LoadStats:
    stats = LoadStats()
    gate = asyncio.Semaphore(cap)
    begin = time.perf_counter() + 0.05

    async def fire(index: int, model: str, fmt: str) -> None:
        due = begin + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        stats.lags.append(time.perf_counter() - due)
        async with gate:
            stats.inflight += 1
            stats.max_inflight = max(stats.max_inflight, stats.inflight)
            try:
                outcome = await stream_one(port, references, model, fmt)
            finally:
                stats.inflight -= 1
        outcome.due = due
        stats.outcomes.append(outcome)

    tasks = [asyncio.ensure_future(fire(i, m, f)) for i, (m, f) in enumerate(plan)]
    await asyncio.gather(*tasks)
    stats.wall_s = time.perf_counter() - begin
    return stats


async def closed_loop(port, references, plan, clients: int) -> LoadStats:
    stats = LoadStats(max_inflight=clients)
    pending = iter(plan)
    begin = time.perf_counter()

    async def client() -> None:
        for model, fmt in pending:
            stats.outcomes.append(await stream_one(port, references, model, fmt))

    await asyncio.gather(*[client() for _ in range(clients)])
    stats.wall_s = time.perf_counter() - begin
    return stats


# -------------------------------------------------------- in-process replay


class TappedReverser(DPReverser):
    """Keeps the analysis context ``finalize`` builds, for layer counters."""

    context = None

    def analyze_assembled(self, *args, **kwargs):
        self.context = super().analyze_assembled(*args, **kwargs)
        return self.context


def from_wire(message: dict):
    """A decoded wire message as ``(kind, what the session ingests)``."""
    kind = message["type"]
    if kind == "frame":
        return kind, frame_from_wire(message)
    if kind == FRAME_BATCH:
        return kind, arrays_from_batch(message)
    if kind == "video":
        return kind, video_from_wire(message)
    if kind == "click":
        return kind, click_from_wire(message)
    if kind == "segment":
        return kind, segment_from_wire(message)
    return kind, message


@dataclass
class ReplayStats:
    ok: int = 0
    failed: int = 0
    wire_bytes: Dict[str, int] = field(default_factory=dict)
    sessions: Dict[str, int] = field(default_factory=dict)
    memo_hits: int = 0
    memo_misses: int = 0


def replay(references, pairs, memo: Path, recorder: Optional[SpanRecorder],
           counts: Optional[pipeline.PipelineCounts]) -> ReplayStats:
    """Stream each pair through the service's pieces in this process.

    With a recorder, every call into the program sits in a span of its
    layer; without one the same calls run bare (the untraced baseline).
    """
    stats = ReplayStats()

    def span(layer: str):
        return recorder.span(layer) if recorder is not None else nullcontext()

    hook = recorder.stage_hook if recorder is not None else None
    for index, (model, fmt) in enumerate(pairs):
        reference = references[model]
        with span(f"wire.{fmt}.encode"):
            data = b"".join(
                encode_message(message)
                for message in capture_to_wire(
                    reference.capture,
                    tenant=f"bench-{model}",
                    batch_size=BATCH_FRAMES if fmt == "batch" else 0,
                )
            )
        with span(f"wire.{fmt}.decode"):
            decoder = MessageDecoder()
            records = [
                from_wire(message)
                for offset in range(0, len(data), READ_CHUNK)
                for message in decoder.feed(data[offset : offset + READ_CHUNK])
            ]
        stats.wire_bytes[fmt] = stats.wire_bytes.get(fmt, 0) + len(data)
        stats.sessions[fmt] = stats.sessions.get(fmt, 0) + 1
        _, hello = records[0]
        session = VehicleSession(
            index, tenant=hello["tenant"], transport=hello["transport"], meta=hello["meta"]
        )
        reverser = TappedReverser(
            pipeline.reverser_config(
                gp_backend="serial", gp_memo_dir=str(memo), stage_hook=hook
            )
        )
        report = None
        for kind, payload in records[1:]:
            if kind == "frame":
                with span("decode"):
                    session.ingest_frame(payload)
            elif kind == FRAME_BATCH:
                with span("decode"):
                    session.ingest_frames(payload)
            elif kind == "video":
                with span("session.ingest"):
                    session.ingest_video(payload)
            elif kind == "click":
                with span("session.ingest"):
                    session.ingest_click(payload)
            elif kind == "segment":
                with span("session.ingest"):
                    session.ingest_segment(payload)
            elif kind == "finish":
                with span("session.finalize"):
                    report = session.finalize(reverser)
        if report is not None and pipeline.report_digest(report.to_json()) == reference.digest:
            stats.ok += 1
        else:
            stats.failed += 1
        stats.memo_hits += reverser.memo_stats["hits"]
        stats.memo_misses += reverser.memo_stats["misses"]
        if counts is not None and report is not None:
            counts.add(reverser.context.capture, reverser.context, report)
    return stats


# ------------------------------------------------------------------ the run


def run(work: Path, seed: int, seconds: float, trace: bool, tiny: bool,
        metrics: dict, recorder: Optional[SpanRecorder]) -> Result:
    models, read_s = (TINY_MODELS, TINY_READ_S) if tiny else (MODELS, READ_S)
    rate, n_open = (TINY_OPEN_RATE, TINY_OPEN_SESSIONS) if tiny else (OPEN_RATE, OPEN_SESSIONS)
    n_pairs = len(models) * len(FORMATS)
    n_closed = n_pairs * max(1, round(CLOSED_PER_SECOND * seconds / n_pairs))
    if tiny:
        n_closed = n_pairs
    cap = min(GP_WORKERS, os.cpu_count() or 1)
    plan = session_plan(models, seed, n_open + n_closed)
    metrics_out = work / "serve-metrics.json" if trace else None

    setup_start = time.perf_counter()
    memo = work / "memo"
    references = build_references(models, read_s, memo)
    server = Server(work, memo, len(models) + n_open + n_closed, metrics_out)
    try:
        warm = asyncio.run(warm_up(server.port, references))
        setup_s = time.perf_counter() - setup_start
        # The closed loop runs in two halves around the open loop, so a
        # transient slowdown of a shared host hits at most one of them.
        half = n_open + n_closed // 2
        closed = asyncio.run(closed_loop(server.port, references, plan[n_open:half], cap))
        opened = asyncio.run(open_loop(server.port, references, plan[:n_open], rate, cap))
        closed.extend(
            asyncio.run(closed_loop(server.port, references, plan[half:], cap))
        )
    except BaseException:
        server.kill()
        raise
    code, peak_rss, timed_out = server.wait()

    outcomes = warm + opened.outcomes + closed.outcomes
    attempted = len(outcomes)
    failed = sum(not outcome.ok for outcome in outcomes)
    notes = [
        f"{len(warm)} warm-up, {n_open} open-loop at {rate:g}/s, {n_closed} "
        f"closed-loop sessions over {cap} connection(s); seed {seed}"
    ]
    server_ok = code == 0 and not timed_out
    if not server_ok:
        notes.append(f"repro serve did not stop by itself (exit {code})")

    if trace:
        result_ok, extra_attempted, extra_failed = traced(
            references, models, memo, metrics, recorder, opened, outcomes, metrics_out, notes
        )
        return Result(
            "serve-repeat",
            server_ok and failed == 0 and result_ok,
            attempted + extra_attempted,
            failed + extra_failed,
            metrics,
            notes,
        )

    delivered = {outcome.model for outcome in outcomes if outcome.ok}
    n_formulas = sum(references[key].score.n_formulas for key in delivered)
    n_correct = sum(references[key].score.n_correct for key in delivered)
    closed_walls = [o.finished - o.started for o in closed.outcomes]
    latencies = [outcome.latency for outcome in opened.outcomes]
    p90, q = tail_percentile(latencies)
    notes.append(f"session_p90_s is the p{q * 100:g} of {len(latencies)} open-loop sessions")
    metrics.update(
        {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            "ok_ratio": (attempted - failed) / attempted,
            "formulas_correct": n_correct,
            "formula_precision": n_correct / n_formulas if n_formulas else 0.0,
            "reverse_s": median(closed_walls),
            "formulas_per_s": sum(o.n_formulas for o in closed.outcomes) / closed.wall_s,
            "session_p50_s": median(latencies),
            "session_p90_s": p90,
            "sessions_per_s": sum(o.ok for o in closed.outcomes) / closed.wall_s,
        }
    )
    return Result("serve-repeat", server_ok and failed == 0, attempted, failed, metrics, notes)


def traced(references, models, memo, metrics, recorder, opened: LoadStats,
           outcomes: List[Outcome], metrics_out: Path, notes: List[str]):
    """Per-layer metrics: generator, server histograms, in-process replay.

    Returns ``(server snapshot readable, replay sessions, replay failures)``.
    """
    metrics["loadgen.lag_max_ms"] = max(opened.lags) * 1000.0
    metrics["loadgen.max_inflight"] = opened.max_inflight
    metrics["loadgen.sessions"] = len(opened.outcomes)

    snapshot_ok = metrics_out.is_file()
    if snapshot_ok:
        histograms = json.loads(metrics_out.read_text())["histograms"]
        ingest = histograms.get("service.ingest_seconds", {})
        finalize = histograms.get("service.finalize_seconds", {})
        completed = finalize.get("count", 0)
        if completed:
            server_s = (ingest.get("total_s", 0.0) + finalize["total_s"]) / completed
            service = [o.finished - o.started for o in outcomes if o.ok]
            metrics["server.ingest_s"] = ingest.get("total_s", 0.0) / completed
            metrics["server.finalize_p50_s"] = finalize["p50_s"]
            metrics["server.residual_s"] = (sum(service) / len(service) if service else 0.0) - server_s
    else:
        notes.append("repro serve wrote no --metrics-out snapshot")

    pairs = [(model, fmt) for model in models for fmt in FORMATS]
    # The first pass warms this process (lazy imports, memo reads).  The
    # untraced baseline is the mean of the passes just before and after
    # the traced one, so a drift in host speed affects both sides alike.
    bare = [replay(references, pairs, memo, None, None)]
    bare_s = []
    counts = pipeline.PipelineCounts()
    for traced_pass in (False, True, False):
        if traced_pass:
            with recorder.span("unattributed") as root:
                stats = replay(references, pairs, memo, recorder, counts)
            continue
        start = time.perf_counter()
        bare.append(replay(references, pairs, memo, None, None))
        bare_s.append(time.perf_counter() - start)
    wall = root.end - root.start
    untraced_s = sum(bare_s) / len(bare_s)

    metrics.update(recorder.layer_metrics())
    counts.fill(metrics, recorder.esv_seconds, gp_workers=1)
    for fmt in FORMATS:
        if stats.sessions.get(fmt):
            metrics[f"wire.{fmt}.bytes_per_session"] = stats.wire_bytes[fmt] / stats.sessions[fmt]
    lookups = stats.memo_hits + stats.memo_misses
    metrics["memo.hits"] = stats.memo_hits
    metrics["memo.misses"] = stats.memo_misses
    metrics["memo.hit_ratio"] = stats.memo_hits / lookups if lookups else 0.0
    if lookups and not stats.memo_misses:
        metrics["memo.lookup_s"] = sum(recorder.esv_seconds)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_ratio"] = wall / untraced_s
    replayed = (len(bare) + 1) * len(pairs)
    return snapshot_ok, replayed, sum(b.failed for b in bare) + stats.failed
