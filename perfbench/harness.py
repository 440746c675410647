"""Set-up, timed laps, output checks and metrics of one workload run.

Load is a closed loop with one caller: each lap builds a fresh
detector from the pretrained bundle and calls ``run_stream`` once on
the whole capture, which the detector consumes one ``poll_every``
slice at a time as fast as it can.  Laps repeat until the run's time is
spent (see :func:`measure` for how laps become metrics).  Overload is
the detector's own count-based ``cycle_budget``, so backlog growth does
not depend on host speed.

The program is driven only through its public entry points:
``pretrain_from_records``, ``AutomatedDDoSDetector(...)``,
``MitigationController().attach_to``, ``LifecycleManager().attach_to``
and ``run_stream``.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import AutomatedDDoSDetector, pretrain_from_records
from repro.core.checkpoint import restore_detector, snapshot_detector
from repro.core.sharding import prediction_log_digest
from repro.lifecycle import LifecycleManager
from repro.mitigation import MitigationController
from repro.sketch import SketchConfig

import tracing
from workloads import ACCURACY_FLOOR, POLL_EVERY, Capture, Workload, panel_factories

#: (name, unit, better) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("throughput_rps", "1/s", "higher"),
    ("decision_latency_p50_ms", "ms", "lower"),
    ("decision_latency_p99_ms", "ms", "lower"),
    ("cpu_us_per_record", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("decision_accuracy", "ratio", "higher"),
    ("benign_specificity", "ratio", "higher"),
    ("decided_share", "ratio", "higher"),
)

#: (name, unit, better) of every per-layer metric of the traced run.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("collection.self_s", "s", "lower"),
    ("collection.records", "count", "higher"),
    ("sketch.self_s", "s", "lower"),
    ("sketch.admit_share", "ratio", "lower"),
    ("flow_table.self_s", "s", "lower"),
    ("flow_table.fallback_share", "ratio", "lower"),
    ("flow_table.evictions", "count", "lower"),
    ("flow_table.resident_peak", "count", "lower"),
    ("processor.ingest.self_s", "s", "lower"),
    ("processor.features.self_s", "s", "lower"),
    ("processor.receive.self_s", "s", "lower"),
    ("database.register.self_s", "s", "lower"),
    ("database.poll.self_s", "s", "lower"),
    ("database.backlog_peak", "count", "lower"),
    ("database.dropped_on_evict", "count", "lower"),
    ("central.self_s", "s", "lower"),
    ("central.cycles", "count", "lower"),
    ("prediction.self_s", "s", "lower"),
    ("ml.rf.predict_s", "s", "lower"),
    ("ml.mlp.predict_s", "s", "lower"),
    ("ml.gnb.predict_s", "s", "lower"),
    ("sharding.dispatch_s", "s", "lower"),
    ("sharding.ring_wait_s", "s", "lower"),
    ("sharding.collect_s", "s", "lower"),
    ("sharding.merge_s", "s", "lower"),
    ("sharding.frames", "count", "lower"),
    ("sharding.bytes", "bytes", "lower"),
    ("coordinator.cpu_s", "s", "lower"),
    ("workers.cpu_s", "s", "lower"),
    ("checkpoint.count", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.pack_s", "s", "lower"),
    ("checkpoint.restore_s", "s", "lower"),
    ("mitigation.on_cycle_s", "s", "lower"),
    ("mitigation.finish_run_s", "s", "lower"),
    ("mitigation.actions", "count", "higher"),
    ("lifecycle.on_slice_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)

#: Set-ups timed per run, spread evenly over it (so also the fewest
#: laps a run measures, however short ``--seconds`` is).
SETUPS = 5


def _usable_cpus() -> List[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return list(range(os.cpu_count() or 1))


def host_fingerprint() -> Dict[str, Any]:
    import scipy

    return {
        "usable_cpus": len(_usable_cpus()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def pretrain(workload: Workload, train: Capture) -> Any:
    return pretrain_from_records(
        train.records, train.labels, panel=panel_factories(workload.panel), seed=0
    )


def build_detector(workload: Workload, bundle: Any) -> AutomatedDDoSDetector:
    sketch = (
        SketchConfig(width=1024, depth=4, partitions=64, promote_packets=8)
        if workload.sketch else None
    )
    det = AutomatedDDoSDetector(
        bundle, fast_poll=True, batched=True,
        max_flows=workload.max_flows, sketch=sketch,
    )
    if workload.closed_loop:
        MitigationController().attach_to(det)
        # No label oracle: the manager monitors drift but never retrains.
        LifecycleManager().attach_to(det)
    return det


def timed_setup(workload: Workload, train: Capture) -> Tuple[float, Any]:
    """Pretrain, construct and attach; returns (seconds, bundle)."""
    t0 = time.perf_counter()
    bundle = pretrain(workload, train)
    build_detector(workload, bundle)
    return time.perf_counter() - t0, bundle


# ----------------------------------------------------------------------
# one lap
# ----------------------------------------------------------------------
#: (coordinator CPU, worker CPU) while a sharded lap is pinned.
_placement: Optional[Tuple[int, int]] = None


def _after_fork_in_parent() -> None:
    # The worker just forked keeps the CPU it inherited; its
    # coordinator moves to the other one.
    if _placement is not None:
        os.sched_setaffinity(0, {_placement[0]})


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_parent=_after_fork_in_parent)


@contextmanager
def pinned(lap: int, workload: Workload) -> Iterator[None]:
    """Run lap ``lap`` on CPUs of its own, taking the usable CPUs in turn.

    Other load on a shared host slows each CPU separately, often for
    many seconds; a lap that stays on one CPU is slowed as a whole, and
    laps spread over every CPU let the fastest-lap readings of
    :func:`composite` find an undisturbed one.  A single-process lap
    runs on one CPU.  A sharded lap (one worker) runs its worker on one
    CPU and its coordinator on the next: the worker inherits the CPU the
    process holds when it forks, and the coordinator then moves.
    """
    global _placement
    cpus = _usable_cpus()
    if not hasattr(os, "sched_setaffinity") or (
        workload.shards is not None and len(cpus) < 2
    ):
        yield
        return
    first, second = cpus[lap % len(cpus)], cpus[(lap + 1) % len(cpus)]
    if workload.shards is not None:
        _placement = (second, first)
    os.sched_setaffinity(0, {first})
    try:
        yield
    finally:
        _placement = None
        os.sched_setaffinity(0, cpus)


def _cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


@dataclass
class Lap:
    """One ``run_stream`` call and everything checked about its output."""

    wall_s: float
    self_cpu_s: float
    child_cpu_s: float
    delivered: int
    predicted: int
    rejected: int
    lost: int
    skipped_evicted: int
    #: registration and prediction time of each prediction, in seq
    #: order, in microseconds since the lap started
    registered_us: np.ndarray
    predicted_us: np.ndarray
    #: when the lap passed each stream segment boundary (see
    #: :func:`_segment_marks`), same clock
    marks_us: np.ndarray
    accuracy: float
    specificity: float
    digest: str
    action_digest: Optional[str]
    supervision: Dict[str, Any]
    errors: List[str] = field(default_factory=list)

    @property
    def decided_share(self) -> float:
        return (self.predicted + self.rejected) / self.delivered


def _counters(det: AutomatedDDoSDetector) -> Dict[str, int]:
    """Ingest-side counters, summed over shard workers when sharded."""
    per = det.shard_stats if det.shard_stats is not None else [det.stats()]
    out = {"consumed": 0, "registered": 0, "pending": 0, "rejected": 0,
           "skipped_evicted": 0}
    for st in per:
        out["consumed"] += int(st["reports_consumed"])
        out["registered"] += int(st["updates_registered"])
        out["pending"] += int(st["pending_updates"])
        out["skipped_evicted"] += int(st["skipped_evicted"])
        sketch = st.get("sketch")
        if sketch:
            out["rejected"] += int(sketch["rejected_packets"])
    return out


#: Stretches of the delivered stream a lap is cut into for timing (one
#: or two central cycles each).
SEGMENTS = 200


def _segment_marks(seqs: np.ndarray, registered_us: np.ndarray, n: int,
                   end_us: float, segments: int) -> np.ndarray:
    """Lap times (from 0 to ``end_us``) at which the lap passed each
    boundary between ``segments`` equal stretches of the delivered
    stream: when every predicted record before the boundary had been
    registered (``seqs`` sorted, ``registered_us`` in the same order)."""
    idx = np.searchsorted(seqs, np.arange(1, segments) * n // segments)
    passed = np.concatenate([[0.0], np.maximum.accumulate(registered_us)])
    return np.clip(np.concatenate([[0.0], passed[idx], [end_us]]), 0.0, end_us)


def _remap(t: np.ndarray, marks: np.ndarray, origin: np.ndarray,
           pace: np.ndarray) -> np.ndarray:
    """Lap times ``t`` on the composite clock: segment ``k`` of the lap
    (``marks[k]`` to ``marks[k+1]``) starts at ``origin[k]`` and runs at
    ``pace[k]``."""
    k = np.clip(np.searchsorted(marks, t, side="right") - 1, 0, pace.size - 1)
    return origin[k] + (t - marks[k]) * pace[k]


def composite(laps: List["Lap"], remap: bool = True) -> Tuple[float, np.ndarray]:
    """Lap time (s) and per-decision latencies (ms) on the composite
    clock, which runs each stream segment at the pace of its fastest
    lap.  With ``remap``, every lap's own clock is mapped onto it
    segment by segment; without, latencies are read on each lap's own
    clock.  Each decision's latency is its least over laps."""
    dur = np.array([np.diff(lap.marks_us) for lap in laps])
    fastest = dur.min(axis=0)
    origin = np.concatenate([[0.0], np.cumsum(fastest)])
    latencies = []
    for lap, d in zip(laps, dur):
        pace = np.divide(fastest, d, out=np.ones_like(fastest), where=d > 0)
        mapped = [_remap(t, lap.marks_us, origin, pace) if remap else t
                  for t in (lap.registered_us, lap.predicted_us)]
        latencies.append(mapped[1] - mapped[0])
    if len({lat.size for lat in latencies}) > 1:  # reported by _check_laps
        latencies = latencies[:1]
    return float(fastest.sum()) / 1e6, np.min(latencies, axis=0) / 1e3


def run_lap(
    workload: Workload, det: AutomatedDDoSDetector, cap: Capture,
    shards: Optional[int] = None,
) -> Lap:
    """Time one ``run_stream`` call, then check its output.

    Accounting identity: every delivered record is either predicted
    (exactly once), rejected by the sketch gate, or lost — its pending
    update dropped when its flow was evicted, or skipped at dispatch.
    """
    gc.collect()
    s0, c0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter_ns()  # the detector's own wall clock
    db = det.run_stream(
        cap.records, poll_every=POLL_EVERY,
        cycle_budget=workload.cycle_budget, shards=shards,
    )
    t1 = time.perf_counter_ns()
    s1, c1 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)

    n = int(cap.records.shape[0])
    errors: List[str] = []
    preds = db.predictions
    seqs = np.fromiter((e.seq for e in preds), np.int64, len(preds))
    finals = np.fromiter(
        (-1 if e.final_decision is None else e.final_decision for e in preds),
        np.int64, len(preds),
    )
    registered = (np.fromiter(
        (e.wall_registered_ns for e in preds), np.int64, len(preds)) - t0) / 1e3
    predicted = (np.fromiter(
        (e.wall_predicted_ns for e in preds), np.int64, len(preds)) - t0) / 1e3
    order = np.argsort(seqs, kind="stable")
    seqs, finals = seqs[order], finals[order]
    registered, predicted = registered[order], predicted[order]
    if seqs.size and (seqs.min() < 0 or seqs.max() >= n):
        errors.append("prediction seq outside the delivered stream")
    if np.unique(seqs).size != seqs.size:
        errors.append("a delivered record was predicted more than once")
    c = _counters(det)
    if c["consumed"] != n:
        errors.append(f"consumed {c['consumed']} of {n} delivered records")
    if c["registered"] + c["rejected"] != n:
        errors.append(
            f"registered {c['registered']} + gate-rejected {c['rejected']} "
            f"!= delivered {n}"
        )
    if c["pending"]:
        errors.append(f"{c['pending']} updates still pending after the drain")
    lost = c["registered"] - seqs.size - c["pending"]
    if lost < 0:
        errors.append(f"more predictions ({seqs.size}) than registered updates")

    truth = cap.labels[seqs] if seqs.size else np.empty(0, np.uint8)
    decided = finals >= 0
    accuracy = float(np.mean(finals[decided] == truth[decided])) if decided.any() else 0.0
    benign = decided & (truth == 0)
    specificity = float(np.mean(finals[benign] == 0)) if benign.any() else 0.0

    supervision = dict(det.supervision_stats or {})
    if shards is not None:
        if supervision.get("workers_died", 0):
            errors.append(f"{supervision['workers_died']} shard worker(s) died")
        if supervision.get("lossy_recoveries", 0):
            errors.append("lossy shard recovery")
    return Lap(
        wall_s=(t1 - t0) / 1e9,
        self_cpu_s=s1 - s0,
        child_cpu_s=c1 - c0,
        delivered=n,
        predicted=int(seqs.size),
        rejected=c["rejected"],
        lost=max(lost, 0),
        skipped_evicted=c["skipped_evicted"],
        registered_us=registered,
        predicted_us=predicted,
        marks_us=_segment_marks(seqs, registered, n, (t1 - t0) / 1e3, SEGMENTS),
        accuracy=accuracy,
        specificity=specificity,
        digest=prediction_log_digest(db),
        action_digest=(
            det.mitigation.action_log_digest() if det.mitigation is not None else None
        ),
        supervision=supervision,
        errors=errors,
    )


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------
@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    detail: Dict[str, Any]


def _peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _check_laps(laps: List[Lap], reference: Optional[Lap]) -> List[str]:
    errors = [e for lap in laps for e in lap.errors]
    if len({lap.digest for lap in laps}) > 1:
        errors.append("laps over the same input disagree on the prediction log")
    for lap in laps:
        if lap.accuracy < ACCURACY_FLOOR:
            errors.append(
                f"decision accuracy {lap.accuracy:.4f} below the floor "
                f"{ACCURACY_FLOOR}"
            )
    if reference is not None:
        errors += [f"reference run: {e}" for e in reference.errors]
        for lap in laps:
            if lap.digest != reference.digest:
                errors.append("sharded prediction log digest != single-process run")
            if lap.action_digest != reference.action_digest:
                errors.append("sharded mitigation action digest != single-process run")
    return sorted(set(errors))


def _lap_summary(lap: Lap) -> Dict[str, Any]:
    return {
        "wall_s": round(lap.wall_s, 4),
        "records": lap.delivered,
        "predicted": lap.predicted,
        "gate_rejected": lap.rejected,
        "lost": lap.lost,
        "latency_samples": int(lap.predicted_us.size),
    }


def measure(workload: Workload, cap: Capture, train: Capture,
            seconds: float) -> Result:
    """The untraced run: end-to-end metrics.

    Laps repeat until ``seconds`` are spent, and :data:`SETUPS` of them
    follow a timed set-up, one at the start and the others spread
    evenly over the run (each builds the bundle the next laps use).  Every lap does the same
    work on the same input, and other load on the host slows stretches
    of a lap at random, so timings combine the least-disturbed
    measurement of each piece of work, on the :func:`composite` clock
    and with laps spread over the CPUs (:func:`pinned`): throughput
    divides the records by the composite lap time, latency percentiles
    are taken over the decisions' composite latencies, and
    CPU time per record is the composite lap time times the median CPU
    utilization of the laps.  ``setup_s`` is the median set-up, and
    ``peak_rss_mb`` the peak up to the end of the fifth lap.
    """
    setups: List[float] = []
    laps: List[Lap] = []
    reference = None
    t_start = time.perf_counter()
    while len(setups) < SETUPS or time.perf_counter() - t_start < seconds:
        with pinned(len(laps), workload):
            # Spread out, the set-ups are not all timed in one slow
            # spell of the host.
            if time.perf_counter() - t_start >= len(setups) * seconds / SETUPS:
                dt, bundle = timed_setup(workload, train)
                setups.append(dt)
            if workload.shards is not None and reference is None:
                reference = run_lap(workload, build_detector(workload, bundle), cap)
            laps.append(run_lap(workload, build_detector(workload, bundle), cap,
                                shards=workload.shards))
        if len(laps) == SETUPS:
            # Read before the timings kept from later laps, whose number
            # varies with host speed, add to this process's memory.
            peak_rss_mb = _peak_rss_mb()
    errors = _check_laps(laps, reference)

    # A sharded lap's pace is set by two processes, while its latencies
    # are measured inside the worker: they stay on each lap's own clock.
    lap_s, latency = composite(laps, remap=workload.shards is None)
    # CPU seconds (self + reaped shard workers) per wall second.
    utilization = float(statistics.median(
        [(lap.self_cpu_s + lap.child_cpu_s) / lap.wall_s for lap in laps]))
    metrics = {
        "throughput_rps": laps[0].delivered / lap_s,
        "decision_latency_p50_ms": float(np.percentile(latency, 50)),
        "decision_latency_p99_ms": float(np.percentile(latency, 99)),
        "cpu_us_per_record": utilization * lap_s / laps[0].delivered * 1e6,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": float(statistics.median(setups)),
        "decision_accuracy": min(lap.accuracy for lap in laps),
        "benign_specificity": min(lap.specificity for lap in laps),
        "decided_share": min(lap.decided_share for lap in laps),
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    attempted = sum(lap.delivered for lap in laps)
    return Result(
        correct=not errors,
        attempted=attempted,
        failed=attempted if errors else 0,
        metrics={k: (v, units[k]) for k, v in metrics.items()},
        detail={
            "laps": [_lap_summary(lap) for lap in laps],
            "setup_s": [round(s, 4) for s in setups],
            "errors": errors,
        },
    )


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _checkpoint_probe(bundle: Any, det: AutomatedDDoSDetector,
                      repeats: int = 3) -> Dict[str, float]:
    """Pack and restore a worker-shaped end state: the detector a shard
    worker holds (mitigation clone, no lifecycle manager, shipped
    predictions trimmed)."""
    det.lifecycle = None
    det.db.trim_predictions(len(det.db.predictions))
    cycles = int(det.central.cycles)
    last_seq = int(det.processor.packets_processed) - 1
    pack, restore, size = [], [], 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        blob = snapshot_detector(det, cycles, last_seq)
        pack.append(time.perf_counter() - t0)
        size = len(blob)
        fresh = AutomatedDDoSDetector(bundle, batched=True, **det.worker_config())
        MitigationController().attach_to(fresh)
        t0 = time.perf_counter()
        restore_detector(fresh, blob)
        restore.append(time.perf_counter() - t0)
    return {
        "checkpoint.bytes": float(size),
        "checkpoint.pack_s": float(statistics.median(pack)),
        "checkpoint.restore_s": float(statistics.median(restore)),
    }


def _layer_values(rec: tracing.SpanRecorder, run_id: int, lap: Lap,
                  det: AutomatedDDoSDetector) -> Dict[str, float]:
    spans = tracing.run_spans(rec.spans, run_id)
    own = tracing.self_times(spans)
    total = tracing.total_times(spans)
    calls = tracing.call_counts(spans)
    counts = rec.counts

    def s(*names: str, times: Dict[str, int] = own) -> float:
        return sum(times.get(n, 0) for n in names) / 1e9

    batched = counts.get("flow_table.records", 0)
    fallback = calls.get("flow_table.fallback", 0)
    root = total.get("run_stream", 0)
    out = {
        "collection.self_s": s("collection"),
        "collection.records": float(counts.get("collection.records", 0)),
        "sketch.self_s": s("sketch.admit", "sketch.window"),
        "sketch.admit_share": (
            1.0 - lap.rejected / lap.delivered if det.sketch_gate is not None else 0.0
        ),
        "flow_table.self_s": s("flow_table.batch", "flow_table.fallback"),
        "flow_table.fallback_share": fallback / batched if batched else 0.0,
        "flow_table.evictions": float(det.db.flows.evicted),
        "flow_table.resident_peak": float(counts.get("flow_table.resident_peak", 0)),
        "processor.ingest.self_s": s("processor.ingest"),
        "processor.features.self_s": s("processor.features"),
        "processor.receive.self_s": s("processor.receive"),
        "database.register.self_s": s("database.register"),
        "database.poll.self_s": s("database.poll"),
        "database.backlog_peak": float(counts.get("database.backlog_peak", 0)),
        "database.dropped_on_evict": float(lap.lost - lap.skipped_evicted),
        "central.self_s": s("central"),
        "central.cycles": float(calls.get("central", 0)),
        "prediction.self_s": s("prediction"),
        "ml.rf.predict_s": s("ml.rf", times=total),
        "ml.mlp.predict_s": s("ml.mlp", times=total),
        "ml.gnb.predict_s": s("ml.gnb", times=total),
        "sharding.dispatch_s": s("sharding.dispatch"),
        "sharding.ring_wait_s": s("sharding.ring_push", times=total),
        "sharding.collect_s": s("sharding.collect", times=total),
        "sharding.merge_s": s("sharding.merge", "sharding.unpack", times=total),
        "sharding.frames": float(counts.get("sharding.frames", 0)),
        "sharding.bytes": float(counts.get("sharding.bytes", 0)),
        "trace.coverage": (root - own.get("run_stream", 0)) / root if root else 0.0,
        "trace.spans": float(sum(calls.values())),
    }
    if lap.supervision:
        out["checkpoint.count"] = float(lap.supervision.get("checkpoints_taken", 0))
    return out


def measure_traced(workload: Workload, cap: Capture, train: Capture,
                   seconds: float) -> Result:
    """The traced run: per-layer metrics and the tracing overhead.

    Untraced and traced laps alternate until the time is spent; the
    overhead is the median traced lap wall time over the median
    untraced one.  On the sharded workload the single-process reference
    run (same attachments) is traced too: it is where the sketch gate,
    the mitigation flow tier and the lifecycle hook run in one process.
    """
    bundle = pretrain(workload, train)
    plain: List[Lap] = []
    traced: List[Lap] = []
    values: List[Dict[str, float]] = []
    extra: Dict[str, float] = {}
    ref: Optional[Lap] = None
    rec = tracing.SpanRecorder()
    try:
        if workload.shards is not None:
            ref_det = build_detector(workload, bundle)
            rec.install()
            rec.start_run(-1)
            ref = run_lap(workload, ref_det, cap)
            rec.close()
            spans = tracing.run_spans(rec.spans, -1)
            total = tracing.total_times(spans)
            own = tracing.self_times(spans)
            extra = {
                "sketch.self_s": (own.get("sketch.admit", 0)
                                  + own.get("sketch.window", 0)) / 1e9,
                "mitigation.on_cycle_s": total.get("mitigation.on_cycle", 0) / 1e9,
                "mitigation.finish_run_s": total.get("mitigation.finish_run", 0) / 1e9,
                "mitigation.actions": float(len(ref_det.mitigation.action_log)),
                "lifecycle.on_slice_s": total.get("lifecycle.on_slice", 0) / 1e9,
            }
            extra.update(_checkpoint_probe(bundle, ref_det))
        # Warm-up: the first lap on a fresh bundle also fills the
        # models' lazy caches, which would bias the overhead ratio.
        run_lap(workload, build_detector(workload, bundle), cap, shards=workload.shards)
        t_start = time.perf_counter()
        while not traced or time.perf_counter() - t_start < seconds:
            # Both laps of a pair on the same CPUs.
            with pinned(len(traced), workload):
                plain.append(run_lap(workload, build_detector(workload, bundle),
                                     cap, shards=workload.shards))
            with pinned(len(traced), workload):
                det = build_detector(workload, bundle)
                rec.install()
                rec.start_run(len(traced))
                try:
                    lap = run_lap(workload, det, cap, shards=workload.shards)
                finally:
                    rec.close()
            traced.append(lap)
            vals = _layer_values(rec, len(traced) - 1, lap, det)
            if lap.supervision:  # CPU split from the paired untraced lap
                vals["coordinator.cpu_s"] = plain[-1].self_cpu_s
                vals["workers.cpu_s"] = plain[-1].child_cpu_s
            values.append(vals)
    finally:
        rec.close()
    errors = _check_laps(plain + traced, ref)

    metrics: Dict[str, Tuple[float, str]] = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead":
            v = (statistics.median([lap.wall_s for lap in traced])
                 / statistics.median([lap.wall_s for lap in plain]))
        elif name in extra:
            v = extra[name]
        else:
            v = statistics.median([vals.get(name, 0.0) for vals in values])
        metrics[name] = (float(v), unit)
    attempted = sum(lap.delivered for lap in plain + traced)
    return Result(
        correct=not errors,
        attempted=attempted,
        failed=attempted if errors else 0,
        metrics=metrics,
        detail={
            "untraced_laps": [_lap_summary(lap) for lap in plain],
            "traced_laps": [_lap_summary(lap) for lap in traced],
            "throughput_rps_untraced": statistics.median(
                [lap.delivered / lap.wall_s for lap in plain]),
            "throughput_rps_traced": statistics.median(
                [lap.delivered / lap.wall_s for lap in traced]),
            "unwrapped_boundaries": rec.missing,
            "errors": errors,
        },
    )
