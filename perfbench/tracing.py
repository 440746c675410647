"""In-memory span recorder for the benchmark's traced run.

Tracing lives entirely in the benchmark: :class:`SpanRecorder` wraps
public layer functions of the program (class methods and module
functions) for the duration of one traced lap and restores the
originals afterwards.  Each call becomes one span
``(name, start_ns, end_ns, parent, run_id)``; ``parent`` is the index
of the span that was open when the call started (-1 for none), so
:func:`self_times` can subtract the time covered by child spans.

Spans are only recorded in the process that installed the wrappers:
forked shard workers inherit the wrappers but call straight through.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, int, int, int, int]

#: (import path, attribute, span name, counter) for every wrapped
#: layer boundary.  ``counter`` names a function of the call's
#: arguments that updates :attr:`SpanRecorder.counts` before the call.
LAYER_FUNCTIONS: Sequence[Tuple[str, str, str, Optional[str]]] = (
    ("repro.core.mechanism:AutomatedDDoSDetector", "run_stream", "run_stream", None),
    ("repro.core.collection:IntDataCollection", "feed_batch", "collection", "records"),
    ("repro.sketch.gate:SketchGate", "admit_slice", "sketch.admit", None),
    ("repro.sketch.gate:SketchGate", "end_window", "sketch.window", None),
    ("repro.features.flow_table:FlowTable", "update_batch", "flow_table.batch", "batch"),
    ("repro.features.flow_table:FlowTable", "update", "flow_table.fallback", None),
    ("repro.core.processor:DataProcessor", "ingest_batch", "processor.ingest", None),
    ("repro.core.processor:DataProcessor", "features_matrix", "processor.features", None),
    ("repro.core.processor:DataProcessor", "receive_predictions_batch", "processor.receive", None),
    ("repro.core.database:FlowDatabase", "register_update_batch", "database.register", None),
    ("repro.core.database:FlowDatabase", "poll_updates", "database.poll", None),
    ("repro.core.central:CentralServer", "cycle", "central", "backlog"),
    ("repro.core.prediction:PredictionModule", "predict_batch", "prediction", None),
    ("repro.ml.forest:RandomForestClassifier", "predict", "ml.rf", None),
    ("repro.ml.mlp:MLPClassifier", "predict", "ml.mlp", None),
    ("repro.ml.naive_bayes:GaussianNB", "predict", "ml.gnb", None),
    ("repro.core.sharding:Supervisor", "dispatch", "sharding.dispatch", None),
    ("repro.common.buffers:SharedRing", "push", "sharding.ring_push", "frame"),
    ("repro.core.sharding:Supervisor", "collect", "sharding.collect", None),
    ("repro.core.sharding:Supervisor", "shard_packed", "sharding.merge", None),
    ("repro.core.sharding", "unpack_predictions", "sharding.unpack", None),
    ("repro.mitigation.controller:MitigationController", "on_cycle", "mitigation.on_cycle", None),
    ("repro.mitigation.controller:MitigationController", "finish_run", "mitigation.finish_run", None),
    ("repro.lifecycle.manager:LifecycleManager", "on_slice", "lifecycle.on_slice", None),
)


Counter = Callable[[tuple, Dict[str, int]], None]

#: Central cycles between two backlog samples (a sample walks the
#: pending-update map, so sampling every cycle would distort the trace).
BACKLOG_SAMPLE_EVERY = 8


def _count_records(args: tuple, counts: Dict[str, int]) -> None:
    # IntDataCollection.feed_batch(self, records, ...)
    counts["collection.records"] = counts.get("collection.records", 0) + int(args[1].shape[0])


def _count_batch(args: tuple, counts: Dict[str, int]) -> None:
    # FlowTable.update_batch(self, batch, ...): records folded, and the
    # resident flow count as the next batch arrives.
    counts["flow_table.records"] = counts.get("flow_table.records", 0) + int(args[1].n)
    resident = len(args[0])
    if resident > counts.get("flow_table.resident_peak", 0):
        counts["flow_table.resident_peak"] = resident


def _count_frame(args: tuple, counts: Dict[str, int]) -> None:
    # SharedRing.push(self, frame, ...)
    counts["sharding.frames"] = counts.get("sharding.frames", 0) + 1
    counts["sharding.bytes"] = counts.get("sharding.bytes", 0) + int(args[1].nbytes)


def _count_backlog(args: tuple, counts: Dict[str, int]) -> None:
    # CentralServer.cycle(self, ...): sample the database backlog.
    n = counts.get("central.calls", 0)
    counts["central.calls"] = n + 1
    if n % BACKLOG_SAMPLE_EVERY == 0:
        pending = args[0].db.pending_updates
        if pending > counts.get("database.backlog_peak", 0):
            counts["database.backlog_peak"] = pending


_COUNTERS: Dict[str, Counter] = {
    "records": _count_records,
    "batch": _count_batch,
    "frame": _count_frame,
    "backlog": _count_backlog,
}


def resolve(path: str) -> Any:
    """``"pkg.mod:Class"`` → the class; ``"pkg.mod"`` → the module."""
    mod_name, _, qual = path.partition(":")
    obj: Any = importlib.import_module(mod_name)
    for part in filter(None, qual.split(".")):
        obj = getattr(obj, part)
    return obj


class SpanRecorder:
    """Collects spans from wrapped callables; restores them on close.

    ``clock`` returns integer nanoseconds (injectable for tests).
    ``run_id`` tags every span recorded until the next
    :meth:`start_run`, so one recorder can hold several laps.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, int] = {}
        self.run_id = 0
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._pid = os.getpid()

    def start_run(self, run_id: int) -> None:
        """Tag spans from now on with ``run_id`` and reset the counts."""
        self.run_id = run_id
        self.counts.clear()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Optional[Counter] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, counts)``, when given, runs before every call and
        updates :attr:`counts` (for example the records the call is
        about to process).  Its cost lands in the parent span.
        """
        orig = getattr(owner, attr)
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts
        pid = self._pid

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != pid:  # forked worker: not traced
                return orig(*args, **kwargs)
            if count is not None:
                count(args, counts)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id)

        self._patches.append((owner, attr, orig, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every boundary in :data:`LAYER_FUNCTIONS`.  A boundary
        the program no longer has is listed in :attr:`missing` (its
        metrics then read 0) instead of failing the run."""
        self.missing = []
        for path, attr, name, counter in LAYER_FUNCTIONS:
            try:
                owner = resolve(path)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{path}.{attr}")
                continue
            self.wrap(owner, attr, name, _COUNTERS[counter] if counter else None)

    def close(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, orig, own = self._patches.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)  # the original was inherited

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def self_times(spans: Sequence[Optional[Span]]) -> Dict[str, int]:
    """Per-name self time (ns): each span's duration minus the time its
    direct children cover.  ``spans`` is a recorder's span list, whose
    parent indices refer to positions in that same list."""
    child = [0] * len(spans)
    for s in spans:
        if s is not None and s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: Dict[str, int] = {}
    for i, s in enumerate(spans):
        if s is not None:
            out[s[0]] = out.get(s[0], 0) + (s[2] - s[1] - child[i])
    return out


def total_times(spans: Sequence[Optional[Span]]) -> Dict[str, int]:
    """Per-name inclusive time (ns)."""
    out: Dict[str, int] = {}
    for s in spans:
        if s is not None:
            out[s[0]] = out.get(s[0], 0) + (s[2] - s[1])
    return out


def call_counts(spans: Sequence[Optional[Span]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for s in spans:
        if s is not None:
            out[s[0]] = out.get(s[0], 0) + 1
    return out


def run_spans(spans: Sequence[Optional[Span]], run_id: int) -> List[Optional[Span]]:
    """The spans of one run, with the list positions parent indices need
    (spans of other runs become ``None``)."""
    return [s if s is not None and s[4] == run_id else None for s in spans]
