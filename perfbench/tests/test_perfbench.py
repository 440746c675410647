"""The benchmark's own tests, on tiny seeded inputs.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import harness
import tracing
import workloads
from workloads import WORKLOADS

TINY = 1 / 100  # share of the small profile's rates: a few thousand records


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    test = workloads.campaign_capture(7, TINY, root)
    train = workloads.campaign_capture(8, TINY, root)
    return root, test, train


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
def test_same_seed_gives_byte_identical_inputs(tiny, tmp_path):
    _root, first, _train = tiny
    fresh = workloads.campaign_capture(7, TINY, tmp_path)  # new cache dir
    cached = workloads.campaign_capture(7, TINY, tmp_path)  # cache hit
    for cap in (fresh, cached):
        assert cap.records.tobytes() == first.records.tobytes()
        assert cap.labels.tobytes() == first.labels.tobytes()
    a = workloads.flood_overlay(first, 7)
    b = workloads.flood_overlay(fresh, 7)
    assert a.records.tobytes() == b.records.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def test_seeds_differ_and_training_never_uses_the_test_seed(tiny, monkeypatch):
    _root, test, train = tiny
    assert test.records.tobytes() != train.records.tobytes()
    assert workloads.flood_overlay(test, 1).records.tobytes() != (
        workloads.flood_overlay(test, 2).records.tobytes())
    seen = []
    monkeypatch.setattr(workloads, "campaign_capture",
                        lambda seed, scale, root: seen.append(seed))
    workloads.training_capture(workloads.TRAIN_SEED, Path("."))
    workloads.training_capture(3, Path("."))
    assert seen == [workloads.TRAIN_SEED_ALT, workloads.TRAIN_SEED]


def test_flood_overlay_is_time_ordered_single_packet_syns(tiny):
    _root, test, _train = tiny
    out = workloads.flood_overlay(test, 7)
    added = out.records.shape[0] - test.records.shape[0]
    assert added > 0.5 * test.records.shape[0]
    assert np.all(np.diff(out.records["ts_report"]) >= 0)
    assert int(out.labels.sum()) == int(test.labels.sum()) + added


# ----------------------------------------------------------------------
# span recorder
# ----------------------------------------------------------------------
class _Base:
    def leaf(self):
        return "leaf"


class _Layer(_Base):
    def outer(self):
        self.leaf()
        self.leaf()
        return "outer"


def test_self_time_subtracts_nested_children():
    ticks = iter(range(0, 1000, 10))  # each clock read advances 10 ns
    rec = tracing.SpanRecorder(clock=lambda: next(ticks))
    rec.wrap(_Layer, "outer", "outer")
    rec.wrap(_Layer, "leaf", "leaf")
    with rec:
        assert _Layer().outer() == "outer"
    # outer: t=0..50 with children leaf 10..20 and 30..40
    spans = rec.spans
    assert [s[0] for s in spans] == ["outer", "leaf", "leaf"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    assert tracing.total_times(rec.spans) == {"outer": 50, "leaf": 20}
    assert tracing.self_times(rec.spans) == {"outer": 30, "leaf": 20}
    assert tracing.call_counts(rec.spans) == {"outer": 1, "leaf": 2}


def test_self_time_of_one_run_ignores_other_runs():
    spans = [
        ("a", 0, 100, -1, 0),
        ("b", 10, 40, 0, 0),
        ("c", 15, 25, 1, 0),
        ("a", 200, 260, -1, 1),
        ("b", 210, 220, 3, 1),
    ]
    assert tracing.self_times(spans) == {"a": 70 + 50, "b": 20 + 10, "c": 10}
    assert tracing.self_times(tracing.run_spans(spans, 1)) == {"a": 50, "b": 10}


def test_recorder_restores_own_and_inherited_methods():
    own, inherited = _Layer.__dict__["outer"], _Base.__dict__["leaf"]
    rec = tracing.SpanRecorder()
    rec.wrap(_Layer, "outer", "outer")
    rec.wrap(_Layer, "leaf", "leaf")
    assert _Layer.__dict__["outer"] is not own
    rec.close()
    assert _Layer.__dict__["outer"] is own
    assert "leaf" not in _Layer.__dict__ and _Layer.leaf is inherited


def test_every_layer_boundary_exists():
    rec = tracing.SpanRecorder()
    rec.install()
    rec.close()
    assert rec.missing == []


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _tiny_run(tiny, workload):
    _root, test, train = tiny
    cap = workloads.flood_overlay(test, 7)
    bundle = harness.pretrain(workload, train)
    return cap, harness.run_lap(workload, harness.build_detector(workload, bundle), cap)


def test_accounting_identity_on_flood_overload(tiny):
    w = dataclasses.replace(WORKLOADS["flood-overload"], max_flows=300)
    cap, lap = _tiny_run(tiny, w)
    assert lap.errors == []
    assert lap.delivered == cap.records.shape[0]
    assert lap.lost > 0  # evicted flows' pending updates are dropped
    assert lap.predicted + lap.rejected + lap.lost == lap.delivered
    assert lap.decided_share < 1.0


def test_accounting_identity_on_flood_gated_sharded(tiny):
    w = WORKLOADS["flood-gated-sharded"]
    cap, lap = _tiny_run(tiny, w)  # the single-process reference run
    bundle = harness.pretrain(w, tiny[2])
    sharded = harness.run_lap(w, harness.build_detector(w, bundle), cap, shards=w.shards)
    for one in (lap, sharded):
        assert one.errors == []
        assert one.rejected > 0
        assert one.lost == 0
        assert one.predicted + one.rejected == one.delivered
    assert harness._check_laps([sharded], lap) == []


def test_composite_clock_takes_each_segment_from_its_fastest_lap():
    # lap a: segments of 10 and 20 us; lap b: 20 and 10 us
    a = SimpleNamespace(marks_us=np.array([0.0, 10.0, 30.0]),
                        registered_us=np.array([5.0]), predicted_us=np.array([25.0]))
    b = SimpleNamespace(marks_us=np.array([0.0, 20.0, 30.0]),
                        registered_us=np.array([10.0]), predicted_us=np.array([25.0]))
    lap_s, latency_ms = harness.composite([a, b])
    assert lap_s == pytest.approx(20e-6)
    # a: 5 -> 5, 25 -> 10 + 15 * 10/20 = 17.5; b: 10 -> 5, 25 -> 10 + 5 = 15
    assert latency_ms == pytest.approx([min(12.5, 10.0) / 1e3])
    # on the laps' own clocks: a 20 us, b 15 us
    _lap_s, own_ms = harness.composite([a, b], remap=False)
    assert own_ms == pytest.approx([15.0 / 1e3])


def test_composite_clock_of_a_uniformly_slower_lap_is_the_fast_lap(tiny):
    _cap, lap = _tiny_run(tiny, WORKLOADS["flood-overload"])
    slow = SimpleNamespace(marks_us=lap.marks_us * 2, registered_us=lap.registered_us * 2,
                           predicted_us=lap.predicted_us * 2)
    lap_s, latency_ms = harness.composite([slow, lap])
    assert lap_s == pytest.approx(lap.marks_us[-1] / 1e6)
    assert latency_ms == pytest.approx((lap.predicted_us - lap.registered_us) / 1e3)


def test_single_process_laps_take_the_cpus_in_turn():
    cpus = harness._usable_cpus()
    seen = []
    for lap in range(2 * len(cpus)):
        with harness.pinned(lap, WORKLOADS["flood-overload"]):
            seen.append(sorted(os.sched_getaffinity(0)))
    assert seen == [[cpus[lap % len(cpus)]] for lap in range(2 * len(cpus))]
    assert harness._usable_cpus() == cpus
    if len(cpus) > 1:
        with harness.pinned(1, WORKLOADS["flood-gated-sharded"]):
            assert harness._usable_cpus() == [cpus[1]]  # the worker's CPU
            pid = os.fork()
            if pid == 0:  # the worker keeps the CPU it inherits
                os._exit(0 if harness._usable_cpus() == [cpus[1]] else 1)
            assert os.waitpid(pid, 0)[1] == 0
            assert harness._usable_cpus() == [cpus[2 % len(cpus)]]  # coordinator
        assert harness._usable_cpus() == cpus


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        harness.PER_LAYER)
