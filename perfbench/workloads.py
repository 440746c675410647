"""Seeded inputs and configurations of the benchmark's workloads.

Every input is a pure function of the workload seed and
:data:`GENERATOR_VERSION`:

* the *test capture* is the AmLight-like campaign of
  :mod:`repro.datasets`, built through its discrete-event replay with
  ``CampaignConfig.seed = seed``;
* the *training capture* is the same campaign built from a different,
  fixed seed (never the test seed), so the panel never sees the stream
  it is scored on;
* the *flood overlay* is a spoofed-source SYN flood (one packet per
  flow) generated from ``seed`` and merged into the campaign capture in
  time order.

The discrete-event replay is by far the most expensive step, so built
captures are cached on disk under ``.bench_build/perfbench/``, keyed by
seed, scale and generator version.  Traffic rates are scaled down from
the ``small`` profile (:data:`TEST_SCALE`) so that one capture replays
in seconds and a run can measure several laps over it.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.datasets.amlight import SERVER_IP, SERVER_PORT, CampaignConfig, build_dataset
from repro.int_telemetry.report import REPORT_DTYPE
from repro.traffic.attacks import syn_flood

#: Bump whenever a change here alters any generated byte; it is part
#: of every cache key, so stale captures are never reused.
GENERATOR_VERSION = 1

#: Share of the ``small`` profile's traffic rates used for test captures.
TEST_SCALE = 1 / 12
#: Share used for the (smaller) training capture.
TRAIN_SCALE = 1 / 24
#: Seed of the training capture, and the one used when a test seed
#: collides with it.
TRAIN_SEED = 1_000_003
TRAIN_SEED_ALT = 1_000_033

#: Spoofed SYNs per campaign record in the flood overlay.
FLOOD_RATIO = 1.0
#: INT metadata stamped onto overlay records: the path latency and
#: in-switch time of an unqueued SYN on the monitored three-hop path.
_FLOOD_PATH_NS = 4_256
_FLOOD_HOP_LATENCY_NS = 1_728

#: Records per ``run_stream`` slice, i.e. per central cycle.
POLL_EVERY = 128
#: Floor on decision accuracy; a lap below it fails its output check.
ACCURACY_FLOOR = 0.9

CACHE_DIR = Path(".bench_build") / "perfbench"


@dataclass(frozen=True)
class Capture:
    """One replayable telemetry stream and its per-record ground truth."""

    records: np.ndarray
    labels: np.ndarray  # 1 = attack, per record


def campaign_config(seed: int, scale: float) -> CampaignConfig:
    """The ``small`` campaign with every traffic rate scaled by ``scale``."""
    base = CampaignConfig.small()
    return dataclasses.replace(
        base,
        seed=int(seed),
        benign_sessions_per_s=base.benign_sessions_per_s * scale,
        syn_scan_pps=base.syn_scan_pps * scale,
        udp_scan_pps=base.udp_scan_pps * scale,
        syn_flood_pps=base.syn_flood_pps * scale,
    )


def _cached(name: str, build: Callable[[], Capture], root: Path) -> Capture:
    path = root / CACHE_DIR / f"{name}-v{GENERATOR_VERSION}.npz"
    if path.exists():
        with np.load(path) as blob:
            return Capture(blob["records"], blob["labels"])
    cap = build()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npz")
    np.savez(tmp, records=cap.records, labels=cap.labels)
    os.replace(tmp, path)  # atomic: a killed run never leaves half a cache
    return cap


def campaign_capture(seed: int, scale: float, root: Path) -> Capture:
    """The INT capture of the scaled campaign built from ``seed``."""

    def build() -> Capture:
        ds = build_dataset(campaign_config(seed, scale))
        return Capture(ds.int_records, ds.int_labels.astype(np.uint8))

    return _cached(f"campaign-s{seed}-x{scale:.6f}", build, root)


def training_capture(test_seed: int, root: Path) -> Capture:
    seed = TRAIN_SEED if test_seed != TRAIN_SEED else TRAIN_SEED_ALT
    return campaign_capture(seed, TRAIN_SCALE, root)


def flood_overlay(base: Capture, seed: int) -> Capture:
    """``base`` with spoofed single-packet SYNs merged in time order.

    The flood spans the base capture's time range at the rate that
    yields :data:`FLOOD_RATIO` SYNs per base record.  Overlay records carry the
    INT metadata of an unqueued SYN on the monitored path, so they look
    like the campaign's own flood episodes.
    """
    ts = base.records["ts_report"]
    t0, t1 = int(ts.min()), int(ts.max())
    rate = FLOOD_RATIO * base.records.shape[0] / ((t1 - t0) / 1e9)
    # Seed stream disjoint from the campaign's own use of ``seed``.
    trace = syn_flood(
        SERVER_IP, SERVER_PORT, t0, t1, rate_pps=rate,
        backscatter_fraction=0.0, seed=np.random.default_rng([seed, 0xF100D]),
    ).records
    flood = np.zeros(trace.shape[0], dtype=REPORT_DTYPE)
    for field in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol",
                  "tcp_flags", "length"):
        flood[field] = trace[field]
    flood["ts_report"] = trace["ts"] + _FLOOD_PATH_NS
    flood["ingress_ts"] = (trace["ts"] % (1 << 32)).astype(np.uint32)
    flood["egress_ts"] = (flood["ts_report"] % (1 << 32)).astype(np.uint32)
    flood["hop_latency"] = _FLOOD_HOP_LATENCY_NS
    flood["hops"] = 3
    records = np.concatenate([base.records, flood])
    labels = np.concatenate([base.labels, trace["label"].astype(np.uint8)])
    order = np.argsort(records["ts_report"], kind="stable")
    return Capture(records[order], labels[order])


# ----------------------------------------------------------------------
# workload configurations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """How one workload builds its input and runs the detector."""

    name: str
    why: str
    #: "paper" = the testbed MLP/RF/GNB panel; "light" = GNB + a small RF.
    panel: str = "paper"
    shards: Optional[int] = None
    closed_loop: bool = False  # mitigation controller + lifecycle monitor
    max_flows: Optional[int] = None
    sketch: bool = False
    #: Update budget of each central cycle (one cycle per POLL_EVERY records).
    cycle_budget: int = 256


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "flood-overload",
            "campaign plus a spoofed SYN flood through the paper's panel into "
            "a capped flow table with a binding cycle budget: eviction, "
            "fallback, backlog",
            max_flows=1_500,
            cycle_budget=96,
        ),
        Workload(
            "flood-gated-sharded",
            "the same input behind the sketch gate in a shard worker with "
            "checkpoints, mitigation and a lifecycle monitor: gate, shard "
            "protocol, checkpoint layers",
            panel="light",
            shards=1,
            closed_loop=True,
            sketch=True,
        ),
    )
}


def workload_input(workload: Workload, seed: int, root: Path) -> Capture:
    return flood_overlay(campaign_capture(seed, TEST_SCALE, root), seed)


def panel_factories(kind: str) -> Optional[Dict[str, Callable[[], object]]]:
    """``None`` selects the library's default testbed panel."""
    if kind == "paper":
        return None
    from repro.ml.forest import RandomForestClassifier
    from repro.ml.naive_bayes import GaussianNB

    return {
        "gnb": lambda: GaussianNB(),
        "rf": lambda: RandomForestClassifier(
            n_estimators=5, max_depth=8, max_samples=20000, seed=0
        ),
    }


def capture_stats(cap: Capture) -> Tuple[int, float]:
    """(records, attack share) — printed so a run documents its input."""
    n = int(cap.records.shape[0])
    return n, float(cap.labels.mean()) if n else 0.0
