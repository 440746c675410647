#!/usr/bin/env python3
"""Benchmark of the INT-based DDoS detection pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload flood-overload --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports per-layer metrics
and the tracing overhead.  ``--workload all`` runs every workload in
turn.  Each run prints a table of every metric with its unit, a
``detail`` line (host fingerprint, laps, check results) and, last, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the checkout; inputs are built
on first use and cached under ``.bench_build/perfbench/``.  Input
building happens in this process and the measurement in a fresh child
process, so the measured process's peak memory never includes the
input build.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Upper bound on one measuring child, so a hung run still ends.
CHILD_TIMEOUT_S = 170


def _parse(argv: List[str], names: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _format_table(workload: str, trace: int, result: Any) -> str:
    kind = "per-layer (traced)" if trace else "end-to-end"
    lines = [f"== {workload}: {kind} metrics =="]
    for name, (value, unit) in result.metrics.items():
        lines.append(f"  {name:<28} {value:>16.6g} {unit}")
    detail = result.detail
    laps = detail.get("laps") or detail.get("traced_laps") or []
    lines.append(
        f"  laps: {len(laps)}; latency samples per lap: "
        f"{[lap['latency_samples'] for lap in laps]}"
    )
    for err in detail["errors"]:
        lines.append(f"  CHECK FAILED: {err}")
    return "\n".join(lines)


def _measure_child(args: argparse.Namespace) -> int:
    import harness
    import workloads

    w = workloads.WORKLOADS[args.workload]
    cap = workloads.workload_input(w, args.seed, ROOT)
    train = workloads.training_capture(args.seed, ROOT)
    run = harness.measure_traced if args.trace else harness.measure
    result = run(w, cap, train, args.seconds)
    n, attack = workloads.capture_stats(cap)
    result.detail.update(
        workload=w.name, why=w.why, seed=args.seed, records=n,
        attack_share=round(attack, 4), host=harness.host_fingerprint(),
    )
    print(_format_table(w.name, args.trace, result))
    print("detail " + json.dumps(result.detail, sort_keys=True))
    for err in result.detail["errors"]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()
        },
    }), flush=True)
    return 0


def _run_child(args: argparse.Namespace, workload: str,
               capture: bool) -> Optional[Dict[str, Any]]:
    """Build the workload's inputs here, then measure in a child.
    Returns the child's result object when ``capture`` is set."""
    import workloads

    w = workloads.WORKLOADS[workload]
    workloads.workload_input(w, args.seed, ROOT)
    workloads.training_capture(args.seed, ROOT)
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--measure"]
    proc = subprocess.run(
        cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True,
        stdout=subprocess.PIPE if capture else None, text=True,
    )
    if not capture:
        return None
    print(proc.stdout, end="", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: the program's source (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = _parse(argv, list(workloads.WORKLOADS))
    if args.measure:
        return _measure_child(args)
    try:
        if args.workload != "all":
            _run_child(args, args.workload, capture=False)
            return 0
        summary: Dict[str, Any] = {"correct": True, "attempted": 0,
                                   "failed": 0, "metrics": {}}
        for name in workloads.WORKLOADS:
            res = _run_child(args, name, capture=True)
            assert res is not None
            summary["correct"] = summary["correct"] and res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for metric, val in res["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = val
        print(json.dumps(summary))
        return 0
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: measuring run failed (exit {exc.returncode})",
              file=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"perfbench: measuring run exceeded {CHILD_TIMEOUT_S}s",
              file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
