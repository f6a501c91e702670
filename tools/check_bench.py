"""Perf-regression gate for the host-fusion benchmark.

Compares a fresh ``bench_host_fusion.py`` run against the committed
``BENCH_host_fusion.json`` trajectory and fails (exit 1) when any fused
path regressed by more than the threshold.  Absolute wall-clock differs
wildly across CI machines, so the *gated* quantities are the in-run
speedup ratios (fused vs unfused, sliding vs naive SSIM) — a slowdown
of the fused implementation shows up as a drop in its speedup over the
reference implementation measured on the same machine in the same run.
Raw seconds are printed in the delta table for context but not gated.

Every fresh value is itself the median of several timed repeats (see
``bench_host_fusion.py``), and baseline values are the medians over the
committed runs with the same ``--quick`` flag as the fresh run, which
keeps one noisy historical entry from moving the gate.  A fresh value
whose relative interquartile range (the ``<key>_iqr`` the bench writes
next to it) exceeds the threshold is listed as noisy: the gate still
applies to its median, and the flag says that the run cannot resolve a
change of the threshold's size in that row.

The process-executor sections additionally pass through an *absolute*
core-aware gate (:func:`process_gate`): hosts with two or more usable
cores must show a real x4 speedup over serial, single-core hosts must
stay within the parity floor — overhead bounded even where parallelism
is physically unavailable.

The ``dispatch`` section passes through :func:`dispatch_gate`: on every
case the calibrated adaptive plan must either pick the measured-best
static (backend, tiling) candidate or land within 5% of its wall-clock.

The ``audit_parallel`` section passes through :func:`audit_gate`, the
same core-aware split as :func:`process_gate`: a multi-core host must
audit faster with two workers than serially, a single-core host only
has its coordinator/part-file overhead bounded.

Usage::

    PYTHONPATH=src python benchmarks/bench_host_fusion.py --quick --output fresh.json
    python tools/check_bench.py --fresh fresh.json [--baseline BENCH_host_fusion.json]
        [--threshold 0.15]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: (label, path into one run entry, gated?) — gated rows are speedup
#: ratios and fail the check when fresh < baseline * (1 - threshold);
#: seconds rows are informational
ROWS = [
    ("fused vs unfused speedup", ("fused", "speedup"), True),
    ("sliding vs naive SSIM speedup", ("ssim", "speedup"), True),
    ("tiled vs whole speedup", ("tiled", "speedup"), True),
    ("tiled peak-memory reduction", ("tiled", "peak_reduction"), True),
    ("fused seconds", ("fused", "fused_seconds"), False),
    ("tiled seconds", ("tiled", "tiled_seconds"), False),
    ("whole-array seconds", ("tiled", "whole_seconds"), False),
    ("unfused seconds", ("fused", "unfused_seconds"), False),
    ("sliding SSIM seconds", ("ssim", "sliding_seconds"), False),
    ("parallel x1 seconds", ("parallel", "workers", "1", "seconds"), False),
    ("parallel x4 seconds", ("parallel", "workers", "4", "seconds"), False),
    ("slab x1 seconds", ("slab", "workers", "1", "seconds"), False),
    ("slab x4 seconds", ("slab", "workers", "4", "seconds"), False),
    ("process batch x4 speedup",
     ("parallel_process", "workers", "4", "speedup_vs_1"), False),
    ("process slab x4 speedup",
     ("slab_process", "workers", "4", "speedup_vs_1"), False),
    ("process vs thread batch x4", ("parallel_process", "vs_thread_x4"), False),
    ("process vs thread slab x4", ("slab_process", "vs_thread_x4"), False),
    ("process batch x4 seconds",
     ("parallel_process", "workers", "4", "seconds"), False),
    ("process slab x4 seconds",
     ("slab_process", "workers", "4", "seconds"), False),
    ("audit parallel speedup",
     ("audit_parallel", "speedup_vs_serial"), False),
    ("audit serial seconds", ("audit_parallel", "serial_seconds"), False),
    ("audit parallel seconds",
     ("audit_parallel", "parallel_seconds"), False),
]

#: absolute floors on the process executor's best speedup-vs-serial
#: (max over the 2- and 4-worker rows), keyed by whether the run's host
#: could actually parallelise.  A multi-core host must beat serial
#: outright at some worker count; a host with one usable core physically
#: cannot (there is no second core to run the second worker), so the
#: floor there only bounds the pool's dispatch + attach + context-switch
#: overhead (measured 0.6-0.85x on the 1-core reference container,
#: task-size dependent — the smaller the field, the larger the IPC share).
PROCESS_FLOOR_MULTI_CORE = 1.0
PROCESS_FLOOR_SINGLE_CORE = 0.5

#: absolute floors on the parallel audit's speedup over the serial loop
#: (same core-aware split as the process-executor gate).  Audits stream
#: from disk through per-chunk checkpoints, so the single-core floor is
#: lower than the in-memory pools': the coordinator's poll/merge loop
#: and the per-worker part-file writes are pure overhead when both
#: workers share one core (measured ~0.4-0.7x there).
AUDIT_FLOOR_MULTI_CORE = 1.0
AUDIT_FLOOR_SINGLE_CORE = 0.4

#: adaptive dispatch must land within this factor of the measured-best
#: static candidate on every ``dispatch`` section case (unless it chose
#: the best candidate outright, in which case timing noise is irrelevant)
DISPATCH_TOLERANCE = 1.05


def dispatch_gate(fresh: dict) -> list[str]:
    """Absolute gate: adaptive plan within 5% of the best static plan."""
    cases = (fresh.get("dispatch") or {}).get("cases") or []
    failures = []
    for case in cases:
        if case.get("matched_best"):
            continue
        ratio = float(case.get("adaptive_vs_best", 0.0))
        if ratio > DISPATCH_TOLERANCE:
            failures.append(
                f"dispatch {tuple(case.get('shape', ()))}: adaptive chose "
                f"{case.get('adaptive_chosen')} at {ratio:.3f}x the best "
                f"static {case.get('best_static')} "
                f"(tolerance {DISPATCH_TOLERANCE}x)"
            )
    return failures


def process_gate(fresh: dict) -> list[str]:
    """Core-aware absolute gate on the process executor sections."""
    cores = int(fresh.get("avail_cores") or 1)
    multi = cores >= 2
    floor = PROCESS_FLOOR_MULTI_CORE if multi else PROCESS_FLOOR_SINGLE_CORE
    kind = "speedup" if multi else "parity"
    failures = []
    for label, section in (
        ("process batch", "parallel_process"), ("process slab", "slab_process"),
    ):
        values = [
            _lookup(fresh, (section, "workers", w, "speedup_vs_1"))
            for w in ("2", "4")
        ]
        values = [v for v in values if v is not None]
        if not values:
            continue  # host cannot run the process executor at all
        best = max(values)
        if best <= floor:
            failures.append(
                f"{label}: best speedup_vs_1 {best:.3f} is below the "
                f"{kind} floor {floor} ({cores} usable cores)"
            )
    return failures


def audit_gate(fresh: dict) -> list[str]:
    """Core-aware absolute gate on the parallel archive audit."""
    speedup = _lookup(fresh, ("audit_parallel", "speedup_vs_serial"))
    if speedup is None:
        return []  # host cannot run the process executor at all
    cores = int(fresh.get("avail_cores") or 1)
    multi = cores >= 2
    floor = AUDIT_FLOOR_MULTI_CORE if multi else AUDIT_FLOOR_SINGLE_CORE
    kind = "speedup" if multi else "parity"
    if speedup <= floor:
        return [
            f"parallel audit: speedup_vs_serial {speedup:.3f} is below the "
            f"{kind} floor {floor} ({cores} usable cores)"
        ]
    return []


def _spread(entry: dict, path: tuple[str, ...]) -> float | None:
    """Relative IQR of the value at ``path``, if the run recorded one."""
    value = _lookup(entry, path)
    iqr = _lookup(entry, path[:-1] + (f"{path[-1]}_iqr",))
    if value is None or iqr is None or value == 0.0:
        return None
    return iqr / abs(value)


def noise_flags(fresh: dict, threshold: float) -> list[str]:
    """Every recorded value whose relative IQR exceeds ``threshold``."""
    flags = []
    for label, path, _ in ROWS:
        spread = _spread(fresh, path)
        if spread is not None and spread > threshold:
            flags.append(
                f"{label}: IQR is {spread:.0%} of the median "
                f"(threshold {threshold:.0%})"
            )
    return flags


def _lookup(entry: dict, path: tuple[str, ...]) -> float | None:
    node = entry
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node)


def _load_runs(path: Path) -> list[dict]:
    doc = json.loads(path.read_text())
    runs = doc.get("runs", [])
    if not runs:
        raise SystemExit(f"{path} contains no benchmark runs")
    return runs


def compare(fresh: dict, baseline_runs: list[dict], threshold: float):
    """Build the delta table and the list of gate failures."""
    matching = [r for r in baseline_runs if r.get("quick") == fresh.get("quick")]
    if not matching:
        matching = baseline_runs
    table = []
    failures = []
    for label, path, gated in ROWS:
        fresh_val = _lookup(fresh, path)
        base_vals = [v for v in (_lookup(r, path) for r in matching) if v is not None]
        if fresh_val is None or not base_vals:
            continue
        base = statistics.median(base_vals)
        delta = (fresh_val - base) / base if base else 0.0
        spread = _spread(fresh, path)
        row = {
            "metric": label,
            "baseline": f"{base:.4g}",
            "fresh": f"{fresh_val:.4g}",
            "iqr": "-" if spread is None else f"{spread:.0%}",
            "delta": f"{delta:+.1%}",
            "gate": f"> {-threshold:.0%}" if gated else "(info)",
        }
        if gated and fresh_val < base * (1.0 - threshold):
            row["gate"] = "FAIL"
            failures.append(
                f"{label}: {fresh_val:.4g} is more than {threshold:.0%} below "
                f"the baseline median {base:.4g}"
            )
        table.append(row)
    return table, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", type=Path, required=True,
                        help="JSON written by a fresh bench_host_fusion.py run")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_host_fusion.json",
    )
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="maximum tolerated fractional slowdown (default 0.15)")
    parser.add_argument(
        "--require-multicore", action="store_true",
        help="fail unless the fresh run saw >= 2 usable cores, so the "
        "process gate's >1x speedup floor (not just the single-core "
        "parity floor) is the one actually exercised",
    )
    args = parser.parse_args(argv)

    fresh = _load_runs(args.fresh)[-1]
    baseline_runs = _load_runs(args.baseline)
    table, failures = compare(fresh, baseline_runs, args.threshold)
    if args.require_multicore:
        cores = int(fresh.get("avail_cores") or 1)
        if cores < 2:
            failures.append(
                f"--require-multicore: fresh run saw only {cores} usable "
                f"core(s); the >1x process-executor floor was not exercised"
            )
    failures += process_gate(fresh)
    failures += dispatch_gate(fresh)
    failures += audit_gate(fresh)
    flags = noise_flags(fresh, args.threshold)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    try:
        from repro.viz.ascii import ascii_table

        print(ascii_table(table, title="host-fusion benchmark vs committed baseline"))
    except ImportError:  # keep the gate usable without the package
        for row in table:
            print(row)

    if flags:
        print("\nnoisy cases (median gated, spread too wide to resolve "
              "the threshold):")
        for flag in flags:
            print(f"  - {flag}")
    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nperf regression gate passed (threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
